"""Benchmark of the evalcards CLI: synth, analyze, render and compare.

Usage (from the repository root)::

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selfcheck

With ``--trace 0`` every CLI stage runs as its own process, one at a time,
from this single process (a closed loop with one client). Each stage
is timed from spawn to exit and its peak RSS is taken from the child's own
rusage via ``os.wait4``. With ``--trace 1`` the same stages run in-process
through ``layers.py`` and the run reports one number per layer instead.
Either way every output is checked against ``oracle.py`` and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from workloads import IDLE_CAP_MS, System, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
STARTUP_SAMPLES = 7
STAMP_SAMPLE = 20_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "render_s": "s",
    "compare_s": "s",
    "analyze_rss_mb": "MB",
    "render_rss_mb": "MB",
    "compare_rss_mb": "MB",
    "export_mb": "MB",
    "report_mb": "MB",
    "comparison_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "taxonomy.resolve_model_s": "s",
    "taxonomy.align_models_s": "s",
    "telemetry.load_bundle_s": "s",
    "telemetry.records_per_s": "1/s",
    "telemetry.files": "count",
    "telemetry.records": "count",
    "telemetry.log_mb": "MB",
    "telemetry.bundle_rss_mb": "MB",
    "telemetry.parse_timestamp_canonical_us": "us",
    "telemetry.parse_timestamp_other_us": "us",
    "metrics.compute_metric_set_s": "s",
    "metrics.compute_effort_s": "s",
    "metrics.transition_matrix_l3_s": "s",
    "metrics.transition_matrix_l2_s": "s",
    "metrics.linearity_s": "s",
    "metrics.descriptive_s": "s",
    "survey.load_ratings_csv_s": "s",
    "survey.load_sus_csv_s": "s",
    "survey.component_attitudes_s": "s",
    "survey.rating_rows": "count",
    "cards.export_metrics_s": "s",
    "serialize.canonical_json_s": "s",
    "cards.validate_export_s": "s",
    "cards.render_within_export_s": "s",
    "cards.render_between_s": "s",
    "synth.generate_bundle_s": "s",
    "synth.write_fixture_tree_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


class Spawner:
    """Runs ``python -m evalcards.cli`` from the checkout's ``src``, one
    process at a time, and reads each child's wall time and peak RSS.

    Each child writes its output to files of its own, deleted once read:
    truncating a file that holds data makes ext4 flush it on close, a cost
    that would land in the next timed stage.
    """

    def __init__(self, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), EVALCARDS_NO_COLOR="1")
        self.work = work
        self.spawned = 0

    def run(self, *args: object) -> tuple[int, float, float, str]:
        """Return (exit code, seconds, peak RSS in MB, stderr text)."""
        code, seconds, rss, _, err = self._spawn(
            [sys.executable, "-m", "evalcards.cli", *map(str, args)])
        return code, seconds, rss, err

    def check(self, *args: object) -> None:
        """Run an untimed CLI stage that must succeed."""
        self.output([sys.executable, "-m", "evalcards.cli", *args])

    def output(self, argv: list) -> str:
        """Run any Python child that must succeed; return its stdout."""
        code, _, _, out, err = self._spawn([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} exited {code}: {err.strip()}")
        return out

    def _spawn(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        self.spawned += 1
        out, err = (self.work / f"child-{self.spawned}.{name}" for name in ("out", "err"))
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = perf_counter() - start
        texts = []
        for path in (out, err):
            texts.append(path.read_text(errors="replace"))
            path.unlink()
        code = os.waitstatus_to_exitcode(status)
        return code, seconds, usage.ru_maxrss * 1024 / 1e6, *texts


# --------------------------------------------------------------------------
# One run of one workload
# --------------------------------------------------------------------------


class Run:
    def __init__(self, wl: Workload, seed: int, work: Path, traced: bool):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.spawner = Spawner(work)
        self.inputs = work / "inputs"
        self.out = work / "out-0"  # outputs of the latest round; see round()
        self.layers = None
        if traced:
            from layers import Layers

            self.layers = Layers()
        self.stage_samples = {"analyze": [], "render": [], "compare": []}
        self.rss_samples = {"analyze": [], "render": [], "compare": []}
        self.first_hashes: dict[str, str] = {}
        self.expected: dict[str, tuple] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.corrupt_failed = 0
        self.rounds = 0
        self.corrupt_paths: list[Path] = []
        self.control_rejection = ""

    # -- paths --------------------------------------------------------------

    def taxonomy(self, system: System) -> Path:
        return self.work / "taxonomy" / f"{system.taxonomy}.yaml"

    def tree(self, system: System) -> Path:
        return self.inputs / system.key

    def logs(self, system: System) -> Path:
        return self.tree(system) / ("messy-logs" if system.messy else "logs")

    def export(self, system: System) -> Path:
        if system.timed:
            return self.out / f"{system.key}.json"
        return self.inputs / "exports" / f"{system.key}.json"

    def report(self, system: System) -> Path:
        return self.out / "reports" / system.key / f"{system.taxonomy}.cards.html"

    def comparison(self, index: int) -> Path:
        return self.out / f"comparison-{index}.html"

    def systems_by_key(self) -> dict[str, System]:
        return {s.key: s for s in self.wl.systems}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate every input of the workload; return the seconds taken."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        (self.inputs / "exports").mkdir(parents=True)
        if self.layers is not None:  # one sample per set-up, as for setup_s
            synth_layers = ("synth.generate_bundle_s", "synth.write_fixture_tree_s")
            since = {name: len(self.layers.samples[name]) for name in synth_layers}
        start = perf_counter()
        extra = (workloads.CORRUPTION_BASE,) if self.wl.corrupt else ()
        for system in self.wl.systems + extra:
            profile = self.inputs / f"{system.key}.profile.yaml"
            profile.write_text(system.profile_yaml(), encoding="utf-8")
            if self.layers is not None:
                self.layers.synth(self.taxonomy(system), profile, self.tree(system))
            else:
                self.spawner.check("synth", "--taxonomy", self.taxonomy(system),
                                   "--profile", profile, "--out", self.tree(system))
            if system.messy:
                workloads.rewrite_tree(self.tree(system) / "logs", self.logs(system),
                                       workloads.derive_seed(system.seed, "rewrite"))
            if not system.timed:
                self.spawner.check(*self.analyze_args(system))
        if self.wl.corrupt:
            self.corrupt_paths = workloads.write_corruptions(
                self.export(workloads.CORRUPTION_BASE), self.inputs / "corrupt")
        seconds = perf_counter() - start
        if self.layers is not None:
            self.layers.fold(since)
        return seconds

    def analyze_args(self, system: System) -> list[object]:
        return ["analyze", "--taxonomy", self.taxonomy(system), "--logs", self.logs(system),
                "--surveys", self.tree(system) / "surveys", "--out", self.export(system),
                *system.flags]

    # -- rounds -------------------------------------------------------------

    def round(self) -> None:
        """One whole round: the same operations every time.

        Each round writes to a fresh directory and the one before is deleted
        when it ends, so outputs die within seconds, before the kernel writes
        dirty pages back (30 s by default): a timed stage never waits for
        writeback of, or block discards from, an earlier round's files.
        """
        previous = self.out
        self.out = self.work / f"out-{self.rounds + 1}"
        self.out.mkdir()
        for system in self.wl.timed_systems:
            self.stage("analyze", self.export(system), self.analyze_args(system),
                       lambda s=system: self.layers.analyze(
                           self.taxonomy(s), self.logs(s), self.tree(s) / "surveys",
                           self.export(s), s.flags))
        for system in self.wl.timed_systems:
            report = self.report(system)
            self.stage("render", report,
                       ["render", self.export(system), "--out", report.parent],
                       lambda s=system: self.layers.render(self.export(s), self.report(s)))
        by_key = self.systems_by_key()
        for i, group in enumerate(self.wl.comparisons):
            exports = [self.export(by_key[k]) for k in group]
            out = self.comparison(i)
            self.stage("compare", out, ["compare", *exports, "--out", out],
                       lambda e=exports, o=out: self.layers.compare(e, o))
        for path in self.corrupt_paths:
            self.corrupt_render(path)
        self.rounds += 1
        shutil.rmtree(previous, ignore_errors=True)

    def stage(self, kind: str, output: Path, cli_args: list, in_process) -> None:
        self.attempted += 1
        if self.layers is None:
            code, seconds, rss, err = self.spawner.run(*cli_args)
            if code != 0:
                self.failed += 1
                log(f"{kind} exited {code}: {err.strip()}")
                return
            self.stage_samples[kind].append(seconds)
            self.rss_samples[kind].append(rss)
        else:
            try:
                in_process()
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                self.failed += 1
                log(f"{kind} raised:\n{traceback.format_exc()}")
                return
        name = str(output.relative_to(self.out))
        digest = oracle.sha256_file(output)
        if self.first_hashes.setdefault(name, digest) != digest:
            self.problems.append(f"{name} differs between rounds for the same input")

    def corrupt_render(self, path: Path) -> None:
        """A corrupted export must end in exit 2 with a message naming it."""
        self.attempted += 1
        code, _, _, err = self.spawner.run("render", path, "--out", self.out / path.stem)
        if code != 2 or path.name not in err:
            self.failed += 1
            self.corrupt_failed += 1

    # -- checks -------------------------------------------------------------

    def model(self, system: System) -> oracle.Model:
        from evalcards.taxonomy import load_config, resolve_model

        model = resolve_model(*load_config(self.taxonomy(system)))
        return oracle.Model(
            system_name=model.system_name,
            order=model.comp_ids,
            l2_of={c.comp_id: c.l2_id for c in model.components},
            l2_order=model.l2_order,
        )

    def verify(self) -> None:
        """Check every output against the oracle; record each problem."""
        extra = (workloads.CORRUPTION_BASE,) if self.wl.corrupt else ()
        checks = [(self.check_export, s) for s in self.wl.systems + extra]
        checks += [(self.check_report, s) for s in self.wl.timed_systems]
        checks += [(self.check_comparison, i) for i in range(len(self.wl.comparisons))]
        checks += [(self.negative_control, self.wl.timed_systems[0])]
        for check, arg in checks:
            try:
                check(arg)
            except (oracle.Mismatch, RuntimeError, OSError, KeyError, ValueError, TypeError) as exc:
                self.problems.append(f"{check.__name__}: {exc}")

    def expected_inputs(self, system: System):
        """What the oracle reads: the clean logs, SUS answers and the model."""
        if system.key not in self.expected:
            sessions = oracle.read_sessions(self.tree(system) / "logs")
            sus = oracle.read_sus(self.tree(system) / "surveys" / "sus.csv")
            self.expected[system.key] = sessions, sus, self.model(system)
        return self.expected[system.key]

    def check_export(self, system: System) -> None:
        doc = json.loads(self.export(system).read_text(encoding="utf-8"))
        sessions, sus, model = self.expected_inputs(system)
        oracle.check_export(doc, sessions, sus, model,
                            collapse="--collapse-repeats" in system.flags, idle_cap_ms=IDLE_CAP_MS)
        if system.messy:
            # Rewriting, swapping and quarantining must not change one byte of
            # the export: analyze the clean tree with --collapse-repeats alone.
            clean = self.work / "check" / f"{system.key}.clean.json"
            clean.parent.mkdir(parents=True, exist_ok=True)
            self.spawner.check("analyze", "--taxonomy", self.taxonomy(system),
                               "--logs", self.tree(system) / "logs",
                               "--surveys", self.tree(system) / "surveys",
                               "--out", clean, "--collapse-repeats")
            if clean.read_bytes() != self.export(system).read_bytes():
                raise oracle.Mismatch(
                    f"{system.key}: messy export differs from the clean tree's export")

    def check_report(self, system: System) -> None:
        report = self.report(system)
        oracle.check_within_report(report.read_text(encoding="utf-8"), self.export(system))
        if self.rounds < 2:  # no second timed render happened: make one
            again = self.work / "check" / system.key
            self.spawner.check("render", self.export(system), "--out", again)
            if (again / report.name).read_bytes() != report.read_bytes():
                raise oracle.Mismatch(f"{system.key}: a second render is not byte-identical")

    def check_comparison(self, index: int) -> None:
        by_key = self.systems_by_key()
        exports = [self.export(by_key[k]) for k in self.wl.comparisons[index]]
        oracle.check_comparison(self.comparison(index).read_text(encoding="utf-8"), exports)

    def negative_control(self, system: System) -> None:
        """One L3 cell +1 must be rejected, or the oracle proves nothing."""
        doc = json.loads(self.export(system).read_text(encoding="utf-8"))
        doc["transitions"]["l3"]["counts"][0][1] += 1
        sessions, sus, model = self.expected_inputs(system)
        try:
            oracle.check_export(doc, sessions, sus, model,
                                collapse="--collapse-repeats" in system.flags,
                                idle_cap_ms=IDLE_CAP_MS)
        except oracle.Mismatch as exc:
            self.control_rejection = str(exc)
            return
        raise RuntimeError("the oracle accepted an export with one L3 cell altered")

    # -- per-layer extras ---------------------------------------------------

    def trace_extras(self) -> None:
        """Start-up time of the CLI, and parse_timestamp over this workload's
        own timestamps: canonical as synth writes them, and the same instants
        in the rewritten forms ``messy`` uses."""
        for _ in range(STARTUP_SAMPLES):
            code, seconds, _, _ = self.spawner.run("--version")
            if code != 0:
                raise RuntimeError(f"evalcards --version exited {code}")
            self.layers.samples["cli.startup_s"].append(seconds)
        timed = self.wl.timed_systems
        for system in timed * max(1, 3 // len(timed)):
            probe = [sys.executable, str(Path(__file__).with_name("layers.py")),
                     self.taxonomy(system), self.logs(system), *system.flags]
            self.layers.samples["telemetry.bundle_rss_mb"].append(
                float(self.spawner.output(probe)))
        canonical = []
        for system in self.wl.timed_systems:
            for path in sorted((self.tree(system) / "logs").glob("*.jsonl")):
                with path.open(encoding="utf-8") as fh:
                    canonical += [json.loads(line)["timestamp"] for line in fh if line.strip()]
                if len(canonical) >= STAMP_SAMPLE:
                    break
        canonical = canonical[:STAMP_SAMPLE]
        instants = [workloads.canonical_ms(s) for s in canonical]
        rng = random.Random(workloads.derive_seed(self.seed, "stamps"))
        other = [workloads.rewrite_stamp(ms, rng, keep_canonical=False) for ms in instants]
        for _ in range(3):
            for kind, stamps in (("canonical", canonical), ("other", other)):
                if self.layers.parse_timestamps(kind, stamps) != instants:
                    self.problems.append(f"parse_timestamp moved an instant ({kind} forms)")

    # -- results ------------------------------------------------------------

    def end_to_end(self, setup_times: list[float]) -> dict:
        def mean_mb(paths):
            return statistics.fmean(p.stat().st_size for p in paths) / 1e6

        values = {"setup_s": statistics.median(setup_times)}
        for kind in ("analyze", "render", "compare"):
            values[f"{kind}_s"] = statistics.median(self.stage_samples[kind])
            values[f"{kind}_rss_mb"] = statistics.median(self.rss_samples[kind])
        values["export_mb"] = mean_mb([self.export(s) for s in self.wl.timed_systems])
        values["report_mb"] = mean_mb([self.report(s) for s in self.wl.timed_systems])
        values["comparison_mb"] = mean_mb(
            [self.comparison(i) for i in range(len(self.wl.comparisons))])
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    def per_layer(self) -> dict:
        missing = [name for name in PER_LAYER_UNITS if not self.layers.samples[name]]
        if missing:  # only after a failed operation; the run is then not correct
            self.problems.append(f"no samples for {missing}")
        return {
            name: {"value": statistics.median(self.layers.samples[name] or [0.0]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: str = "full") -> tuple[dict, Run]:
    wl = workloads.build(name, seed, size)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "taxonomy").mkdir(parents=True)
    try:
        for system in ("visus", "distil", "tworavens"):
            shutil.copyfile(SRC / "evalcards" / "fixtures" / f"{system}.yaml",
                            work / "taxonomy" / f"{system}.yaml")
        run = Run(wl, seed, work, traced)
        run.spawner.check("--version")  # byte-compile the package before timing
        setup_times = [run.setup() for _ in range(SETUP_REPEATS)]
        start = perf_counter()
        while True:
            run.round()
            if perf_counter() - start >= seconds:
                break
        if traced:
            run.trace_extras()
        run.verify()
        metrics = run.per_layer() if traced else run.end_to_end(setup_times)
        for problem in run.problems:
            log(f"CHECK FAILED: {problem}")
        if traced:
            samples = f"layer spans={sum(map(len, run.layers.samples.values()))}"
        else:
            samples = f"samples={ {k: len(v) for k, v in run.stage_samples.items()} }"
        print(f"{name}: seed={seed} rounds={run.rounds} setups={SETUP_REPEATS} {samples} "
              f"attempted={run.attempted} failed={run.failed}")
        return {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }, run
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def selfcheck() -> int:
    """All three workloads at tiny size, untraced and traced, in seconds."""
    ok = True
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            result, run = run_workload(name, seed=1, seconds=0, traced=traced, size="tiny")
            # only the corrupted exports may fail (the known faults)
            good = result["correct"] and result["failed"] == run.corrupt_failed
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {name} trace={int(traced)}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} (corrupted exports not rejected: "
                  f"{run.corrupt_failed} of {len(run.corrupt_paths) * run.rounds}) "
                  f"metrics={len(result['metrics'])}")
            rejected = bool(run.control_rejection)
            ok &= rejected
            print(f"{'PASS' if rejected else 'FAIL'} {name} trace={int(traced)} negative control "
                  f"(one L3 cell +1): {run.control_rejection or 'accepted'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at a tiny size, with the negative control")
    args = parser.parse_args(argv)
    if not (SRC / "evalcards" / "cli.py").is_file():
        log(f"error: no evalcards sources at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

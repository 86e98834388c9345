"""The traced run: each CLI stage done in-process, one span per layer call.

``Layers`` performs the same work as ``evalcards synth``, ``analyze``,
``render`` and ``compare``, writes the same files, and times every call
into a module's public functions. Spans are kept in memory, one list of
durations per layer, and summarised when the run ends. The per-layer
sub-steps of ``compute_metric_set`` (effort, both matrices, linearity) are
called a second time on their own so that each has a time; that extra work
is only in this run, never in the end-to-end one.
"""
from __future__ import annotations

import gc
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from evalcards import cards, metrics, serialize, survey, synth, taxonomy, telemetry

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _load_bundle(logs: Path, model, flags: tuple[str, ...]):
    return telemetry.load_bundle(
        logs, model,
        sort_timestamps="--sort-timestamps" in flags,
        allow_unknown_components="--allow-unknown-components" in flags,
    )


def bundle_rss_mb(taxonomy_path: Path, logs: Path, flags: tuple[str, ...]) -> float:
    """RSS growth across ``load_bundle`` in a fresh interpreter, as in
    ``analyze``. Run as a script so that no earlier call's freed memory is
    reused."""
    model = taxonomy.resolve_model(*taxonomy.load_config(taxonomy_path))
    gc.collect()
    before = _rss_bytes()
    bundle = _load_bundle(logs, model, flags)
    grown = _rss_bytes() - before
    del bundle
    return grown / 1e6


class Layers:
    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        yield
        self.samples[name].append(perf_counter() - start)

    def fold(self, since: dict[str, int]) -> None:
        """Sum the samples each layer gained since ``since`` into one."""
        for name, start in since.items():
            tail = self.samples[name][start:]
            del self.samples[name][start:]
            self.samples[name].append(sum(tail))

    def _model(self, taxonomy_path: Path):
        with self.span("taxonomy.resolve_model_s"):
            name, actions = taxonomy.load_config(taxonomy_path)
            return taxonomy.resolve_model(name, actions)

    def synth(self, taxonomy_path: Path, profile_path: Path, out_dir: Path) -> None:
        system_name, actions = taxonomy.load_config(taxonomy_path)
        model = taxonomy.resolve_model(system_name, actions)
        profile = synth.load_profile(profile_path)
        with self.span("synth.generate_bundle_s"):
            result = synth.generate_bundle(model, profile)
        with self.span("synth.write_fixture_tree_s"):
            synth.write_fixture_tree(result, out_dir)

    def analyze(self, taxonomy_path: Path, logs: Path, surveys: Path, out: Path,
                flags: tuple[str, ...]) -> None:
        model = self._model(taxonomy_path)
        collapse = "--collapse-repeats" in flags
        with self.span("telemetry.load_bundle_s"):
            bundle = _load_bundle(logs, model, flags)
        files = sorted(Path(logs).glob("*.jsonl"))
        records = sum(len(s.records) + len(s.quarantined) for s in bundle.sessions)
        self.samples["telemetry.files"].append(len(files))
        self.samples["telemetry.records"].append(records)
        self.samples["telemetry.log_mb"].append(sum(p.stat().st_size for p in files) / 1e6)
        self.samples["telemetry.records_per_s"].append(
            records / self.samples["telemetry.load_bundle_s"][-1]
        )

        with self.span("survey.load_ratings_csv_s"):
            ratings = survey.load_ratings_csv(surveys / "ratings.csv")
        with self.span("survey.load_sus_csv_s"):
            sus = survey.sus_scores_by_user(survey.load_sus_csv(surveys / "sus.csv"))
        self.samples["survey.rating_rows"].append(len(ratings))

        cap = metrics.DEFAULT_IDLE_CAP_MS
        with self.span("metrics.compute_metric_set_s"):
            metric_set = metrics.compute_metric_set(bundle, idle_cap_ms=cap,
                                                    collapse_repeats=collapse)
        with self.span("metrics.compute_effort_s"):
            metrics.compute_effort(bundle, cap)
        for level in ("l3", "l2"):
            with self.span(f"metrics.transition_matrix_{level}_s"):
                metrics.transition_matrix(bundle.sessions, model, level.upper(),
                                          collapse_repeats=collapse)
        with self.span("metrics.linearity_s"):
            for session in bundle.sessions:
                metrics.linearity(session, model.comp_ids)
        with self.span("survey.component_attitudes_s"):
            attitudes = survey.component_attitudes(ratings, model)
        with self.span("metrics.descriptive_s"):
            stats = metrics.descriptive(bundle, sus)
        with self.span("cards.export_metrics_s"):
            export = cards.export_metrics(metric_set, attitudes, stats)
        with self.span("serialize.canonical_json_s"):
            text = serialize.canonical_json(export)
        out.write_text(text, encoding="utf-8")

    def _load_export(self, path: Path) -> dict:
        doc = json.loads(path.read_text(encoding="utf-8"))
        with self.span("cards.validate_export_s"):
            cards.validate_export(doc)
        return doc

    def render(self, export: Path, report: Path) -> None:
        doc = self._load_export(export)
        with self.span("cards.render_within_export_s"):
            html = cards.render_within_export(doc)
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(html, encoding="utf-8")

    def compare(self, exports: list[Path], out: Path) -> None:
        docs = [self._load_export(p) for p in exports]
        with self.span("taxonomy.align_models_s"):
            taxonomy.align_models([taxonomy.ComponentModel.from_dict(d["model"]) for d in docs])
        with self.span("cards.render_between_s"):
            html = cards.render_between(docs)
        out.write_text(html, encoding="utf-8")

    def parse_timestamps(self, kind: str, stamps: list[str]) -> list[int]:
        """Mean microseconds per ``parse_timestamp`` call over ``stamps``."""
        parse = telemetry.parse_timestamp
        start = perf_counter()
        parsed = [parse(s) for s in stamps]
        elapsed = perf_counter() - start
        self.samples[f"telemetry.parse_timestamp_{kind}_us"].append(elapsed / len(stamps) * 1e6)
        return parsed


if __name__ == "__main__":
    import sys

    print(bundle_rss_mb(Path(sys.argv[1]), Path(sys.argv[2]), tuple(sys.argv[3:])))

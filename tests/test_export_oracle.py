"""``analyze`` on messy log trees, checked against the benchmark's oracle.

A drawn set of at most six sessions is written twice: as the canonical tree
that ``synth`` writes, and as a rewrite of its logs with the faults that the
``messy`` workload plants: stamps in other ISO-8601 forms, swapped
neighbours, unknown components and blank lines. Dwell times and idle caps
are drawn so that some gaps pass the cap. ``analyze`` runs in-process on the
rewrite with drawn flags. Its export must agree with ``bench/oracle.py``,
which recomputes it from the canonical tree; or, where a fault is planted
without the flag that admits it, the run must exit 2 naming the log file and
the line. The oracle is loaded by path, so it stays free of package imports.
"""
import contextlib
import importlib.util
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from evalcards.cli import main
from evalcards.fixtures import fixture_model, fixture_text
from evalcards.synth import Archetype, SynthProfile, generate_bundle, write_fixture_tree

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # oracle.py imports workloads by this name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracle = _load("oracle")

SYSTEMS = ("visus", "distil", "tworavens")
UNKNOWN = {"lv1_id": "data", "lv2_id": "legacy_upload", "comp_id": "legacy_upload_panel"}
# --idle-cap argument and the cap it sets; None leaves the default, 10 minutes.
IDLE_CAPS = {None: workloads.IDLE_CAP_MS, "90s": 90_000, "1h": 3_600_000}


def rewrite_log(text, draw):
    """The records of a canonical log, rewritten with drawn faults. Returns
    the new text, and whether it holds a swap and an unknown component."""
    records = [json.loads(line) for line in text.splitlines()]
    instants = [workloads.canonical_ms(r["timestamp"]) for r in records]
    rng = random.Random(draw(st.integers(0, 2**32), label="stamp forms"))
    for record, ms in zip(records, instants):
        record["timestamp"] = workloads.rewrite_stamp(ms, rng, keep_canonical=True)
    swapped = len(records) > 1 and draw(st.booleans(), label="swap")
    if swapped:
        i = draw(st.integers(0, len(records) - 2), label="swap at")
        records[i], records[i + 1] = records[i + 1], records[i]
    unknown = draw(st.integers(0, 2), label="unknown records")
    for _ in range(unknown):
        extra = dict(UNKNOWN, timestamp=workloads.rewrite_stamp(rng.choice(instants), rng, keep_canonical=True))
        records.insert(draw(st.integers(0, len(records)), label="unknown at"), extra)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    for _ in range(draw(st.integers(0, 2), label="blank lines")):
        lines.insert(draw(st.integers(0, len(lines)), label="blank at"), "")
    return "".join(line + "\n" for line in lines), swapped, unknown > 0


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_analyze_of_a_messy_tree_agrees_with_the_oracle(data):
    draw = data.draw
    system = draw(st.sampled_from(SYSTEMS), label="system")
    model = fixture_model(system)
    profile = SynthProfile(
        archetype=draw(st.sampled_from([Archetype.LINEAR, Archetype.NONLINEAR, Archetype.REVERSED])),
        n_users=draw(st.integers(1, 3), label="users"),
        tasks=("t1", "t2")[: draw(st.integers(1, 2), label="tasks")],
        dwell_min_ms=1_000,
        dwell_max_ms=draw(st.sampled_from([60_000, 900_000]), label="dwell max"),
        seed=draw(st.integers(0, 2**64 - 1), label="seed"),
    )
    sort = draw(st.booleans(), label="--sort-timestamps")
    allow = draw(st.booleans(), label="--allow-unknown-components")
    collapse = draw(st.booleans(), label="--collapse-repeats")
    cap = draw(st.sampled_from(list(IDLE_CAPS)), label="--idle-cap")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "taxonomy.yaml").write_text(fixture_text(system), encoding="utf-8")
        write_fixture_tree(generate_bundle(model, profile), work / "clean")
        messy = work / "messy"
        messy.mkdir()
        failing = set()
        for path in sorted((work / "clean" / "logs").glob("*.jsonl")):
            text, swapped, unknown = rewrite_log(path.read_text(encoding="utf-8"), draw)
            (messy / path.name).write_text(text, encoding="utf-8")
            if (swapped and not sort) or (unknown and not allow):
                failing.add(path.name)

        argv = ["analyze", "--taxonomy", work / "taxonomy.yaml", "--logs", messy,
                "--surveys", work / "clean" / "surveys", "--out", work / "export.json"]
        argv += ["--sort-timestamps"] * sort + ["--allow-unknown-components"] * allow
        argv += ["--collapse-repeats"] * collapse + ["--idle-cap", cap] * (cap is not None)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(arg) for arg in argv])

        if failing:
            assert code == 2, err.getvalue()
            named = re.findall(r"^  (\S+\.jsonl): line \d+: ", err.getvalue(), re.M)
            assert set(named) == failing, err.getvalue()
            return
        assert code == 0, err.getvalue()
        doc = json.loads((work / "export.json").read_text(encoding="utf-8"))
        truth = oracle.Model(
            system_name=model.system_name,
            order=model.comp_ids,
            l2_of={c.comp_id: c.l2_id for c in model.components},
            l2_order=model.l2_order,
        )
        oracle.check_export(
            doc,
            oracle.read_sessions(work / "clean" / "logs"),
            oracle.read_sus(work / "clean" / "surveys" / "sus.csv"),
            truth,
            collapse=collapse,
            idle_cap_ms=IDLE_CAPS[cap],
        )

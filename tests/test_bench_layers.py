"""The traced benchmark run, on a tiny tree, against the package API.

With ``--trace 1``, ``bench/run.py`` performs ``synth``, ``analyze``,
``render`` and ``compare`` in-process through ``bench/layers.py``, which
calls the package's public functions and reads ``Session.records`` and
``Session.quarantined``. The benchmark's own self-check takes about a
minute; this test loads ``layers.py`` by path and runs each stage once, so
that a change to that API shows here first.
"""
import importlib.util
import json
from pathlib import Path

from evalcards.fixtures import fixture_text
from evalcards.telemetry import parse_timestamp

ROOT = Path(__file__).resolve().parents[1]
MESSY_FLAGS = ("--sort-timestamps", "--allow-unknown-components", "--collapse-repeats")
# Filled by bench/run.py outside Layers: spawned `--version` and spawned probes.
SPAWNED = {"cli.startup_s", "telemetry.bundle_rss_mb"}


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_gets_a_sample(tmp_path):
    layers = _load_layers()
    run = layers.Layers()
    exports = []
    for system, flags in (("visus", MESSY_FLAGS), ("distil", ())):
        taxonomy = tmp_path / f"{system}.yaml"
        taxonomy.write_text(fixture_text(system), encoding="utf-8")
        profile = tmp_path / f"{system}.profile.yaml"
        profile.write_text(
            "archetype: nonlinear\nn_users: 2\ntasks: [t1, t2]\n"
            "dwell_ms: {min: 1000, max: 900000}\nseed: 5\n",
            encoding="utf-8",
        )
        tree = tmp_path / system
        run.synth(taxonomy, profile, tree)
        export = tmp_path / f"{system}.json"
        run.analyze(taxonomy, tree / "logs", tree / "surveys", export, flags)
        run.render(export, tmp_path / "reports" / f"{system}.cards.html")
        exports.append(export)
        assert isinstance(layers.bundle_rss_mb(taxonomy, tree / "logs", flags), float)
    run.compare(exports, tmp_path / "comparison.html")

    canonical = ["2024-01-01T00:00:00.000Z", "2024-02-29T23:59:59.999Z"]
    other = ["2024-01-01T05:30:00+05:30", "20240229T235959.999Z"]
    instants = [parse_timestamp(s) for s in canonical]
    assert run.parse_timestamps("canonical", canonical) == instants
    assert run.parse_timestamps("other", other) == instants

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in SPAWNED and not run.samples[m["name"]]]
    assert missing == []

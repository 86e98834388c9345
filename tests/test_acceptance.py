"""Acceptance suite: one test per criterion, each at its stated tolerance.

The per-criterion pass/fail summary is printed by the conftest hook at the
end of the run.
"""
import json
import re

import numpy as np
import pytest
from oracles import comp_ids_of, oracle_box, oracle_linearity_counts

from evalcards.cli import main
from evalcards.fixtures import fixture_model, fixture_text
from evalcards.metrics import MatrixLevel, attribute_time, linearity, transition_matrix
from evalcards.survey import likert_box, sus_score, SusResponse
from evalcards.synth import Archetype, SplitMix64, SynthProfile, generate_bundle
from evalcards.taxonomy import Level1, load_reference

SCALE_PROFILE = (
    "archetype: {archetype}\n"
    "n_users: 41\n"
    "tasks: [classification, regression]\n"
    "dwell_ms: {{min: 2000, max: 60000}}\n"
    "seed: {seed}\n"
)


def run(args):
    return main([str(a) for a in args])


def tree_digest(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def random_bundle(model, *, n_users, seed, archetype=Archetype.NONLINEAR, pair=None):
    profile = SynthProfile(
        archetype=archetype,
        n_users=n_users,
        tasks=("classification", "regression"),
        dwell_min_ms=250,
        dwell_max_ms=15 * 60 * 1000,
        seed=seed,
        iteration_pair=pair,
    )
    return generate_bundle(model, profile).bundle


@pytest.mark.acceptance(1, "shipped fixtures resolve to 11 / 6 / 18 components with exact ancestry")
def test_criterion_1_taxonomy_fixtures():
    visus = fixture_model("visus")
    assert len(visus) == 11
    expected = {
        "open_dataset": (Level1.DATA, "open_dataset", "apply"),
        "explore_dataset": (Level1.DATA, "explore_dataset", "apply"),
        "select_target_metric": (Level1.PROBLEM, "specify_problem", "subdivide"),
        "define_problem_type": (Level1.PROBLEM, "specify_problem", "subdivide"),
        "advanced_configurations": (Level1.PROBLEM, "specify_problem", "subdivide"),
        "see_confusion_matrix": (Level1.MODEL, "explain_model", "subdivide"),
        "see_rule_matrix": (Level1.MODEL, "explain_model", "subdivide"),
        "see_confusion_scatter_plot": (Level1.MODEL, "explain_model", "subdivide"),
        "see_pdp": (Level1.MODEL, "explain_model", "subdivide"),
        "compare_models": (Level1.MODEL, "compare_models", "apply"),
        "export_model": (Level1.MODEL, "export_model", "apply"),
    }
    got = {c.comp_id: (c.l1_id, c.l2_id, c.origin.value) for c in visus.components}
    assert got == expected
    assert len(fixture_model("distil")) == 6
    assert len(fixture_model("tworavens")) == 18


@pytest.mark.acceptance(2, "reference table: 9 entries, split 4/1/4 across data/problem/model")
def test_criterion_2_reference_table():
    ref = load_reference()
    assert len(ref) == 9
    by_l1 = {l1: [r.l2_id for r in ref if r.l1_id is l1] for l1 in Level1}
    assert len(by_l1[Level1.DATA]) == 4
    assert len(by_l1[Level1.PROBLEM]) == 1
    assert len(by_l1[Level1.MODEL]) == 4
    assert by_l1[Level1.DATA] == [
        "open_dataset",
        "explore_dataset",
        "augment_dataset",
        "transform_dataset",
    ]
    assert by_l1[Level1.PROBLEM] == ["specify_problem"]
    assert by_l1[Level1.MODEL] == [
        "summarize_models",
        "explain_model",
        "compare_models",
        "export_model",
    ]


@pytest.mark.acceptance(3, "SUS: midpoint, extremes, bounds, and exact 2.5-per-point steps")
def test_criterion_3_sus_suite():
    def score(items):
        return sus_score(SusResponse(user_id="u", items=tuple(items)))

    assert score([3] * 10) == 50.0
    best = [5 if i % 2 == 1 else 1 for i in range(1, 11)]
    worst = [1 if i % 2 == 1 else 5 for i in range(1, 11)]
    assert score(best) == 100.0
    assert score(worst) == 0.0

    # exhaustive: every item, every unit increment, from every baseline value
    for idx in range(10):
        for value in range(1, 5):
            lo = [3] * 10
            hi = [3] * 10
            lo[idx] = value
            hi[idx] = value + 1
            expected = 2.5 if (idx + 1) % 2 == 1 else -2.5
            assert score(hi) - score(lo) == expected

    # bounds hold over a full randomized sweep
    rng = SplitMix64(2024)
    for _ in range(2000):
        items = [rng.randint(1, 5) for _ in range(10)]
        assert 0.0 <= score(items) <= 100.0


@pytest.mark.acceptance(4, "time attribution conserves session spans on 1,000 sessions (0 ms tolerance)")
def test_criterion_4_conservation():
    model = fixture_model("visus")
    bundle = random_bundle(model, n_users=500, seed=404)
    assert len(bundle) == 1000
    for session in bundle.sessions:
        attributed = attribute_time(session, idle_cap_ms=None)
        ts = session.ts_ms.tolist()
        oracle = sum(b - a for a, b in zip(ts, ts[1:]))
        assert sum(attributed.values()) == oracle
        assert sum(attributed.values()) == session.span_ms


@pytest.mark.acceptance(5, "matrix totals and cell-exact L2 = block-sum(L3) roll-up")
def test_criterion_5_matrix_totals_and_rollup():
    model = fixture_model("visus")
    for seed in (1, 2, 3):
        bundle = random_bundle(model, n_users=10, seed=seed)
        l3 = transition_matrix(bundle.sessions, model, MatrixLevel.L3)
        assert l3.total == sum(len(s.ts_ms) - 1 for s in bundle.sessions)

        l2 = transition_matrix(bundle.sessions, model, MatrixLevel.L2)
        assert l2.total == l3.total
        l2_of = {c.comp_id: c.l2_id for c in model.components}
        pos = {key: i for i, key in enumerate(l2.order)}
        blocks = np.zeros_like(l2.counts)
        for i, src in enumerate(l3.order):
            for j, dst in enumerate(l3.order):
                blocks[pos[l2_of[src]], pos[l2_of[dst]]] += l3.counts[i, j]
        assert np.array_equal(l2.counts, blocks)


@pytest.mark.acceptance(6, "archetype separation: linear >= 0.95, reversed <= 0.05, iterative hotspot pair")
def test_criterion_6_archetype_separation():
    model = fixture_model("visus")
    order = model.comp_ids

    linear = random_bundle(model, n_users=10, seed=61, archetype=Archetype.LINEAR)
    for session in linear.sessions:
        assert linearity(session, order).value >= 0.95
    l3 = transition_matrix(linear.sessions, model)
    assert np.all(np.tril(l3.counts, k=-1) == 0)  # strictly upper-triangular off-diagonal

    reversed_bundle = random_bundle(model, n_users=10, seed=62, archetype=Archetype.REVERSED)
    for session in reversed_bundle.sessions:
        assert linearity(session, order).value <= 0.05

    pair = ("explore_dataset", "select_target_metric")
    iterative = random_bundle(
        model, n_users=10, seed=63, archetype=Archetype.ITERATIVE, pair=pair
    )
    matrix = transition_matrix(iterative.sessions, model)
    off = matrix.counts.copy()
    np.fill_diagonal(off, 0)
    ranked = np.argsort(off, axis=None)[::-1]
    top_two = {
        (matrix.order[i], matrix.order[j])
        for i, j in (np.unravel_index(k, off.shape) for k in ranked[:2])
    }
    assert top_two == {pair, (pair[1], pair[0])}


@pytest.mark.acceptance(7, "41x2 fixture flows synth -> analyze -> render/compare with exact structure")
def test_criterion_7_scale_fixture_end_to_end(tmp_path):
    configs = {}
    for name in ("visus", "distil", "tworavens"):
        config = tmp_path / f"{name}.yaml"
        config.write_text(fixture_text(name), encoding="utf-8")
        configs[name] = config

    exports = {}
    for i, (name, config) in enumerate(sorted(configs.items())):
        profile = tmp_path / f"{name}.profile.yaml"
        profile.write_text(SCALE_PROFILE.format(archetype="linear", seed=7 + i))
        fixture_dir = tmp_path / f"{name}-fixture"
        assert run(["synth", "--taxonomy", config, "--profile", profile, "--out", fixture_dir]) == 0
        assert len(list((fixture_dir / "logs").glob("*.jsonl"))) == 82

        export = tmp_path / f"{name}.json"
        assert (
            run(
                [
                    "analyze",
                    "--taxonomy", config,
                    "--logs", fixture_dir / "logs",
                    "--surveys", fixture_dir / "surveys",
                    "--out", export,
                ]
            )
            == 0
        )
        exports[name] = export
        doc = json.loads(export.read_text())
        assert len(doc["descriptive"]["sessions"]) == 82
        assert len({r["user_id"] for r in doc["descriptive"]["sessions"]}) == 41

    reports = tmp_path / "reports"
    assert run(["render", exports["visus"], "--out", reports]) == 0
    html = (reports / "visus.cards.html").read_text()
    assert html.count('<section class="card') == 8
    assert len(re.findall(r'id="([a-z]+-(?:within|between))"', html)) == 8

    cmp_out = tmp_path / "comparison.html"
    assert run(["compare", *exports.values(), "--out", cmp_out]) == 0
    cmp_html = cmp_out.read_text()
    # every aligned reference l2 gets a side-by-side panel in the attitudinal
    # and effort sections; all three systems appear in shared-l2 panels
    attitudinal = cmp_html.split('id="attitudinal-between"')[1].split("</section>")[0]
    panels = re.findall(r'data-l2="([a-z_]+)"', attitudinal)
    assert "explain_model" in panels and "open_dataset" in panels
    explain_panel = [
        p for p in attitudinal.split('class="l2-panel"') if 'data-l2="explain_model"' in p
    ][0]
    assert re.findall(r'data-system="([a-z]+)"', explain_panel) == ["distil", "tworavens", "visus"]
    heatmaps = re.findall(r'class="system-heatmap" data-system="([a-z]+)"', cmp_html)
    assert heatmaps == ["distil", "tworavens", "visus"]


@pytest.mark.acceptance(8, "byte-identical exports and reports on repeated runs (digest compare)")
def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "visus.yaml"
    config.write_text(fixture_text("visus"), encoding="utf-8")
    profile = tmp_path / "profile.yaml"
    profile.write_text(SCALE_PROFILE.format(archetype="nonlinear", seed=7))

    fixture_dir = tmp_path / "fixture"
    export = tmp_path / "export.json"
    reports = tmp_path / "reports"
    cmp_out = tmp_path / "cmp.html"

    distil_config = tmp_path / "distil.yaml"
    distil_config.write_text(fixture_text("distil"), encoding="utf-8")
    distil_fixture = tmp_path / "distil-fixture"
    distil_export = tmp_path / "distil.json"

    def pipeline(force):
        flags = ["--force"] if force else []
        assert run(["synth", "--taxonomy", config, "--profile", profile, "--out", fixture_dir, *flags]) == 0
        assert run(["synth", "--taxonomy", distil_config, "--profile", profile, "--out", distil_fixture, *flags]) == 0
        assert run(["analyze", "--taxonomy", config, "--logs", fixture_dir / "logs",
                    "--surveys", fixture_dir / "surveys", "--out", export, *flags]) == 0
        assert run(["analyze", "--taxonomy", distil_config, "--logs", distil_fixture / "logs",
                    "--surveys", distil_fixture / "surveys", "--out", distil_export, *flags]) == 0
        assert run(["render", export, "--out", reports, *flags]) == 0
        assert run(["compare", export, distil_export, "--out", cmp_out, *flags]) == 0
        return {
            "fixture": tree_digest(fixture_dir),
            "export": export.read_bytes(),
            "distil_export": distil_export.read_bytes(),
            "report": (reports / "visus.cards.html").read_bytes(),
            "comparison": cmp_out.read_bytes(),
        }

    first = pipeline(force=False)
    second = pipeline(force=True)
    assert first == second


@pytest.mark.acceptance(9, "exact oracle agreement: 10,000 box summaries and 1,000 session linearities")
def test_criterion_9_oracle_equivalence():
    rng = SplitMix64(909)
    for _ in range(10_000):
        n = rng.randint(1, 50)
        values = [rng.randint(1, 5) for _ in range(n)]
        assert likert_box(values) == oracle_box(values)

    model = fixture_model("visus")
    order = model.comp_ids
    bundle = random_bundle(model, n_users=500, seed=910)
    assert len(bundle) == 1000
    for session in bundle.sessions:
        index = linearity(session, order)
        forward, backward, selfs = oracle_linearity_counts(comp_ids_of(session), order)
        assert (index.forward_count, index.backward_count, index.self_count) == (
            forward,
            backward,
            selfs,
        )
        expected = forward / (forward + backward) if forward + backward else 1.0
        assert index.value == expected

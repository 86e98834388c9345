"""Export schema, report structure, determinism, and chart/data agreement."""
import json
import re

import pytest

from evalcards import cards
from evalcards.cards import (
    ExportSchemaError,
    FewerThanTwoSystems,
    ModelMismatch,
    export_metrics,
    render_between,
    render_within,
    render_within_export,
    validate_export,
)
from evalcards.charts import EMPTY_CELL
from evalcards.fixtures import fixture_model
from evalcards.metrics import compute_metric_set, descriptive
from evalcards.serialize import canonical_json, fmt_num
from evalcards.survey import component_attitudes, sus_scores_by_user
from evalcards.synth import Archetype, SynthProfile, generate_bundle
from evalcards.taxonomy import ResolutionAction, resolve_model

SECTION_RE = re.compile(r'<section class="card[^"]*" id="([a-z]+-[a-z]+)"')


def build_export(system="visus", *, n_users=4, seed=3, archetype=Archetype.NONLINEAR, drop_ratings_for=()):
    model = fixture_model(system)
    profile = SynthProfile(
        archetype=archetype,
        n_users=n_users,
        tasks=("classification", "regression"),
        dwell_min_ms=1_000,
        dwell_max_ms=50_000,
        seed=seed,
    )
    result = generate_bundle(model, profile)
    ratings = [r for r in result.ratings if r.comp_id not in drop_ratings_for]
    metric_set = compute_metric_set(result.bundle)
    attitudes = component_attitudes(ratings, model)
    stats = descriptive(result.bundle, sus_scores_by_user(result.sus))
    return model, metric_set, attitudes, stats, export_metrics(metric_set, attitudes, stats)


@pytest.fixture(scope="module")
def visus_parts():
    return build_export()


@pytest.fixture(scope="module")
def three_exports():
    return [
        build_export(name, n_users=3, seed=i + 1)[4]
        for i, name in enumerate(("visus", "distil", "tworavens"))
    ]


# --------------------------------------------------------------------------
# Export document
# --------------------------------------------------------------------------


def test_export_validates_against_schema(visus_parts):
    validate_export(visus_parts[4])


def test_export_survives_canonical_round_trip(visus_parts):
    export = visus_parts[4]
    validate_export(json.loads(canonical_json(export)))


def test_export_has_one_descriptive_row_per_session(visus_parts):
    export = visus_parts[4]
    assert len(export["descriptive"]["sessions"]) == 8
    assert len(export["linearity"]["per_session"]) == 8
    assert len(export["effort"]["per_session"]) == 8


def test_export_share_sums_to_one_per_session(visus_parts):
    export = visus_parts[4]
    for row in export["effort"]["per_session"]:
        if row["attributed_ms"]:
            assert abs(sum(row["share"].values()) - 1.0) < 1e-9
        assert sum(row["per_comp_ms"].values()) == row["attributed_ms"]


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda e: e.update(kind="other"), "kind"),
        (lambda e: e.update(schema_version=2), "schema_version"),
        (lambda e: e.pop("transitions"), "transitions"),
        (lambda e: e["attitudes"].pop("see_pdp"), "attitudes"),
        (lambda e: e["transitions"]["l3"]["counts"][0].append(1), "counts"),
        (lambda e: e["transitions"]["l3"]["counts"][0].__setitem__(0, -1), "negative"),
        (lambda e: e["transitions"]["l2"].update(order=["x"]), "order"),
    ],
)
def test_schema_violations_rejected(visus_parts, mutate, match):
    export = json.loads(canonical_json(visus_parts[4]))  # deep copy
    mutate(export)
    with pytest.raises(ExportSchemaError, match=match):
        validate_export(export)


# --------------------------------------------------------------------------
# Within-system report
# --------------------------------------------------------------------------


def test_within_report_has_exactly_eight_sections(visus_parts):
    html = render_within_export(visus_parts[4])
    sections = SECTION_RE.findall(html)
    assert len(sections) == 8
    assert sections == [
        "descriptive-within",
        "attitudinal-within",
        "effort-within",
        "exploration-within",
        "descriptive-between",
        "attitudinal-between",
        "effort-between",
        "exploration-between",
    ]
    assert html.count('class="card unavailable"') == 4


def test_within_report_attitudinal_lists_all_eleven_components(visus_parts):
    model, *_, export = visus_parts
    html = render_within_export(export)
    attitudinal = html.split('id="attitudinal-within"')[1].split("</section>")[0]
    for comp in model.components:
        assert attitudinal.count(f">{comp.label}<") == 2  # efficiency + effectiveness rows


def test_render_is_deterministic(visus_parts):
    export = visus_parts[4]
    assert render_within_export(export) == render_within_export(export)


def test_render_is_pure_function_of_export(visus_parts):
    model, metric_set, attitudes, stats, export = visus_parts
    direct = render_within(model, metric_set, attitudes, stats)
    from_file = render_within_export(json.loads(canonical_json(export)))
    assert direct == from_file


def test_model_mismatch_rejected(visus_parts):
    _, metric_set, attitudes, stats, _ = visus_parts
    other = fixture_model("distil")
    with pytest.raises(ModelMismatch):
        render_within(other, metric_set, attitudes, stats)


def test_attitude_coverage_mismatch_rejected(visus_parts):
    model, metric_set, attitudes, stats, _ = visus_parts
    partial = {k: v for k, v in attitudes.items() if k != "see_pdp"}
    with pytest.raises(ModelMismatch):
        render_within(model, metric_set, partial, stats)


def test_single_session_renders_with_n_of_one():
    model = fixture_model("visus")
    profile = SynthProfile(
        archetype=Archetype.NONLINEAR,
        n_users=1,
        tasks=("classification",),
        dwell_min_ms=1_000,
        dwell_max_ms=50_000,
        seed=8,
    )
    result = generate_bundle(model, profile)
    metric_set = compute_metric_set(result.bundle)
    attitudes = component_attitudes(result.ratings, model)
    stats = descriptive(result.bundle, sus_scores_by_user(result.sus))
    html = render_within(model, metric_set, attitudes, stats)
    assert "n = 1" in html
    assert len(SECTION_RE.findall(html)) == 8


def test_no_data_components_marked(visus_parts):
    model, *_ = visus_parts
    _, metric_set, attitudes, stats, export = build_export(drop_ratings_for=("see_pdp",))
    assert export["attitudes"]["see_pdp"]["no_data"] is True
    html = render_within_export(export)
    assert "no data" in html
    assert "components with no ratings: see_pdp" in html


def test_svg_geometry_is_sane_across_full_report(three_exports):
    import xml.etree.ElementTree as ET

    documents = [render_within_export(e) for e in three_exports]
    documents.append(render_between(three_exports))
    for html in documents:
        for svg_text in re.findall(r"<svg.*?</svg>", html, re.S):
            root = ET.fromstring(svg_text)
            view = [float(v) for v in root.attrib["viewBox"].split()]
            width, height = view[2], view[3]
            for rect in root.iter("rect"):
                assert float(rect.attrib["width"]) >= 0
                assert float(rect.attrib["height"]) >= 0
                assert -1 <= float(rect.attrib["x"]) <= width + 1
                assert -1 <= float(rect.attrib["y"]) <= height + 1
            for circle in root.iter("circle"):
                assert -1 <= float(circle.attrib["cx"]) <= width + 1
                assert -1 <= float(circle.attrib["cy"]) <= height + 1


def test_sections_carry_inputs_digest_metadata(visus_parts):
    export = json.loads(canonical_json(visus_parts[4]))
    html = render_within_export(export)
    from evalcards.serialize import sha256_hex

    digest = sha256_hex(canonical_json(export))
    assert html.count(f'data-inputs-digest="sha256:{digest}"') == 4
    assert 'data-options="idle cap: 600000 ms' in html


def test_render_serializes_each_export_once(three_exports, monkeypatch):
    calls = []
    serialize = cards.canonical_json
    monkeypatch.setattr(cards, "canonical_json", lambda doc: calls.append(doc) or serialize(doc))
    render_within_export(three_exports[0])
    assert len(calls) == 1
    calls.clear()
    render_between(three_exports)
    assert len(calls) == len(three_exports)


def test_zero_cells_use_distinct_empty_tone(visus_parts):
    export = visus_parts[4]
    html = render_within_export(export)
    l3 = export["transitions"]["l3"]["counts"]
    if any(c == 0 for row in l3 for c in row):
        assert EMPTY_CELL in html


def test_log_scale_flag_changes_heatmap(visus_parts):
    export = visus_parts[4]
    linear = render_within_export(export)
    logged = render_within_export(export, log_scale=True)
    assert "linear color scale" in linear
    assert "log color scale" in logged
    assert linear != logged


def test_rendered_numeric_labels_equal_export_values(visus_parts):
    model, _, _, _, export = visus_parts
    export = json.loads(canonical_json(export))
    html = render_within_export(export)
    # effort totals table carries the exact integers
    for comp in model.comp_ids:
        assert f"<td>{export['effort']['totals_ms'][comp]}</td>" in html
        assert f"<td>{export['effort']['visit_counts'][comp]}</td>" in html
    # linearity table carries the exact quantized values
    for row in export["linearity"]["per_session"]:
        assert f"<td>{fmt_num(row['value'])}</td>" in html
    # heatmap cells carry the exact counts in their tooltips
    l3 = export["transitions"]["l3"]
    order = l3["order"]
    for i, src in enumerate(order):
        for j, dst in enumerate(order):
            assert f"{src} → {dst}: {l3['counts'][i][j]}</title>" in html


# --------------------------------------------------------------------------
# Between-system report
# --------------------------------------------------------------------------


def test_between_requires_two_systems(visus_parts):
    with pytest.raises(FewerThanTwoSystems):
        render_between([visus_parts[4]])


def test_between_rejects_duplicate_system_names(visus_parts):
    export = visus_parts[4]
    with pytest.raises(Exception, match="duplicate"):
        render_between([export, json.loads(canonical_json(export))])


def test_between_three_systems_structure(three_exports):
    html = render_between(three_exports)
    sections = SECTION_RE.findall(html)
    assert sections == [
        "descriptive-between",
        "attitudinal-between",
        "effort-between",
        "exploration-between",
    ]
    # heatmap triptych ordered by system name
    order = re.findall(r'class="system-heatmap" data-system="([a-z]+)"', html)
    assert order == ["distil", "tworavens", "visus"]
    # every aligned level-2 key appears as a panel in attitudinal and effort
    panels = re.findall(r'data-l2="([a-z_]+)"', html)
    assert len(panels) % 2 == 0
    assert len(set(panels)) >= 6


def test_between_panels_hold_side_by_side_figures(three_exports):
    html = render_between(three_exports)
    attitudinal = html.split('id="attitudinal-between"')[1].split("</section>")[0]
    explain = [p for p in attitudinal.split('class="l2-panel"') if 'data-l2="explain_model"' in p]
    assert len(explain) == 1
    systems = re.findall(r'data-system="([a-z]+)"', explain[0])
    assert systems == ["distil", "tworavens", "visus"]


def test_between_is_deterministic_and_order_insensitive(three_exports):
    a = render_between(three_exports)
    b = render_between(list(reversed(three_exports)))
    assert a == b


def test_between_disjoint_systems_render_one_sided():
    keys = [
        "open_dataset",
        "explore_dataset",
        "augment_dataset",
        "transform_dataset",
        "specify_problem",
        "summarize_models",
        "explain_model",
        "compare_models",
        "export_model",
    ]
    def export_for(name, keep, seed):
        actions = [
            ResolutionAction.apply(k) if k in keep else ResolutionAction.drop(k) for k in keys
        ]
        model = resolve_model(name, actions)
        profile = SynthProfile(
            archetype=Archetype.NONLINEAR,
            n_users=2,
            tasks=("classification",),
            dwell_min_ms=1_000,
            dwell_max_ms=20_000,
            seed=seed,
        )
        result = generate_bundle(model, profile)
        return export_metrics(
            compute_metric_set(result.bundle),
            component_attitudes(result.ratings, model),
            descriptive(result.bundle, sus_scores_by_user(result.sus)),
        )

    left = export_for("left", {"open_dataset", "explore_dataset"}, 1)
    right = export_for("right", {"compare_models", "export_model"}, 2)
    html = render_between([left, right])
    assert "not present in: right" in html
    assert "not present in: left" in html


def test_between_lists_created_l2_residue():
    keys = [
        "open_dataset",
        "explore_dataset",
        "augment_dataset",
        "transform_dataset",
        "specify_problem",
        "summarize_models",
        "explain_model",
        "compare_models",
        "export_model",
    ]
    actions = [ResolutionAction.apply(k) for k in keys] + [
        ResolutionAction.create("model", "tune_model", [("adjust_depth", "Adjust depth")])
    ]
    model = resolve_model("custom", actions)
    profile = SynthProfile(
        archetype=Archetype.NONLINEAR,
        n_users=2,
        tasks=("classification",),
        dwell_min_ms=1_000,
        dwell_max_ms=20_000,
        seed=4,
    )
    result = generate_bundle(model, profile)
    custom = export_metrics(
        compute_metric_set(result.bundle),
        component_attitudes(result.ratings, model),
        descriptive(result.bundle, sus_scores_by_user(result.sus)),
    )
    other = build_export("visus", n_users=2, seed=5)[4]
    html = render_between([custom, other])
    assert "tune_model" in html
    assert "adjust_depth" in html
    # created level-2 keys never become alignment panels
    assert 'data-l2="tune_model"' not in html

"""Reference table, model resolution, and cross-system alignment."""
import json

import pytest
from hypothesis import given, strategies as st

from evalcards.fixtures import fixture_model, fixture_text
from evalcards.serialize import canonical_json
from evalcards.taxonomy import (
    ActionKind,
    ComponentModel,
    ComponentSpec,
    ConfigError,
    DuplicateComponentId,
    DuplicateTarget,
    EmptyModel,
    FewerThanTwoModels,
    InvalidAction,
    Level1,
    MissingL2Action,
    CreatedL2Collision,
    ResolutionAction,
    UnknownL2Target,
    align_models,
    config_skeleton,
    load_reference,
    parse_config,
    resolution_warnings,
    resolve_model,
    slugify,
)

REFERENCE_KEYS = [
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


def apply_all_actions():
    return [ResolutionAction.apply(key) for key in REFERENCE_KEYS]


# --------------------------------------------------------------------------
# Reference table
# --------------------------------------------------------------------------


def test_reference_has_nine_entries_in_table_order():
    ref = load_reference()
    assert len(ref) == 9
    assert [r.l2_id for r in ref] == REFERENCE_KEYS


def test_reference_l1_distribution():
    ref = load_reference()
    counts = {l1: sum(1 for r in ref if r.l1_id is l1) for l1 in Level1}
    assert counts == {Level1.DATA: 4, Level1.PROBLEM: 1, Level1.MODEL: 4}


def test_reference_explain_model_description():
    entry = {r.l2_id: r for r in load_reference()}["explain_model"]
    assert entry.l1_id is Level1.MODEL
    assert "performance, cases for making accurate or inaccurate predictions" in entry.description


def test_reference_pairs_unique_and_constant():
    ref = load_reference()
    assert len({(r.l1_id, r.l2_id) for r in ref}) == 9
    assert load_reference() == ref


# --------------------------------------------------------------------------
# Resolution
# --------------------------------------------------------------------------

VISUS_EXPECTED = {
    # comp_id -> (l1, l2)
    "open_dataset": (Level1.DATA, "open_dataset"),
    "explore_dataset": (Level1.DATA, "explore_dataset"),
    "select_target_metric": (Level1.PROBLEM, "specify_problem"),
    "define_problem_type": (Level1.PROBLEM, "specify_problem"),
    "advanced_configurations": (Level1.PROBLEM, "specify_problem"),
    "see_confusion_matrix": (Level1.MODEL, "explain_model"),
    "see_rule_matrix": (Level1.MODEL, "explain_model"),
    "see_confusion_scatter_plot": (Level1.MODEL, "explain_model"),
    "see_pdp": (Level1.MODEL, "explain_model"),
    "compare_models": (Level1.MODEL, "compare_models"),
    "export_model": (Level1.MODEL, "export_model"),
}


def test_visus_fixture_resolves_to_eleven_components():
    model = fixture_model("visus")
    assert len(model) == 11
    got = {c.comp_id: (c.l1_id, c.l2_id) for c in model.components}
    assert got == VISUS_EXPECTED


def test_companion_fixture_counts():
    assert len(fixture_model("distil")) == 6
    assert len(fixture_model("tworavens")) == 18


def test_identity_resolution_applies_all_nine():
    model = resolve_model("identity", apply_all_actions())
    assert len(model) == 9
    # an applied component's id is the level-2 key itself
    assert model.comp_ids == tuple(REFERENCE_KEYS)
    assert all(c.origin is ActionKind.APPLY for c in model.components)


def test_drop_everything_is_an_empty_model():
    actions = [ResolutionAction.drop(key) for key in REFERENCE_KEYS]
    with pytest.raises(EmptyModel):
        resolve_model("nothing", actions)


def test_unknown_target_rejected():
    actions = apply_all_actions() + [ResolutionAction.apply("gather_requirements")]
    with pytest.raises(UnknownL2Target):
        resolve_model("x", actions)


def test_duplicate_target_rejected():
    actions = apply_all_actions() + [ResolutionAction.drop("open_dataset")]
    with pytest.raises(DuplicateTarget):
        resolve_model("x", actions)


def test_missing_l2_is_an_error_naming_the_key():
    actions = [ResolutionAction.apply(k) for k in REFERENCE_KEYS if k != "augment_dataset"]
    with pytest.raises(MissingL2Action, match="augment_dataset"):
        resolve_model("x", actions)


def test_created_l2_must_not_collide_with_reference():
    actions = apply_all_actions() + [
        ResolutionAction.create("model", "explain_model", ["Something"])
    ]
    with pytest.raises(CreatedL2Collision):
        resolve_model("x", actions)


def test_duplicate_component_ids_rejected():
    actions = [
        ResolutionAction.subdivide("open_dataset", [("dup", "A"), ("dup2", "B")]),
        ResolutionAction.subdivide("explore_dataset", [("dup", "C"), ("dup3", "D")]),
    ] + [ResolutionAction.drop(k) for k in REFERENCE_KEYS[2:]]
    with pytest.raises(DuplicateComponentId):
        resolve_model("x", actions)


def test_subdivide_requires_two_children():
    with pytest.raises(InvalidAction):
        ResolutionAction.subdivide("explain_model", ["only one"])


def test_create_requires_l1_l2_and_components():
    with pytest.raises(InvalidAction):
        ResolutionAction(ActionKind.CREATE, new_l1=Level1.MODEL, new_l2="tune_model")
    with pytest.raises(InvalidAction):
        ResolutionAction(ActionKind.CREATE, new_l2="tune_model", new_components=(ComponentSpec("a", "A"),))


def test_slugify():
    assert slugify("See PDPs") == "see_pdps"
    assert slugify("Select a target metric!") == "select_a_target_metric"


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@st.composite
def action_lists(draw):
    actions = []
    expected = 0
    for i, key in enumerate(REFERENCE_KEYS):
        kind = draw(st.sampled_from(["apply", "drop", "subdivide"]))
        if kind == "apply":
            actions.append(ResolutionAction.apply(key))
            expected += 1
        elif kind == "drop":
            actions.append(ResolutionAction.drop(key))
        else:
            k = draw(st.integers(min_value=2, max_value=4))
            specs = [ComponentSpec(f"{key}_part{j}", f"{key} part {j}") for j in range(k)]
            actions.append(ResolutionAction.subdivide(key, specs))
            expected += k
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        k = draw(st.integers(min_value=1, max_value=3))
        specs = [ComponentSpec(f"extra{i}_c{j}", f"Extra {i} component {j}") for j in range(k)]
        actions.append(ResolutionAction.create("model", f"extra_l2_{i}", specs))
        expected += k
    return actions, expected


@given(action_lists())
def test_component_count_matches_bruteforce_recount(case):
    actions, expected = case
    if expected == 0:
        with pytest.raises(EmptyModel):
            resolve_model("rand", actions)
        return
    model = resolve_model("rand", actions)
    assert len(model) == expected


@given(action_lists())
def test_resolution_is_deterministic(case):
    actions, expected = case
    if expected == 0:
        return
    first = resolve_model("rand", actions)
    second = resolve_model("rand", actions)
    assert first == second
    assert first.comp_ids == second.comp_ids


@given(action_lists())
def test_model_serialization_round_trips(case):
    actions, expected = case
    if expected == 0:
        return
    model = resolve_model("rand", actions)
    assert ComponentModel.from_dict(json.loads(canonical_json(model.to_dict()))) == model


@given(action_lists(), action_lists())
def test_alignment_never_invents_components(case_a, case_b):
    actions_a, n_a = case_a
    actions_b, n_b = case_b
    if n_a == 0 or n_b == 0:
        return
    model_a = resolve_model("sys_a", actions_a)
    model_b = resolve_model("sys_b", actions_b)
    amap = align_models([model_a, model_b])
    owned = {"sys_a": set(model_a.comp_ids), "sys_b": set(model_b.comp_ids)}
    seen = {"sys_a": [], "sys_b": []}
    for row in amap.rows:
        for system, comps in row.systems.items():
            assert set(comps) <= owned[system]
            seen[system].extend(comps)
    for system, residue in amap.unaligned.items():
        for _, comps in residue:
            assert set(comps) <= owned[system]
            seen[system].extend(comps)
    for system in owned:
        # each component occurs exactly once across rows + residue
        assert sorted(seen[system]) == sorted(owned[system])


# --------------------------------------------------------------------------
# Alignment
# --------------------------------------------------------------------------


def test_alignment_visus_vs_identity_explain_row():
    amap = align_models([fixture_model("visus"), resolve_model("identity", apply_all_actions())])
    row = amap.row("explain_model")
    assert row.systems["visus"] == (
        "see_confusion_matrix",
        "see_rule_matrix",
        "see_confusion_scatter_plot",
        "see_pdp",
    )
    assert row.systems["identity"] == ("explain_model",)


def test_alignment_of_identical_models_is_identity_pairing():
    a = resolve_model("left", apply_all_actions())
    b = resolve_model("right", apply_all_actions())
    amap = align_models([a, b])
    assert len(amap.rows) == 9
    for row in amap.rows:
        assert row.systems["left"] == row.systems["right"] == (row.l2_id,)
    assert amap.unaligned == {"left": (), "right": ()}


def test_alignment_disjoint_models_has_one_sided_rows():
    keep_a = {"open_dataset", "explore_dataset"}
    keep_b = {"compare_models", "export_model"}
    a = resolve_model(
        "a",
        [ResolutionAction.apply(k) if k in keep_a else ResolutionAction.drop(k) for k in REFERENCE_KEYS],
    )
    b = resolve_model(
        "b",
        [ResolutionAction.apply(k) if k in keep_b else ResolutionAction.drop(k) for k in REFERENCE_KEYS],
    )
    amap = align_models([a, b])
    for row in amap.rows:
        assert len(row.systems) == 1
    assert amap.unaligned == {"a": (), "b": ()}


def test_alignment_requires_two_models():
    with pytest.raises(FewerThanTwoModels):
        align_models([fixture_model("visus")])


def test_created_l2_lands_in_unaligned_residue():
    actions = apply_all_actions() + [
        ResolutionAction.create("model", "tune_model", [("adjust_depth", "Adjust depth")])
    ]
    model = resolve_model("custom", actions)
    amap = align_models([model, fixture_model("visus")])
    assert amap.unaligned["custom"] == (("tune_model", ("adjust_depth",)),)
    assert all(row.l2_id != "tune_model" for row in amap.rows)


# --------------------------------------------------------------------------
# Configuration documents
# --------------------------------------------------------------------------


def test_parse_config_round_trip_on_fixture():
    system_name, actions = parse_config(fixture_text("visus"))
    assert system_name == "visus"
    assert resolve_model(system_name, actions) == fixture_model("visus")


def test_skeleton_is_unassigned_until_edited():
    text = config_skeleton("draft")
    with pytest.raises(ConfigError, match="no action chosen"):
        parse_config(text)


def test_skeleton_becomes_valid_once_actions_chosen():
    text = config_skeleton("draft").replace("unassigned", "apply")
    system_name, actions = parse_config(text)
    assert len(resolve_model(system_name, actions)) == 9


def test_config_rejects_unknown_keys():
    text = fixture_text("distil") + "\nmystery_key: apply\n"
    with pytest.raises(ConfigError, match="mystery_key"):
        parse_config(text)


def test_config_subdivide_needs_component_list():
    text = config_skeleton("x").replace("open_dataset: unassigned", "open_dataset: subdivide")
    with pytest.raises(ConfigError, match="component list"):
        parse_config(text)


APPLIED = config_skeleton("x").replace("unassigned", "apply")


@pytest.mark.parametrize(
    "text, message",
    [
        # the line of the key or item at fault, from the YAML nodes
        (APPLIED + "mystery_key: apply\n", "line 46: unknown top-level key 'mystery_key'"),
        (
            APPLIED.replace("open_dataset: apply", "open_dataset:\n  subdivide: [{id: a, 1: b, x: c}]"),
            r"line 21: open_dataset: unknown component keys \[1, 'x'\]",
        ),
        (
            APPLIED + "create:\n  - l1: model\n    l2: tune\n    components: [a]\n"
            "  - l1: moon\n    l2: other\n    components: [b]\n",
            r"line 50: create\[1\]: unknown level-1 id 'moon'",
        ),
        ("system_name: x\nopen_dataset: [\n", "line 3, column 1: not valid YAML"),
        ("system_name: x\x01\n", "character 14: not valid YAML"),
    ],
    ids=["unknown-key", "spec-keys-of-mixed-types", "create-item", "yaml-syntax", "yaml-character"],
)
def test_config_error_names_its_location(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_create_alongside_retained_l1_is_flagged_not_fatal():
    actions = apply_all_actions() + [
        ResolutionAction.create("model", "tune_model", [("adjust_depth", "Adjust depth")])
    ]
    warnings = resolution_warnings(actions)
    assert len(warnings) == 1 and "tune_model" in warnings[0]
    resolve_model("ok", actions)  # still resolves


def test_create_under_fully_dropped_l1_not_flagged():
    actions = [
        ResolutionAction.apply(k) if k != "specify_problem" else ResolutionAction.drop(k)
        for k in REFERENCE_KEYS
    ] + [ResolutionAction.create("problem", "frame_question", [("frame", "Frame a question")])]
    assert resolution_warnings(actions) == []

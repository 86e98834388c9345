"""Effort attribution, transition matrices, linearity, descriptive stats."""
import numpy as np
import pytest

from evalcards.fixtures import fixture_model
from evalcards.metrics import (
    ComponentNotInOrder,
    MatrixLevel,
    UnknownLevel,
    attribute_time,
    compute_effort,
    compute_metric_set,
    descriptive,
    linearity,
    transition_matrix,
)
from evalcards.synth import Archetype, SplitMix64, SynthProfile, generate_bundle
from evalcards.taxonomy import ResolutionAction, resolve_model
from evalcards.telemetry import Session, SessionBundle, parse_timestamp

from oracles import oracle_attribute_time, oracle_linearity_counts, oracle_pair_counts

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


@pytest.fixture(scope="module")
def identity_model():
    return resolve_model("identity", [ResolutionAction.apply(k) for k in REFERENCE_KEYS])


@pytest.fixture(scope="module")
def visus_model():
    return fixture_model("visus")


def make_session(model, comp_ids, times_ms, user_id="u1", task_id="t"):
    comp_idx = [model.index[c] for c in comp_ids]
    return Session(user_id=user_id, task_id=task_id, model=model, ts_ms=times_ms, comp_idx=comp_idx)


def random_bundle(model, n_users=8, seed=99, archetype=Archetype.NONLINEAR):
    profile = SynthProfile(
        archetype=archetype,
        n_users=n_users,
        tasks=("classification", "regression"),
        dwell_min_ms=250,
        dwell_max_ms=20 * 60 * 1000,  # some gaps exceed the default idle cap
        seed=seed,
    )
    return generate_bundle(model, profile).bundle


# --------------------------------------------------------------------------
# Time attribution
# --------------------------------------------------------------------------


def test_attribution_example(identity_model):
    session = make_session(
        identity_model,
        ["open_dataset", "explore_dataset", "open_dataset"],
        [0, 60_000, 90_000],
    )
    attributed = attribute_time(session)
    assert attributed == {"open_dataset": 60_000, "explore_dataset": 30_000}
    assert session.span_ms == 90_000
    assert sum(attributed.values()) == session.span_ms  # last record contributes 0


def test_attribution_single_record_session(identity_model):
    session = make_session(identity_model, ["open_dataset"], [12345])
    assert attribute_time(session) == {"open_dataset": 0}


def test_attribution_idle_cap_truncates_long_gaps(identity_model):
    session = make_session(
        identity_model,
        ["open_dataset", "explore_dataset", "export_model"],
        [0, 30 * 60 * 1000, 31 * 60 * 1000],
    )
    capped = attribute_time(session, idle_cap_ms=10 * 60 * 1000)
    assert capped["open_dataset"] == 10 * 60 * 1000
    assert capped["explore_dataset"] == 60 * 1000


def test_conservation_on_seeded_sessions(visus_model):
    bundle = random_bundle(visus_model, n_users=20, seed=7)
    for session in bundle.sessions:
        attributed = attribute_time(session, idle_cap_ms=None)
        # independent oracle: telescoping sum of raw timestamp diffs
        ts = [r.ts_ms for r in session.records]
        oracle_span = sum(b - a for a, b in zip(ts, ts[1:]))
        assert sum(attributed.values()) == oracle_span == session.span_ms


def test_effort_profile_covers_all_components_and_counts_visits(visus_model):
    bundle = random_bundle(visus_model, n_users=3, seed=21)
    effort = compute_effort(bundle, idle_cap_ms=None)
    assert tuple(effort.totals_ms) == visus_model.comp_ids
    assert sum(effort.visit_counts.values()) == sum(len(s.records) for s in bundle.sessions)
    for row in effort.per_session:
        assert set(row.per_comp_ms) == set(visus_model.comp_ids)


# --------------------------------------------------------------------------
# Transition matrices
# --------------------------------------------------------------------------


def test_matrix_simple_aba(identity_model):
    session = make_session(
        identity_model, ["open_dataset", "explore_dataset", "open_dataset"], [0, 1000, 2000]
    )
    matrix = transition_matrix([session], identity_model)
    i = matrix.order.index("open_dataset")
    j = matrix.order.index("explore_dataset")
    assert matrix.counts[i, j] == 1
    assert matrix.counts[j, i] == 1
    assert np.trace(matrix.counts) == 0
    assert matrix.total == 2


def test_matrix_collapse_repeats(identity_model):
    session = make_session(
        identity_model, ["open_dataset", "open_dataset", "explore_dataset"], [0, 1000, 2000]
    )
    collapsed = transition_matrix([session], identity_model, collapse_repeats=True)
    assert collapsed.total == 1
    assert np.trace(collapsed.counts) == 0
    raw = transition_matrix([session], identity_model)
    assert raw.total == 2
    i = raw.order.index("open_dataset")
    assert raw.counts[i, i] == 1


def test_matrix_total_invariant(visus_model):
    bundle = random_bundle(visus_model, n_users=10, seed=13)
    matrix = transition_matrix(bundle.sessions, visus_model)
    assert matrix.total == sum(len(s.records) - 1 for s in bundle.sessions)

    collapsed = transition_matrix(bundle.sessions, visus_model, collapse_repeats=True)
    collapsed_lengths = []
    for session in bundle.sessions:
        ids = [r.comp_id for r in session.records]
        deduped = [ids[0]] + [b for a, b in zip(ids, ids[1:]) if a != b]
        collapsed_lengths.append(len(deduped))
    assert collapsed.total == sum(n - 1 for n in collapsed_lengths)
    assert np.trace(collapsed.counts) == 0


def test_l2_matrix_equals_block_sum_of_l3(visus_model):
    for seed in (3, 17, 29):
        bundle = random_bundle(visus_model, n_users=6, seed=seed)
        l3 = transition_matrix(bundle.sessions, visus_model, MatrixLevel.L3)
        l2 = transition_matrix(bundle.sessions, visus_model, MatrixLevel.L2)
        # oracle: block-sum the L3 counts under the component -> l2 partition
        l2_of = {c.comp_id: c.l2_id for c in visus_model.components}
        pos = {key: i for i, key in enumerate(l2.order)}
        blocks = np.zeros_like(l2.counts)
        for i, src in enumerate(l3.order):
            for j, dst in enumerate(l3.order):
                blocks[pos[l2_of[src]], pos[l2_of[dst]]] += l3.counts[i, j]
        assert np.array_equal(l2.counts, blocks)


@pytest.mark.parametrize("system", ["visus", "distil", "tworavens"])
@pytest.mark.parametrize("collapse", [False, True])
def test_matrices_match_pair_oracle(system, collapse):
    model = fixture_model(system)
    bundle = random_bundle(model, n_users=4, seed=41)
    metric_set = compute_metric_set(bundle, collapse_repeats=collapse)
    levels = {
        MatrixLevel.L3: (metric_set.l3_matrix, model.comp_ids, lambda c: c.comp_id),
        MatrixLevel.L2: (metric_set.l2_matrix, model.l2_order, lambda c: c.l2_id),
    }
    for level, (computed, order, unit) in levels.items():
        matrix = transition_matrix(bundle.sessions, model, level, collapse_repeats=collapse)
        unit_of = {c.comp_id: unit(c) for c in model.components}
        sequences = [[unit_of[r.comp_id] for r in s.records] for s in bundle.sessions]
        if collapse:
            sequences = [
                [x for i, x in enumerate(seq) if i == 0 or seq[i - 1] != x] for seq in sequences
            ]
        expected = oracle_pair_counts(sequences, order)
        assert matrix.order == order
        assert matrix.counts.tolist() == expected
        assert computed.counts.tolist() == expected
    if len(model.l2_order) < len(model):
        # L2 merges distinct components into self pairs, so collapsing at L2
        # is not the roll-up of the collapsed L3 matrix
        raw = compute_metric_set(bundle)
        assert np.trace(raw.l2_matrix.counts) > np.trace(raw.l3_matrix.counts)


def test_unknown_level_rejected(identity_model):
    with pytest.raises(UnknownLevel):
        transition_matrix([], identity_model, level="L7")


# --------------------------------------------------------------------------
# Linearity
# --------------------------------------------------------------------------


def test_linearity_forward_session_is_one(identity_model):
    order = identity_model.comp_ids
    session = make_session(identity_model, list(order), list(range(0, 9000, 1000)))
    index = linearity(session, order)
    assert index.value == 1.0
    assert index.backward_count == 0
    assert index.forward_count == len(order) - 1


def test_linearity_reverse_session_is_zero(identity_model):
    order = identity_model.comp_ids
    session = make_session(identity_model, list(reversed(order)), list(range(0, 9000, 1000)))
    index = linearity(session, order)
    assert index.value == 0.0
    assert index.forward_count == 0


def test_linearity_single_component_defined_as_one(identity_model):
    session = make_session(identity_model, ["open_dataset", "open_dataset"], [0, 1000])
    index = linearity(session, identity_model.comp_ids)
    assert index.value == 1.0
    assert index.self_count == 1


def test_linearity_matches_exhaustive_pairwise_oracle(visus_model):
    order = visus_model.comp_ids
    pos = {c: i for i, c in enumerate(order)}
    rng = SplitMix64(555)
    for _ in range(200):
        n = rng.randint(2, 40)
        ids = [order[rng.randint(0, len(order) - 1)] for _ in range(n)]
        index = linearity(ids, order)
        forward = backward = selfs = 0
        for a, b in zip(ids, ids[1:]):
            if a == b:
                selfs += 1
            elif pos[b] > pos[a]:
                forward += 1
            else:
                backward += 1
        assert (index.forward_count, index.backward_count, index.self_count) == (
            forward,
            backward,
            selfs,
        )
        expected = forward / (forward + backward) if forward + backward else 1.0
        assert index.value == expected
        assert 0.0 <= index.value <= 1.0


def test_pooled_linearity_equals_sum_of_session_linearities(visus_model):
    bundle = random_bundle(visus_model, n_users=5, seed=31)
    order = visus_model.comp_ids
    pooled = compute_metric_set(bundle).pooled_linearity
    forward = backward = selfs = 0
    for session in bundle.sessions:
        idx = linearity(session, order)
        forward += idx.forward_count
        backward += idx.backward_count
        selfs += idx.self_count
    assert (pooled.forward_count, pooled.backward_count, pooled.self_count) == (
        forward,
        backward,
        selfs,
    )


def test_linearity_unknown_component_rejected(identity_model):
    with pytest.raises(ComponentNotInOrder):
        linearity(["open_dataset", "mystery"], identity_model.comp_ids)


# --------------------------------------------------------------------------
# Descriptive stats
# --------------------------------------------------------------------------


def test_completion_time_is_span(identity_model):
    session = make_session(
        identity_model,
        ["open_dataset", "export_model"],
        [parse_timestamp("2024-01-01T00:00:00Z"), parse_timestamp("2024-01-01T01:15:00Z")],
    )
    bundle = SessionBundle(model=identity_model, sessions=(session,))
    stats = descriptive(bundle, {"u1": 72.5})
    assert stats.rows[0].completion_ms == 4_500_000
    assert stats.rows[0].steps == 2
    assert stats.sus == {"u1": 72.5}
    assert stats.missing_sus == ()


def test_descriptive_missing_sus_flagged_behavior_unaffected(visus_model):
    bundle = random_bundle(visus_model, n_users=4, seed=41)
    stats = descriptive(bundle, {})
    assert len(stats.rows) == 8
    assert stats.missing_sus == bundle.user_ids
    assert stats.sus == {}


# --------------------------------------------------------------------------
# Bundle-level assembly
# --------------------------------------------------------------------------


def test_metrics_are_invariant_under_session_order(visus_model):
    bundle = random_bundle(visus_model, n_users=4, seed=77)
    reordered = SessionBundle(model=visus_model, sessions=tuple(reversed(bundle.sessions)))
    a = compute_metric_set(bundle, idle_cap_ms=None)
    b = compute_metric_set(reordered, idle_cap_ms=None)
    assert np.array_equal(a.l3_matrix.counts, b.l3_matrix.counts)
    assert np.array_equal(a.l2_matrix.counts, b.l2_matrix.counts)
    assert a.effort.totals_ms == b.effort.totals_ms
    assert a.effort.visit_counts == b.effort.visit_counts
    assert a.pooled_linearity == b.pooled_linearity
    assert sorted(s.user_id for s in a.session_linearity) == sorted(
        s.user_id for s in b.session_linearity
    )


@pytest.mark.parametrize("idle_cap_ms", [None, 10 * 60 * 1000, 0])
def test_metric_set_matches_per_record_loops(visus_model, idle_cap_ms):
    bundle = random_bundle(visus_model, n_users=6, seed=58)
    order = visus_model.comp_ids
    metric_set = compute_metric_set(bundle, idle_cap_ms=idle_cap_ms)
    effort = metric_set.effort
    totals = {c: 0 for c in order}
    visits = {c: 0 for c in order}
    pooled = [0, 0, 0]
    for session, row, lin in zip(bundle.sessions, effort.per_session, metric_set.session_linearity):
        records = list(session.records)
        expected = oracle_attribute_time(records, idle_cap_ms)
        assert attribute_time(session, idle_cap_ms) == expected
        assert list(attribute_time(session, idle_cap_ms)) == list(expected)  # key order too
        assert row.per_comp_ms == {c: expected.get(c, 0) for c in order}
        for c, ms in row.per_comp_ms.items():
            totals[c] += ms
        for r in records:
            visits[r.comp_id] += 1
        counts = oracle_linearity_counts(session.comp_sequence(), order)
        assert (lin.index.forward_count, lin.index.backward_count, lin.index.self_count) == counts
        assert linearity(session, order) == lin.index
        pooled = [a + b for a, b in zip(pooled, counts)]
    assert effort.totals_ms == totals
    assert effort.visit_counts == visits
    pooled_index = metric_set.pooled_linearity
    assert [pooled_index.forward_count, pooled_index.backward_count, pooled_index.self_count] == pooled
    # every count reaches the export as a Python int
    assert all(type(v) is int for row in effort.per_session for v in row.per_comp_ms.values())
    assert all(type(v) is int for v in (*effort.totals_ms.values(), *effort.visit_counts.values()))


def test_linearity_of_session_in_another_order(visus_model):
    bundle = random_bundle(visus_model, n_users=3, seed=59)
    order = list(reversed(visus_model.comp_ids[:4])) + list(visus_model.comp_ids[4:])
    for session in bundle.sessions:
        index = linearity(session, order)
        counts = oracle_linearity_counts(session.comp_sequence(), order)
        assert (index.forward_count, index.backward_count, index.self_count) == counts
    session = bundle.sessions[0]
    with pytest.raises(ComponentNotInOrder, match=session.comp_sequence()[0]):
        linearity(session, [c for c in order if c != session.comp_sequence()[0]])


def test_metric_set_records_options(visus_model):
    bundle = random_bundle(visus_model, n_users=2, seed=1)
    metric_set = compute_metric_set(bundle, idle_cap_ms=123_000, collapse_repeats=True)
    assert metric_set.idle_cap_ms == 123_000
    assert metric_set.collapse_repeats is True
    assert np.trace(metric_set.l3_matrix.counts) == 0
    # linearity counts the uncollapsed sequence even when the matrices collapse
    uncollapsed = transition_matrix(bundle.sessions, visus_model)
    assert metric_set.pooled_linearity.self_count == np.trace(uncollapsed.counts) > 0

"""
Synthesizing seeded session bundles
===================================

Generates bundles for the four behavioral archetypes and shows that the
same seed always reproduces the same data, byte for byte.
"""
from evalcards.fixtures import fixture_model
from evalcards.metrics import compute_metric_set
from evalcards.synth import Archetype, SynthProfile, generate_bundle
from evalcards.telemetry import session_to_jsonl

model = fixture_model("visus")

###############################################################################
# One profile per archetype. The iterative profile needs the component pair
# that users bounce between.

profiles = {
    "linear": SynthProfile(
        archetype=Archetype.LINEAR, n_users=5, tasks=("classification",),
        dwell_min_ms=2_000, dwell_max_ms=45_000, seed=7,
    ),
    "reversed": SynthProfile(
        archetype=Archetype.REVERSED, n_users=5, tasks=("classification",),
        dwell_min_ms=2_000, dwell_max_ms=45_000, seed=7,
    ),
    "nonlinear": SynthProfile(
        archetype=Archetype.NONLINEAR, n_users=5, tasks=("classification",),
        dwell_min_ms=2_000, dwell_max_ms=45_000, seed=7,
    ),
    "iterative": SynthProfile(
        archetype=Archetype.ITERATIVE, n_users=5, tasks=("classification",),
        dwell_min_ms=2_000, dwell_max_ms=45_000, seed=7,
        iteration_pair=("explore_dataset", "select_target_metric"),
    ),
}

###############################################################################
# Pooled linearity separates the archetypes cleanly: 1.0 for linear, 0.0 for
# reversed, something in between for the random walk.

print(f"{'archetype':12s} {'sessions':>8s} {'records':>8s} {'linearity':>10s}")
for name, profile in profiles.items():
    result = generate_bundle(model, profile)
    metric_set = compute_metric_set(result.bundle, idle_cap_ms=None)
    records = sum(len(s.ts_ms) for s in result.bundle.sessions)
    print(
        f"{name:12s} {len(result.bundle):8d} {records:8d} "
        f"{metric_set.pooled_linearity.value:10.4f}"
    )

###############################################################################
# Determinism: the same (model, profile) pair serializes identically. Each
# session's ``other`` payloads travel beside it, in ``result.others``.

first = generate_bundle(model, profiles["linear"])
second = generate_bundle(model, profiles["linear"])
same = all(
    session_to_jsonl(a, a_other) == session_to_jsonl(b, b_other)
    for a, a_other, b, b_other in zip(
        first.bundle.sessions, first.others, second.bundle.sessions, second.others
    )
)
print(f"\nsame seed, byte-identical logs: {same}")

###############################################################################
# A peek at one generated log line.

print("\nfirst record of u01_classification:")
print(session_to_jsonl(first.bundle.sessions[0], first.others[0]).splitlines()[0])

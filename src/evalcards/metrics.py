"""Behavioral metrics derived from session bundles.

Time attribution treats each log record as the moment the user *entered* a
component: the interval between a record and the next belongs to the
earlier record's component, and the final record contributes nothing. That
is the only reading that conserves the session span exactly without a
session-end marker. Unattended gaps can be truncated with an idle cap
(default 10 minutes); the cap is recorded in the metric options so its
effect is always visible.

Task completion time runs from a session's first record to its last. An
alternative (ending the clock at the first model-export record) is a
documented option builders may prefer, but it is not what this module
computes.

Linearity quantifies staged versus back-and-forth usage: over all non-self
transitions, the fraction that move *forward* in the canonical component
order. 1.0 means strictly staged, 0.0 fully backward; a session with no
non-self transitions is vacuously linear (1.0). Linearity always counts the
uncollapsed record sequence, also when ``collapse_repeats`` collapses the
transition matrices: its pooled self count is the trace of the uncollapsed
L3 matrix, so it can be positive while the collapsed diagonal is 0.

Every quantity is computed from the session arrays (``ts_ms``, ``comp_idx``;
see :mod:`evalcards.telemetry`), stacked end to end for the whole bundle so
that no consecutive pair crosses a session boundary. Effort sums the capped
gaps ``min(diff(ts_ms), cap)`` per (session, component) in int64, visits
are a ``bincount`` of ``comp_idx``, the L3 matrix a ``bincount`` of
(source, destination) pairs, and linearity the signs of
``comp_idx[k + 1] - comp_idx[k]``. All counts are exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EvalCardsError
from .export import DEFAULT_IDLE_CAP_MS
from .taxonomy import ComponentModel
from .telemetry import Session, SessionBundle

__all__ = [
    "DEFAULT_IDLE_CAP_MS",
    "MatrixLevel",
    "EffortProfile",
    "SessionEffort",
    "TransitionMatrix",
    "LinearityIndex",
    "SessionLinearity",
    "SessionStats",
    "DescriptiveStats",
    "MetricSet",
    "attribute_time",
    "compute_effort",
    "transition_matrix",
    "linearity",
    "descriptive",
    "compute_metric_set",
]


class MetricsError(EvalCardsError):
    pass


class UnknownLevel(MetricsError):
    pass


class ComponentNotInOrder(MetricsError):
    pass


class MatrixLevel(str, Enum):
    L3 = "L3"
    L2 = "L2"

    @classmethod
    def parse(cls, value: "MatrixLevel | str") -> "MatrixLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise UnknownLevel(f"unknown matrix level {value!r} (expected L3 or L2)") from None


# --------------------------------------------------------------------------
# Effort
# --------------------------------------------------------------------------


class _Stack:
    """Every session's columns end to end, and the consecutive pairs of
    records within one session: ``src``/``dst`` component indices, the
    ``gaps`` between their instants, and the session each pair belongs to."""

    def __init__(self, sessions: Sequence[Session]):
        self.n_sessions = len(sessions)
        if sessions:
            ts = np.concatenate([s.ts_ms for s in sessions])
            self.idx = np.concatenate([s.comp_idx for s in sessions])
        else:
            ts, self.idx = np.zeros(0, np.int64), np.zeros(0, np.int32)
        owner = np.repeat(np.arange(self.n_sessions), [len(s.ts_ms) for s in sessions])
        within = owner[1:] == owner[:-1]
        self.src = self.idx[:-1][within]
        self.dst = self.idx[1:][within]
        self.gaps = np.diff(ts)[within]
        self.pair_owner = owner[:-1][within]

    def effort_ms(self, n: int, idle_cap_ms: int | None) -> np.ndarray:
        """(session, component) attributed ms: each gap goes to its source."""
        gaps = self.gaps if idle_cap_ms is None else np.minimum(self.gaps, idle_cap_ms)
        out = np.zeros(self.n_sessions * n, dtype=np.int64)
        np.add.at(out, self.pair_owner * n + self.src, gaps)
        return out.reshape(self.n_sessions, n)

    def pair_counts(self, n: int) -> np.ndarray:
        """L3 counts of consecutive record pairs."""
        return np.bincount(self.src * n + self.dst, minlength=n * n).reshape(n, n)

    def moves(self) -> np.ndarray:
        """Per session: (backward, self, forward) counts in component order."""
        step = np.sign(self.dst - self.src) + 1
        return np.bincount(self.pair_owner * 3 + step, minlength=self.n_sessions * 3).reshape(
            self.n_sessions, 3
        )


def attribute_time(session: Session, idle_cap_ms: int | None = None) -> dict[str, int]:
    """Attribute the session span to components, in milliseconds.

    With no cap the per-component sums add up to the session span exactly.
    With a cap, any inter-record gap longer than ``idle_cap_ms`` is
    truncated to the cap before attribution. Keys are the session's
    components in order of first appearance.
    """
    comp_ids = session.model.comp_ids
    per_comp = _Stack((session,)).effort_ms(len(comp_ids), idle_cap_ms)[0].tolist()
    return {comp_ids[i]: per_comp[i] for i in dict.fromkeys(session.comp_idx.tolist())}


@dataclass(frozen=True)
class SessionEffort:
    user_id: str
    task_id: str
    per_comp_ms: Mapping[str, int]

    @property
    def attributed_ms(self) -> int:
        return sum(self.per_comp_ms.values())


@dataclass(frozen=True)
class EffortProfile:
    """Bundle-level time-and-visits profile, keyed in canonical order."""

    totals_ms: Mapping[str, int]
    visit_counts: Mapping[str, int]
    per_session: tuple[SessionEffort, ...]
    idle_cap_ms: int | None


def compute_effort(bundle: SessionBundle, idle_cap_ms: int | None = None) -> EffortProfile:
    return _effort(bundle, _Stack(bundle.sessions), idle_cap_ms)


def _effort(bundle: SessionBundle, stack: _Stack, idle_cap_ms: int | None) -> EffortProfile:
    comp_ids = bundle.model.comp_ids
    per_session = stack.effort_ms(len(comp_ids), idle_cap_ms)
    rows = tuple(
        SessionEffort(user_id=s.user_id, task_id=s.task_id, per_comp_ms=dict(zip(comp_ids, row)))
        for s, row in zip(bundle.sessions, per_session.tolist())
    )
    visits = np.bincount(stack.idx, minlength=len(comp_ids))
    return EffortProfile(
        totals_ms=dict(zip(comp_ids, per_session.sum(axis=0).tolist())),
        visit_counts=dict(zip(comp_ids, visits.tolist())),
        per_session=rows,
        idle_cap_ms=idle_cap_ms,
    )


# --------------------------------------------------------------------------
# Transition matrices
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """From-to counts: rows are source units, columns destinations."""

    order: tuple[str, ...]
    counts: np.ndarray
    level: MatrixLevel

    def __post_init__(self):
        n = len(self.order)
        if self.counts.shape != (n, n):
            raise MetricsError(f"counts shape {self.counts.shape} does not match order size {n}")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        return {
            "level": self.level.value,
            "order": list(self.order),
            "counts": self.counts.tolist(),
        }


def _at_level(
    l3_counts: np.ndarray, model: ComponentModel, level: MatrixLevel, collapse_repeats: bool
) -> TransitionMatrix:
    """The matrix at ``level``, derived from the uncollapsed L3 pair counts."""
    if level is MatrixLevel.L3:
        order = model.comp_ids
        counts = l3_counts.copy()
    else:
        order = model.l2_order
        rollup = np.array(
            [[comp.l2_id == l2_id for l2_id in order] for comp in model.components], dtype=np.int64
        )
        counts = rollup.T @ l3_counts @ rollup
    if collapse_repeats:
        np.fill_diagonal(counts, 0)
    return TransitionMatrix(order=tuple(order), counts=counts, level=level)


def transition_matrix(
    sessions: Iterable[Session],
    model: ComponentModel,
    level: MatrixLevel | str = MatrixLevel.L3,
    collapse_repeats: bool = False,
) -> TransitionMatrix:
    """Count consecutive record pairs, never across session boundaries.

    Pairs are counted once, between terminal components. The L2 matrix is
    the block-sum of that count: ``R.T @ L3 @ R``, where ``R`` maps each
    component to its level-2 ancestor. With ``collapse_repeats``, runs of
    identical ids (at the chosen level) count as a single step. Collapsing
    a run removes exactly its self pairs, so it zeroes the diagonal of the
    matrix at either level and leaves every other cell as it is.
    """
    level = MatrixLevel.parse(level)
    l3_counts = _Stack(tuple(sessions)).pair_counts(len(model))
    return _at_level(l3_counts, model, level, collapse_repeats)


# --------------------------------------------------------------------------
# Linearity
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearityIndex:
    """Forward-fraction of non-self transitions against a canonical order."""

    value: float
    forward_count: int
    backward_count: int
    self_count: int


def _index_from_counts(forward: int, backward: int, self_count: int) -> LinearityIndex:
    moving = forward + backward
    value = forward / moving if moving else 1.0
    return LinearityIndex(
        value=value, forward_count=forward, backward_count=backward, self_count=self_count
    )


def linearity(session: Session, order: Sequence[str]) -> LinearityIndex:
    """Classify every transition of ``session`` as forward, backward, or
    self, by the components' positions in ``order``. Self transitions never
    count toward the index.
    """
    comp_ids = session.model.comp_ids
    positions = session.comp_idx
    if tuple(order) != comp_ids:
        pos = {comp: i for i, comp in enumerate(order)}
        pos_of = np.array([pos.get(c, -1) for c in comp_ids], dtype=np.int64)
        positions = pos_of[positions]
        if (positions < 0).any():
            missing = sorted({comp_ids[i] for i in session.comp_idx[positions < 0].tolist()})
            raise ComponentNotInOrder(f"component ids not in order: {missing}")
    backward, self_count, forward = np.bincount(np.sign(np.diff(positions)) + 1, minlength=3).tolist()
    return _index_from_counts(forward, backward, self_count)


@dataclass(frozen=True)
class SessionLinearity:
    user_id: str
    task_id: str
    index: LinearityIndex


# --------------------------------------------------------------------------
# Descriptive stats
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionStats:
    user_id: str
    task_id: str
    completion_ms: int
    steps: int


@dataclass(frozen=True)
class DescriptiveStats:
    rows: tuple[SessionStats, ...]
    sus: Mapping[str, float]
    missing_sus: tuple[str, ...]


def descriptive(bundle: SessionBundle, sus_scores: Mapping[str, float]) -> DescriptiveStats:
    """Per-session completion time and step counts, with SUS carried per user."""
    rows = tuple(
        SessionStats(
            user_id=s.user_id,
            task_id=s.task_id,
            completion_ms=s.span_ms,
            steps=len(s.ts_ms),
        )
        for s in bundle.sessions
    )
    users = bundle.user_ids
    sus = {u: float(sus_scores[u]) for u in users if u in sus_scores}
    missing = tuple(u for u in users if u not in sus_scores)
    return DescriptiveStats(rows=rows, sus=sus, missing_sus=missing)


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSet:
    """Every behavioral quantity for one bundle, plus the options used."""

    model: ComponentModel
    effort: EffortProfile
    l3_matrix: TransitionMatrix
    l2_matrix: TransitionMatrix
    session_linearity: tuple[SessionLinearity, ...]
    pooled_linearity: LinearityIndex
    collapse_repeats: bool

    @property
    def idle_cap_ms(self) -> int | None:
        return self.effort.idle_cap_ms


def compute_metric_set(
    bundle: SessionBundle,
    *,
    idle_cap_ms: int | None = DEFAULT_IDLE_CAP_MS,
    collapse_repeats: bool = False,
) -> MetricSet:
    """Compute effort, both matrices, and linearity for a bundle."""
    model = bundle.model
    stack = _Stack(bundle.sessions)
    moves = stack.moves()
    per_session = tuple(
        SessionLinearity(
            user_id=s.user_id,
            task_id=s.task_id,
            index=_index_from_counts(forward, backward, self_count),
        )
        for s, (backward, self_count, forward) in zip(bundle.sessions, moves.tolist())
    )
    backward, self_count, forward = moves.sum(axis=0).tolist()
    l3_counts = stack.pair_counts(len(model))
    return MetricSet(
        model=model,
        effort=_effort(bundle, stack, idle_cap_ms),
        l3_matrix=_at_level(l3_counts, model, MatrixLevel.L3, collapse_repeats),
        l2_matrix=_at_level(l3_counts, model, MatrixLevel.L2, collapse_repeats),
        session_linearity=per_session,
        pooled_linearity=_index_from_counts(forward, backward, self_count),
        collapse_repeats=collapse_repeats,
    )

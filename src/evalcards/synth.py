"""Seeded synthetic session bundles and surveys for oracle testing.

Profiles describe one of four behavioral archetypes:

* ``linear``: a monotone traversal of the canonical component order
  (repeats allowed, never a backward step),
* ``reversed``: the exact mirror of linear,
* ``iterative``: a linear backbone plus at least three alternations
  between one designated component pair,
* ``nonlinear``: a uniform random walk over the components.

Generation is bit-reproducible: all randomness comes from a SplitMix64
stream (64-bit state; constants documented in docs/prng.md) and every
session and survey row draws from a sub-stream whose seed is taken from
the master stream up front, so parallel generation equals serial.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import EvalCardsError, decode_utf8
from .serialize import canonical_json
from .survey import RATINGS_HEADER, SUS_HEADER, ComponentRating, SusResponse
from .taxonomy import ComponentModel, yaml_document
from .telemetry import Session, SessionBundle, bundle_manifest, session_to_jsonl

__all__ = [
    "MASK64",
    "SPLITMIX64_GAMMA",
    "SPLITMIX64_MIX1",
    "SPLITMIX64_MIX2",
    "SplitMix64",
    "Archetype",
    "SynthProfile",
    "SynthResult",
    "generate_bundle",
    "write_fixture_tree",
    "parse_profile",
    "load_profile",
]

# Timestamps of generated sessions all start here (2024-01-01T00:00:00Z).
SESSION_BASE_MS = 1_704_067_200_000

MASK64 = (1 << 64) - 1
SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX64_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX64_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream; language-portable with pure 64-bit arithmetic."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + SPLITMIX64_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * SPLITMIX64_MIX1) & MASK64
        z = ((z ^ (z >> 27)) * SPLITMIX64_MIX2) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo (bias acceptable here)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


class SynthError(EvalCardsError):
    pass


class ProfileError(SynthError):
    """A bad profile; ``key`` names the profile key at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class IterationPairNotInModel(ProfileError):
    pass


class Archetype(str, Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"
    ITERATIVE = "iterative"
    REVERSED = "reversed"


_TASK_OK = set("abcdefghijklmnopqrstuvwxyz0123456789-")
_PROFILE_KEYS = ("archetype", "n_users", "tasks", "dwell_ms", "seed", "iteration_pair")


@dataclass(frozen=True)
class SynthProfile:
    archetype: Archetype
    n_users: int
    tasks: tuple[str, ...]
    dwell_min_ms: int
    dwell_max_ms: int
    seed: int
    iteration_pair: tuple[str, str] | None = None

    def __post_init__(self):
        if self.n_users < 1:
            raise ProfileError(f"n_users must be >= 1, got {self.n_users}", "n_users")
        if not self.tasks:
            raise ProfileError("profile lists no tasks", "tasks")
        if len(set(self.tasks)) != len(self.tasks):
            raise ProfileError(f"duplicate task ids: {list(self.tasks)}", "tasks")
        for task in self.tasks:
            if not task or not set(task) <= _TASK_OK:
                raise ProfileError(
                    f"task id {task!r} must be non-empty lowercase [a-z0-9-] "
                    "(it becomes part of a log filename)",
                    "tasks",
                )
        if not 0 < self.dwell_min_ms <= self.dwell_max_ms:
            raise ProfileError(
                f"dwell bounds must satisfy 0 < min <= max, got "
                f"({self.dwell_min_ms}, {self.dwell_max_ms})",
                "dwell_ms",
            )
        if not 0 <= self.seed <= MASK64:
            raise ProfileError(f"seed must be an unsigned 64-bit integer, got {self.seed}", "seed")
        if self.archetype is Archetype.ITERATIVE:
            if self.iteration_pair is None:
                raise ProfileError("iterative profiles require an iteration_pair", "archetype")
            if self.iteration_pair[0] == self.iteration_pair[1]:
                raise ProfileError(
                    "iteration_pair must name two distinct components", "iteration_pair"
                )
        elif self.iteration_pair is not None:
            raise ProfileError("iteration_pair only applies to iterative profiles", "iteration_pair")

    def to_dict(self) -> dict:
        out = {
            "archetype": self.archetype.value,
            "n_users": self.n_users,
            "tasks": list(self.tasks),
            "dwell_ms": {"min": self.dwell_min_ms, "max": self.dwell_max_ms},
            "seed": self.seed,
        }
        if self.iteration_pair is not None:
            out["iteration_pair"] = list(self.iteration_pair)
        return out


def parse_profile(
    text: str, *, seed_override: int | None = None, model: ComponentModel | None = None
) -> SynthProfile:
    """Parse a profile document. An error about one key starts with
    ``line L:``, the line of that key. With ``model``, an ``iteration_pair``
    must name two of its components."""
    doc, keys = yaml_document(text, ProfileError)
    if not isinstance(doc, Mapping):
        raise ProfileError("profile must be a mapping")
    if seed_override is not None:
        keys.pop("seed", None)  # the seed does not come from the text

    def value(key: str, convert, raw):
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"bad profile value: {exc}", key) from None

    try:
        unknown = [k for k in doc if k not in _PROFILE_KEYS]
        if unknown:
            raise ProfileError(f"unknown profile key {unknown[0]!r}", unknown[0])
        try:
            archetype = Archetype(str(doc.get("archetype", "")).lower())
        except ValueError:
            raise ProfileError(
                f"unknown archetype {doc.get('archetype')!r} "
                f"(expected one of: {', '.join(a.value for a in Archetype)})",
                "archetype",
            ) from None
        dwell = doc.get("dwell_ms") or {}
        if not isinstance(dwell, Mapping) or set(dwell) - {"min", "max"}:
            raise ProfileError("dwell_ms must be a mapping with 'min' and 'max'", "dwell_ms")
        pair = doc.get("iteration_pair")
        if pair is not None and (not isinstance(pair, list) or len(pair) != 2):
            raise ProfileError("iteration_pair must be a two-element list", "iteration_pair")
        profile = SynthProfile(
            archetype=archetype,
            n_users=value("n_users", int, doc.get("n_users", 0)),
            tasks=value("tasks", lambda ts: tuple(map(str, ts)), doc.get("tasks") or []),
            dwell_min_ms=value("dwell_ms", int, dwell.get("min", 1_000)),
            dwell_max_ms=value("dwell_ms", int, dwell.get("max", 60_000)),
            seed=value("seed", int, doc.get("seed", 0) if seed_override is None else seed_override),
            iteration_pair=None if pair is None else (str(pair[0]), str(pair[1])),
        )
        if model is not None:
            _check_iteration_pair(model, profile)
        return profile
    except ProfileError as exc:
        at = f"line {keys[exc.key][0]}: " if exc.key in keys else ""
        raise ProfileError(at + str(exc)) from None


def load_profile(
    path: str | Path, *, seed_override: int | None = None, model: ComponentModel | None = None
) -> SynthProfile:
    """Read and parse a profile file; every error names ``path`` once."""
    try:
        return parse_profile(
            decode_utf8(Path(path).read_bytes(), ProfileError),
            seed_override=seed_override,
            model=model,
        )
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# Sequence construction
# --------------------------------------------------------------------------


def _forward_walk(rng: SplitMix64, n: int) -> list[int]:
    """Visit 0..n-1 in order, each index repeated 1..3 times."""
    seq = []
    for i in range(n):
        seq.extend([i] * (1 + rng.randint(0, 2)))
    return seq


def _check_iteration_pair(model: ComponentModel, profile: SynthProfile) -> None:
    if profile.iteration_pair is None:
        return
    missing = [c for c in profile.iteration_pair if c not in model.index]
    if missing:
        raise IterationPairNotInModel(
            f"iteration pair component(s) {missing} not in model {model.system_name!r}",
            "iteration_pair",
        )


def _archetype_indices(model: ComponentModel, profile: SynthProfile, rng: SplitMix64) -> list[int]:
    n = len(model.comp_ids)
    kind = profile.archetype
    if kind is Archetype.LINEAR:
        return _forward_walk(rng, n)
    if kind is Archetype.REVERSED:
        return [n - 1 - i for i in _forward_walk(rng, n)]
    if kind is Archetype.NONLINEAR:
        length = rng.randint(max(8, n), max(12, 4 * n))
        return [rng.randint(0, n - 1) for _ in range(length)]

    _check_iteration_pair(model, profile)
    index = model.index
    lo, hi = sorted(index[c] for c in profile.iteration_pair)
    seq: list[int] = []
    for i in range(n):
        seq.extend([i] * (1 + rng.randint(0, 2)))
        if i == hi:
            rounds = rng.randint(3, 6)
            seq.extend([lo, hi] * rounds)
    return seq


def _session(
    model: ComponentModel, profile: SynthProfile, rng: SplitMix64, user_id: str, task_id: str
) -> Session:
    components = model.components
    indices = _archetype_indices(model, profile, rng)
    ts = SESSION_BASE_MS
    stamps = []
    others = {}
    for step, idx in enumerate(indices):
        comp = components[idx]
        if step:
            ts += rng.randint(profile.dwell_min_ms, profile.dwell_max_ms)
        stamps.append(ts)
        if comp.l2_id == "specify_problem":
            others[step] = {
                "parameters": {
                    "target_metric": rng.choice(("accuracy", "f1_score", "rmse")),
                    "task_type": task_id,
                }
            }
        elif comp.l2_id == "explain_model":
            others[step] = {"model_viewed": f"model_{rng.randint(1, 5):02d}"}
    return Session(
        user_id=user_id, task_id=task_id, model=model, ts_ms=stamps, comp_idx=indices, other=others
    )


# --------------------------------------------------------------------------
# Bundle generation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthResult:
    bundle: SessionBundle
    ratings: tuple[ComponentRating, ...]
    sus: tuple[SusResponse, ...]
    profile: SynthProfile


def _user_ids(n_users: int) -> list[str]:
    width = max(2, len(str(n_users)))
    return [f"u{i:0{width}d}" for i in range(1, n_users + 1)]


def generate_bundle(model: ComponentModel, profile: SynthProfile) -> SynthResult:
    """Generate n_users x |tasks| sessions plus full survey tables.

    Sub-stream seeds are all drawn from the master stream first (sessions
    in (user, task) order, then one per user for the survey), so any
    session or survey row can be regenerated independently.
    """
    users = _user_ids(profile.n_users)
    master = SplitMix64(profile.seed)
    session_seeds = {
        (user, task): master.next_u64() for user in users for task in profile.tasks
    }
    survey_seeds = {user: master.next_u64() for user in users}

    sessions = []
    for user in users:
        for task in profile.tasks:
            rng = SplitMix64(session_seeds[(user, task)])
            sessions.append(_session(model, profile, rng, user, task))

    ratings = []
    sus = []
    for user in users:
        rng = SplitMix64(survey_seeds[user])
        for comp_id in model.comp_ids:
            ratings.append(
                ComponentRating(
                    user_id=user,
                    comp_id=comp_id,
                    efficiency=rng.randint(1, 5),
                    effectiveness=rng.randint(1, 5),
                )
            )
        sus.append(SusResponse(user_id=user, items=tuple(rng.randint(1, 5) for _ in range(10))))

    bundle = SessionBundle(model=model, sessions=tuple(sessions))
    return SynthResult(bundle=bundle, ratings=tuple(ratings), sus=tuple(sus), profile=profile)


# --------------------------------------------------------------------------
# Fixture tree output
# --------------------------------------------------------------------------


def write_fixture_tree(result: SynthResult, out_dir: str | Path) -> dict:
    """Write logs/, surveys/, and a deterministic manifest under ``out_dir``.

    Returns the manifest document. Identical (model, profile) inputs write
    byte-identical trees.
    """
    out = Path(out_dir)
    logs_dir = out / "logs"
    surveys_dir = out / "surveys"
    logs_dir.mkdir(parents=True, exist_ok=True)
    surveys_dir.mkdir(parents=True, exist_ok=True)
    for stale in logs_dir.glob("*.jsonl"):  # a rerun must not leave old sessions behind
        stale.unlink()

    for session in result.bundle.sessions:
        path = logs_dir / f"{session.user_id}_{session.task_id}.jsonl"
        path.write_text(session_to_jsonl(session), encoding="utf-8")

    lines = [",".join(RATINGS_HEADER)]
    for r in result.ratings:
        lines.append(f"{r.user_id},{r.comp_id},{r.efficiency},{r.effectiveness}")
    (surveys_dir / "ratings.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = [",".join(SUS_HEADER)]
    for s in result.sus:
        lines.append(",".join([s.user_id] + [str(v) for v in s.items]))
    (surveys_dir / "sus.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "system_name": result.bundle.model.system_name,
        "profile": result.profile.to_dict(),
        "bundle": bundle_manifest(result.bundle),
        "files": {
            "logs": sorted(p.name for p in logs_dir.glob("*.jsonl")),
            "surveys": ["ratings.csv", "sus.csv"],
        },
    }
    (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    return manifest

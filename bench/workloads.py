"""Workload definitions: what each benchmark workload feeds the CLI.

A workload is a list of synthetic systems (one ``evalcards synth`` tree
each), the rounds of CLI stages run over them, and for ``messy`` the
benchmark's own rewrite of the canonical logs plus a fixed set of corrupted
exports. Everything here derives from the ``--seed`` argument except the
corruption base, which is fixed so that its failures do not depend on the
seed. This module uses only the standard library: the rewrite must not
borrow the package's timestamp code that it is meant to exercise.
"""
from __future__ import annotations

import calendar
import hashlib
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

IDLE_CAP_MS = 10 * 60 * 1000
MESSY_FLAGS = ("--sort-timestamps", "--allow-unknown-components", "--collapse-repeats")
CORRUPTION_SEED = 20240101


@dataclass(frozen=True)
class System:
    """One synthetic system tree and how ``analyze`` reads it."""

    key: str  # unique within the workload; names the tree and the export
    taxonomy: str  # shipped fixture: visus, distil or tworavens
    archetype: str
    n_users: int
    n_tasks: int
    dwell_ms: tuple[int, int]
    seed: int
    iteration_pair: tuple[str, str] | None = None
    messy: bool = False  # rewrite the logs and analyze with MESSY_FLAGS
    timed: bool = True  # analyzed and rendered in every round; else once in set-up

    def profile_yaml(self) -> str:
        tasks = ", ".join(f"t{i:03d}" for i in range(1, self.n_tasks + 1))
        lines = [
            f"archetype: {self.archetype}",
            f"n_users: {self.n_users}",
            f"tasks: [{tasks}]",
            f"dwell_ms: {{min: {self.dwell_ms[0]}, max: {self.dwell_ms[1]}}}",
            f"seed: {self.seed}",
        ]
        if self.iteration_pair:
            lines.append(f"iteration_pair: [{self.iteration_pair[0]}, {self.iteration_pair[1]}]")
        return "\n".join(lines) + "\n"

    @property
    def flags(self) -> tuple[str, ...]:
        return MESSY_FLAGS if self.messy else ()


@dataclass(frozen=True)
class Workload:
    name: str
    systems: tuple[System, ...]
    # each tuple is one `compare` call over the exports of those system keys
    comparisons: tuple[tuple[str, ...], ...]
    corrupt: bool = False  # render the fixed corrupted exports in every round

    @property
    def timed_systems(self) -> tuple[System, ...]:
        return tuple(s for s in self.systems if s.timed)


def derive_seed(seed: int, *parts: object) -> int:
    """A 64-bit sub-seed for one system, stable across Python versions."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# Sizes: "full" is what the benchmark measures; "tiny" is the self-check.
SIZES = {
    "full": {
        "studies": 3,
        "study_users": 40,
        "bulk_users": 20,
        "bulk_tasks": 120,
        "messy_users": 1000,
        "partner_users": 40,
    },
    "tiny": {
        "studies": 1,
        "study_users": 4,
        "bulk_users": 3,
        "bulk_tasks": 4,
        "messy_users": 6,
        "partner_users": 3,
    },
}


def _partner(seed: int, workload: str, users: int) -> System:
    """A second system whose export the main one is compared against."""
    return System(
        key="partner-distil",
        taxonomy="distil",
        archetype="nonlinear",
        n_users=users,
        n_tasks=2,
        dwell_ms=(1_000, 120_000),
        seed=derive_seed(seed, workload, "partner"),
        timed=False,
    )


def build(name: str, seed: int, size: str = "full") -> Workload:
    n = SIZES[size]
    if name == "study":
        systems = []
        comparisons = []
        for j in range(1, n["studies"] + 1):
            study = (
                System(f"s{j}-visus", "visus", "linear", n["study_users"], 2, (2_000, 90_000),
                       derive_seed(seed, name, j, "visus")),
                System(f"s{j}-distil", "distil", "iterative", n["study_users"], 2, (2_000, 90_000),
                       derive_seed(seed, name, j, "distil"),
                       iteration_pair=("explore_dataset", "specify_problem")),
                System(f"s{j}-tworavens", "tworavens", "nonlinear", n["study_users"], 2,
                       (2_000, 90_000), derive_seed(seed, name, j, "tworavens")),
            )
            systems += study
            comparisons.append(tuple(s.key for s in study))
        return Workload(name, tuple(systems), tuple(comparisons))
    if name == "bulk":
        main = System("bulk-tworavens", "tworavens", "nonlinear", n["bulk_users"], n["bulk_tasks"],
                      (1_000, 900_000), derive_seed(seed, name, "tworavens"))
        partner = _partner(seed, name, n["partner_users"])
        return Workload(name, (main, partner), ((main.key, partner.key),))
    if name == "messy":
        main = System("messy-visus", "visus", "iterative", n["messy_users"], 2, (1_000, 300_000),
                      derive_seed(seed, name, "visus"),
                      iteration_pair=("select_target_metric", "see_pdp"), messy=True)
        partner = _partner(seed, name, n["partner_users"])
        return Workload(name, (main, partner), ((main.key, partner.key),), corrupt=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("study", "bulk", "messy")

# The corruption base: a small messy export whose inputs never depend on --seed.
CORRUPTION_BASE = System("corrupt-base", "visus", "iterative", 3, 2, (1_000, 300_000),
                         CORRUPTION_SEED, iteration_pair=("select_target_metric", "see_pdp"),
                         messy=True, timed=False)


# --------------------------------------------------------------------------
# Timestamp rewrite for `messy`
# --------------------------------------------------------------------------

_CANONICAL = re.compile(r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})\.(\d{3})Z$")
# (sign, hours, minutes); each is a valid offset the instant is shifted into
_OFFSETS = ((1, 5, 30), (-1, 8, 0), (1, 1, 0), (-1, 3, 30), (1, 0, 0), (1, 9, 45))


def canonical_ms(text: str) -> int:
    """UTC epoch ms of a ``YYYY-MM-DDTHH:MM:SS.sssZ`` string."""
    m = _CANONICAL.match(text)
    if not m:
        raise ValueError(f"not a canonical timestamp: {text!r}")
    y, mo, d, h, mi, s, ms = (int(g) for g in m.groups())
    return calendar.timegm((y, mo, d, h, mi, s, 0, 0, 0)) * 1000 + ms


def rewrite_stamp(ms: int, rng: random.Random, *, keep_canonical: bool) -> str:
    """Write the instant ``ms`` in another valid ISO-8601 form.

    Forms: extended with a numeric offset, basic form, and comma fractions,
    drawn independently so they combine. With ``keep_canonical`` a quarter
    of the stamps stay in the canonical form.
    """
    if keep_canonical and rng.random() < 0.25:
        secs, frac = divmod(ms, 1000)
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(secs)) + f".{frac:03d}Z"
    basic = rng.random() < 0.4
    comma = rng.random() < 0.5
    offset = rng.choice(_OFFSETS) if rng.random() < 0.7 else None
    if not (basic or comma or offset):
        comma = True
    local = ms
    if offset:
        sign, hh, mm = offset
        local += sign * (hh * 60 + mm) * 60_000
    secs, frac = divmod(local, 1000)
    t = time.gmtime(secs)
    date = time.strftime("%Y%m%d" if basic else "%Y-%m-%d", t)
    clock = time.strftime("%H%M%S" if basic else "%H:%M:%S", t)
    if offset:
        sign, hh, mm = offset
        zone = f"{'+' if sign > 0 else '-'}{hh:02d}{'' if basic else ':'}{mm:02d}"
    else:
        zone = "Z"
    return f"{date}T{clock}{',' if comma else '.'}{frac:03d}{zone}"


_UNKNOWN = (
    {"lv1_id": "data", "lv2_id": "legacy_upload", "comp_id": "legacy_upload_panel"},
    {"lv1_id": "model", "lv2_id": "beta_tools", "comp_id": "beta_model_zoo"},
)


def rewrite_log(text: str, rng: random.Random) -> str:
    """Rewrite one canonical synth log into a messy but equivalent one.

    Every timestamp is rewritten to the same instant. One session in three
    has one adjacent pair of records swapped (synth timestamps strictly
    increase, so a stable sort restores the order). One file in four gains
    one or two records naming components no model has.
    """
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    instants = [canonical_ms(r["timestamp"]) for r in records]
    for record, ms in zip(records, instants):
        record["timestamp"] = rewrite_stamp(ms, rng, keep_canonical=True)
    if len(records) > 1 and rng.random() < 1 / 3:
        i = rng.randrange(len(records) - 1)
        records[i], records[i + 1] = records[i + 1], records[i]
    if rng.random() < 0.25:
        for _ in range(rng.randint(1, 2)):
            extra = dict(rng.choice(_UNKNOWN))
            extra["timestamp"] = rewrite_stamp(rng.choice(instants), rng, keep_canonical=True)
            records.insert(rng.randrange(len(records) + 1), extra)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def rewrite_tree(clean_logs: Path, messy_logs: Path, seed: int) -> None:
    messy_logs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    for path in sorted(clean_logs.glob("*.jsonl")):
        text = path.read_text(encoding="utf-8")
        (messy_logs / path.name).write_text(rewrite_log(text, rng), encoding="utf-8")


# --------------------------------------------------------------------------
# Corrupted exports (known faults)
# --------------------------------------------------------------------------


def _set_l3_cell(doc):
    doc["transitions"]["l3"]["counts"][0][1] = "3"


def _drop_share(doc):
    del doc["effort"]["per_session"][0]["share"]


def _sus_string(doc):
    user = sorted(doc["descriptive"]["sus"])[0]
    doc["descriptive"]["sus"][user] = "high"


def _session_not_object(doc):
    doc["descriptive"]["sessions"][0] = 7


def _box_without_min(doc):
    comp = doc["linearity"]["order"][0]
    del doc["effort"]["share_box"][comp]["min"]


def _idle_cap_string(doc):
    doc["options"]["idle_cap_ms"] = "x"


def _totals_string(doc):
    comp = doc["linearity"]["order"][0]
    doc["effort"]["totals_ms"][comp] = "12"


def _drop_pooled_value(doc):
    del doc["linearity"]["pooled"]["value"]


# Each corruption changes one field of a valid export. `render` must reject
# every one with exit code 2 and a message that names the file. The last is
# the control that the shallow schema check already catches.
CORRUPTIONS = (
    ("l3-cell-string", _set_l3_cell),
    ("per-session-no-share", _drop_share),
    ("sus-string", _sus_string),
    ("session-row-not-object", _session_not_object),
    ("share-box-no-min", _box_without_min),
    ("idle-cap-string", _idle_cap_string),
    ("totals-string", _totals_string),
    ("pooled-no-value", _drop_pooled_value),
)


def write_corruptions(base_export: Path, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = base_export.read_text(encoding="utf-8")
    paths = []
    for name, corrupt in CORRUPTIONS:
        doc = json.loads(text)
        corrupt(doc)
        path = out_dir / f"corrupt-{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths

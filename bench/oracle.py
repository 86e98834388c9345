"""An independent oracle for evalcards exports and reports.

It reads the raw JSONL logs and survey CSVs and recomputes, by plain loops,
the numbers an export must carry: per-session completion time and steps,
idle-capped time per component, visit counts, the L3 and L2 transition
matrices, the pooled and per-session forward/backward/self counts, time
shares and SUS scores. It imports nothing from ``evalcards``; the caller
passes the component order and the level-2 parent of each component, taken
from the taxonomy. Integers must match exactly and floats at the export's
four decimals. It also checks properties the method must have, and the
structure and digests of rendered reports.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import canonical_ms


class Mismatch(AssertionError):
    """The program's output disagrees with the oracle."""


@dataclass(frozen=True)
class Model:
    system_name: str
    order: tuple[str, ...]  # terminal components, canonical order
    l2_of: dict  # comp_id -> level-2 id
    l2_order: tuple[str, ...]


@dataclass(frozen=True)
class Session:
    user_id: str
    task_id: str
    ts: tuple[int, ...]
    comps: tuple[str, ...]


def read_sessions(logs_dir: Path) -> list[Session]:
    """Sessions of a canonical synth tree, ordered by (user, task)."""
    sessions = []
    for path in Path(logs_dir).glob("*.jsonl"):
        user, task = path.stem.rsplit("_", 1)
        ts, comps = [], []
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    ts.append(canonical_ms(record["timestamp"]))
                    comps.append(record["comp_id"])
        sessions.append(Session(user, task, tuple(ts), tuple(comps)))
    sessions.sort(key=lambda s: (s.user_id, s.task_id))
    return sessions


def read_sus(path: Path) -> dict[str, float]:
    """SUS score per user: odd items score item-1, even items 5-item, sum x 2.5."""
    scores = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if not row:
            continue
        items = [int(v) for v in row[1:]]
        total = sum(items[k] - 1 if k % 2 == 0 else 5 - items[k] for k in range(10))
        scores[row[0].strip()] = total * 2.5
    return scores


def _runs_collapsed(ids):
    out = []
    for item in ids:
        if not out or out[-1] != item:
            out.append(item)
    return out


def _pair_counts(sequences, order):
    pos = {c: i for i, c in enumerate(order)}
    counts = [[0] * len(order) for _ in order]
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            counts[pos[a]][pos[b]] += 1
    return counts


def _direction_counts(seq, pos):
    forward = backward = selfs = 0
    for a, b in zip(seq, seq[1:]):
        if a == b:
            selfs += 1
        elif pos[b] > pos[a]:
            forward += 1
        else:
            backward += 1
    return forward, backward, selfs


def _ratio(num, den):
    return num / den if den else 0.0


def expected_export(sessions, sus, model: Model, *, collapse: bool, idle_cap_ms: int) -> dict:
    """Every number the oracle checks, laid out as in the export."""
    order = model.order
    pos = {c: i for i, c in enumerate(order)}
    totals = dict.fromkeys(order, 0)
    visits = dict.fromkeys(order, 0)
    descriptive_rows, effort_rows, linearity_rows = [], [], []
    pooled = [0, 0, 0]
    for s in sessions:
        per_comp = dict.fromkeys(order, 0)
        for k in range(len(s.ts) - 1):
            per_comp[s.comps[k]] += min(s.ts[k + 1] - s.ts[k], idle_cap_ms)
        for comp in s.comps:
            visits[comp] += 1
        for comp, ms in per_comp.items():
            totals[comp] += ms
        attributed = sum(per_comp.values())
        descriptive_rows.append(
            {"user_id": s.user_id, "task_id": s.task_id,
             "completion_ms": s.ts[-1] - s.ts[0], "steps": len(s.ts)}
        )
        effort_rows.append(
            {"user_id": s.user_id, "task_id": s.task_id, "attributed_ms": attributed,
             "per_comp_ms": per_comp,
             "share": {c: _ratio(ms, attributed) for c, ms in per_comp.items()}}
        )
        f, b, z = _direction_counts(s.comps, pos)
        pooled = [pooled[0] + f, pooled[1] + b, pooled[2] + z]
        linearity_rows.append(
            {"user_id": s.user_id, "task_id": s.task_id, "value": f / (f + b) if f + b else 1.0,
             "forward": f, "backward": b, "self": z}
        )

    l3_seqs = [list(s.comps) for s in sessions]
    l2_seqs = [[model.l2_of[c] for c in s.comps] for s in sessions]
    if collapse:
        l3_seqs = [_runs_collapsed(q) for q in l3_seqs]
        l2_seqs = [_runs_collapsed(q) for q in l2_seqs]
    grand = sum(totals.values())
    users = sorted({s.user_id for s in sessions})
    f, b, z = pooled
    return {
        "system_name": model.system_name,
        "options": {"idle_cap_ms": idle_cap_ms, "collapse_repeats": collapse},
        "descriptive": {
            "sessions": descriptive_rows,
            "sus": {u: sus[u] for u in users if u in sus},
            "missing_sus": [u for u in users if u not in sus],
        },
        "effort": {
            "totals_ms": totals,
            "visit_counts": visits,
            "share_totals": {c: _ratio(ms, grand) for c, ms in totals.items()},
            "per_session": effort_rows,
        },
        "transitions": {
            "l3": {"level": "L3", "order": list(order), "counts": _pair_counts(l3_seqs, order)},
            "l2": {"level": "L2", "order": list(model.l2_order),
                   "counts": _pair_counts(l2_seqs, model.l2_order)},
        },
        "linearity": {
            "order": list(order),
            "per_session": linearity_rows,
            "pooled": {"value": f / (f + b) if f + b else 1.0,
                       "forward": f, "backward": b, "self": z},
        },
    }


# Export objects that hold more keys than the oracle recomputes.
_PARTIAL = {"export", "export.descriptive", "export.effort"}


def _same(expected, actual, where, problems):
    """Structural equality: ints and strings exactly, floats at 4 decimals."""
    if len(problems) >= 20:
        return
    if isinstance(expected, dict):
        keys_ok = isinstance(actual, dict) and (
            set(expected) <= set(actual) if where in _PARTIAL else set(expected) == set(actual)
        )
        if not keys_ok:
            problems.append(f"{where}: expected keys {sorted(expected)}")
            return
        for key, value in expected.items():
            _same(value, actual[key], f"{where}.{key}", problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{where}: expected a list of {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _same(e, a, f"{where}[{i}]", problems)
    elif isinstance(expected, float):
        ok = isinstance(actual, (int, float)) and not isinstance(actual, bool)
        if not ok or f"{expected:.4f}" != f"{float(actual):.4f}":
            problems.append(f"{where}: expected {expected:.4f}, got {actual!r}")
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{where}: expected {expected!r}, got {actual!r}")


def check_export(doc: dict, sessions, sus, model: Model, *, collapse: bool,
                 idle_cap_ms: int) -> None:
    """Raise :class:`Mismatch` unless ``doc`` agrees with the oracle."""
    problems: list[str] = []
    expected = expected_export(sessions, sus, model, collapse=collapse, idle_cap_ms=idle_cap_ms)
    _same(expected, doc, "export", problems)
    if not problems:
        _check_properties(doc, sessions, model, collapse, idle_cap_ms, problems)
    if problems:
        raise Mismatch(f"{model.system_name}: " + "; ".join(problems))


def _check_properties(doc, sessions, model, collapse, idle_cap_ms, problems):
    """Identities the method must satisfy, checked on the export's own numbers."""
    rows = doc["effort"]["per_session"]
    for s, row, drow in zip(sessions, rows, doc["descriptive"]["sessions"]):
        gaps = [b - a for a, b in zip(s.ts, s.ts[1:])]
        removed = sum(g - idle_cap_ms for g in gaps if g > idle_cap_ms)
        if row["attributed_ms"] != drow["completion_ms"] - removed:
            problems.append(f"{s.user_id}/{s.task_id}: attributed ms does not conserve the span")
            break
    l3 = doc["transitions"]["l3"]["counts"]
    n = len(model.order)
    pooled = doc["linearity"]["pooled"]
    above = sum(l3[i][j] for i in range(n) for j in range(i + 1, n))
    below = sum(l3[i][j] for i in range(n) for j in range(i))
    if (above, below) != (pooled["forward"], pooled["backward"]):
        problems.append("pooled forward/backward differ from the L3 triangles")
    steps = (_runs_collapsed(s.comps) if collapse else s.comps for s in sessions)
    if sum(map(sum, l3)) != sum(len(q) - 1 for q in steps):
        problems.append("L3 matrix total differs from the sum of (records - 1)")
    if not collapse:
        if sum(l3[i][i] for i in range(n)) != pooled["self"]:
            problems.append("pooled self count differs from the L3 diagonal")
        l2_pos = {k: i for i, k in enumerate(model.l2_order)}
        rolled = [[0] * len(l2_pos) for _ in l2_pos]
        for i, a in enumerate(model.order):
            for j, b in enumerate(model.order):
                rolled[l2_pos[model.l2_of[a]]][l2_pos[model.l2_of[b]]] += l3[i][j]
        if rolled != doc["transitions"]["l2"]["counts"]:
            problems.append("uncollapsed L2 matrix is not the block-sum of L3")


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

# groups: category, scope, digest (absent on between-system placeholders)
_SECTION = re.compile(
    r'<section class="[^"]*" id="[a-z]+-[a-z]+" data-category="([a-z]+)" '
    r'data-scope="([a-z]+)"(?: data-inputs-digest="sha256:([0-9a-f]{64})")?'
)
CATEGORIES = ("descriptive", "attitudinal", "effort", "exploration")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_within_report(html: str, export_path: Path) -> None:
    """Eight sections, four per scope, and the export file's digest on each
    within-system section."""
    sections = _SECTION.findall(html)
    scopes = sorted((cat, scope) for cat, scope, _ in sections)
    want = sorted((c, s) for c in CATEGORIES for s in ("within", "between"))
    if scopes != want:
        raise Mismatch(f"{export_path.name}: report sections {scopes}, expected {want}")
    digest = sha256_file(export_path)
    for cat, scope, found in sections:
        if scope == "within" and found != digest:
            raise Mismatch(f"{export_path.name}: {cat} section digest {found or 'missing'} "
                           f"is not the export's sha256 {digest}")


def check_comparison(html: str, export_paths) -> None:
    """Four between-system sections carrying the digest of the exports,
    concatenated in system-name order."""
    sections = _SECTION.findall(html)
    scopes = sorted((cat, scope) for cat, scope, _ in sections)
    if scopes != sorted((c, "between") for c in CATEGORIES):
        raise Mismatch(f"comparison sections {scopes}, expected the four between-system ones")
    texts = sorted(
        (json.loads(Path(p).read_text(encoding="utf-8"))["system_name"], Path(p).read_bytes())
        for p in export_paths
    )
    digest = hashlib.sha256(b"".join(t for _, t in texts)).hexdigest()
    for cat, _, found in sections:
        if found != digest:
            raise Mismatch(f"comparison {cat} section digest {found or 'missing'} is not "
                           f"the sha256 of the exports {digest}")

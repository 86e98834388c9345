"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately reimplement results by a different route than the
package (index formulas instead of half-splitting, exhaustive pair loops
instead of matrix bookkeeping) so agreement is meaningful.
"""
import json
import math
from datetime import datetime, timedelta, timezone

from evalcards.survey import BoxStats


def oracle_box(values):
    """Box summary via the classic 1-indexed hinge-position formula."""
    data = sorted(float(v) for v in values)
    n = len(data)

    def at(pos):  # 1-indexed rank, possibly *.5
        lo = math.floor(pos)
        if pos == lo:
            return data[lo - 1]
        return (data[lo - 1] + data[lo]) / 2.0

    median_pos = (n + 1) / 2
    hinge_pos = (math.floor(median_pos) + 1) / 2
    median = at(median_pos)
    lower = at(hinge_pos)
    upper = at(n + 1 - hinge_pos)
    reach = 1.5 * (upper - lower)
    inside = [v for v in data if lower - reach <= v <= upper + reach]
    outliers = tuple(v for v in data if v < lower - reach or v > upper + reach)
    return BoxStats(
        n=n,
        minimum=data[0],
        lower_hinge=lower,
        median=median,
        upper_hinge=upper,
        maximum=data[-1],
        whisker_low=min(inside),
        whisker_high=max(inside),
        outliers=outliers,
    )


def oracle_linearity_counts(comp_ids, order):
    """Classify every consecutive pair by exhaustive position lookup."""
    pos = {comp: i for i, comp in enumerate(order)}
    forward = backward = selfs = 0
    for a, b in zip(comp_ids, comp_ids[1:]):
        if a == b:
            selfs += 1
        elif pos[b] > pos[a]:
            forward += 1
        else:
            backward += 1
    return forward, backward, selfs


def oracle_pair_counts(sequences, order):
    """Transition counts cell by cell: for every (source, destination) in
    ``order``, scan every sequence for that adjacent pair."""
    return [
        [
            sum(1 for seq in sequences for a, b in zip(seq, seq[1:]) if a == src and b == dst)
            for dst in order
        ]
        for src in order
    ]


def oracle_attribute_time(records, idle_cap_ms):
    """Per-record loop: each gap, truncated to the cap, goes to the earlier
    record's component; the last record's component gets at least 0."""
    out = {}
    for current, nxt in zip(records, records[1:]):
        gap = nxt.ts_ms - current.ts_ms
        if idle_cap_ms is not None and gap > idle_cap_ms:
            gap = idle_cap_ms
        out[current.comp_id] = out.get(current.comp_id, 0) + gap
    out.setdefault(records[-1].comp_id, 0)
    return out


def oracle_session_jsonl(session):
    """The per-record log writer: one dict per record, dumped with sorted
    keys; the stamp comes from ``datetime``, its year padded to 4 digits."""
    lines = []
    for record in session.records:
        dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=record.ts_ms)
        out = {
            "timestamp": f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{record.ts_ms % 1000:03d}Z",
            "lv1_id": record.lv1_id.value,
            "lv2_id": record.lv2_id,
            "comp_id": record.comp_id,
        }
        if record.other is not None:
            out["other"] = record.other
        lines.append(json.dumps(out, sort_keys=True))
    return "\n".join(lines) + "\n"

"""Interaction-log ingestion.

Logs arrive as line-delimited JSON, one record per interaction, with the
fields ``timestamp``, ``lv1_id``, ``lv2_id``, ``comp_id`` and an optional
``other`` payload. Records are validated against a resolved
:class:`~evalcards.taxonomy.ComponentModel` and grouped into per-(user, task)
sessions. Validation is strict by default; sorting out-of-order timestamps
and quarantining unknown components are explicit opt-ins.

A :class:`Session` is columnar. ``ts_ms`` is an int64 array of record
instants and ``comp_idx`` an int32 array of positions in the model's
canonical order, ``model.comp_ids``. Reading a log checks each ``other``
payload (one JSON object, on a component that may carry one) and then drops
it, because no metric reads it.

Timestamps are any common ISO-8601 calendar date-time (extended or basic
form, comma or dot fractions, ``Z`` or numeric offsets; week and ordinal
dates are not supported, and every digit is ASCII), as
:func:`parse_timestamp` reads them. They are normalized to UTC
milliseconds; offsets are honored and then discarded. A fraction is of the
last clock field given, the second or else the minute, and truncates to
the millisecond.

:func:`parse_log` reads a file in one scan when every line has the shape
that :func:`session_to_jsonl` writes, except that its stamp may take any
form of a subset of the ISO grammar: an extended or basic date, ``T``, an
extended or basic clock with seconds, a ``.`` or ``,`` fraction of three
digits, and ``Z``, ``+HH:MM`` or ``+HHMM`` (or ``-``). That covers the logs
``synth`` writes and common rewrites of them. The scan is one anchored
pattern over the whole text, with the writer's per-component line prefixes
as the lookup table. Canonical stamps, ``YYYY-MM-DDTHH:MM:SS.sssZ``, take
one numpy call; a file with any other form takes one ``findall`` of the
stamps' parts and integer numpy arithmetic. Records naming a component
outside the model are quarantined there too, when that is allowed. Any
other file, and any file in which the scan finds something it does not
accept, is read line by line, each record checked once; that loop is the
reference for every result and message, and the scan agrees with it.

Writing runs on the columns too. :func:`session_to_jsonl` formats all of a
session's stamps in one ``np.datetime_as_string`` call, and builds each
line from a per-component prefix (dumped once per model), the row's
``other`` payload if the caller gives one, and the stamp. The bytes are
those of ``json.dumps(record, sort_keys=True)`` for each record.
:func:`format_timestamp` uses the same formatter, so every written year has
four digits, and instants outside years 1 to 9999 raise
:class:`OverflowError`.
"""
from __future__ import annotations

import io
import json
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import chain, compress
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .errors import EvalCardsError, decode_utf8
from .taxonomy import ComponentModel, Level1

__all__ = [
    "LogRecord",
    "Session",
    "SessionBundle",
    "parse_log",
    "load_bundle",
    "parse_timestamp",
    "format_timestamp",
    "session_to_jsonl",
    "bundle_manifest",
]

# Level-2 keys whose components may carry an 'other' payload.
OTHER_ALLOWED_L2 = ("specify_problem", "explain_model")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)

_ISO_RE = re.compile(
    r"""^
    (?P<year>[0-9]{4})(?P<dsep>-?)(?P<month>[0-9]{2})(?P=dsep)(?P<day>[0-9]{2})
    [Tt\ ]
    (?P<hour>[0-9]{2})(?P<tsep>:?)(?P<minute>[0-9]{2})(?:(?P=tsep)(?P<second>[0-9]{2}))?
    (?:[.,](?P<frac>[0-9]+))?
    (?P<zone>[Zz]|[+-][0-9]{2}(?::?[0-9]{2})?)?
    $""",
    re.VERBOSE,
)


class TelemetryError(EvalCardsError):
    pass


class MalformedRecord(TelemetryError):
    pass


class MalformedTimestamp(TelemetryError):
    pass


class UnknownComponent(TelemetryError):
    pass


class HierarchyMismatch(TelemetryError):
    pass


class EmptyLog(TelemetryError):
    pass


class NonMonotonicTimestamps(TelemetryError):
    pass


class UnexpectedOtherPayload(TelemetryError):
    pass


class DuplicateUserTask(TelemetryError):
    pass


class NoLogsFound(TelemetryError):
    pass


class BundleLoadError(TelemetryError):
    """Aggregate of per-file ingestion failures."""

    def __init__(self, failures: Sequence[tuple[str, str]]):
        self.failures = tuple(failures)
        lines = "\n".join(f"  {name}: {msg}" for name, msg in self.failures)
        super().__init__(f"{len(self.failures)} log file(s) failed to load:\n{lines}")


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 instant into UTC epoch milliseconds."""
    match = _ISO_RE.match(text.strip())
    if not match:
        raise MalformedTimestamp(f"not an ISO-8601 date-time: {text!r}")
    year, month, day, hour, minute, second, frac, zone = match.group(
        "year", "month", "day", "hour", "minute", "second", "frac", "zone"
    )
    try:
        dt = datetime(
            int(year),
            int(month),
            int(day),
            int(hour),
            int(minute),
            int(second or 0),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise MalformedTimestamp(f"{text!r}: {exc}") from exc

    offset_min = 0
    if zone and zone not in ("Z", "z"):
        sign = 1 if zone[0] == "+" else -1
        digits = zone[1:].replace(":", "")
        hours, minutes = int(digits[:2]), int(digits[2:] or 0)
        if hours > 23 or minutes > 59:
            raise MalformedTimestamp(f"bad UTC offset in {text!r}")
        offset_min = sign * (hours * 60 + minutes)

    base_ms = (dt - _EPOCH) // _MS - offset_min * 60_000
    # a fraction after the minute is a fraction of the minute, as in ISO-8601
    frac_ms = _fraction_ms(frac, 60_000 if second is None else 1000) if frac else 0
    return base_ms + frac_ms


def _fraction_ms(digits: str, unit_ms: int) -> int:
    """``unit_ms`` times the fraction ``0.<digits>``, truncated: exact long
    multiplication from the right, a thousand digits at a time, so that no
    int is read from more digits than Python allows."""
    carry = 0
    for end in range(len(digits), 0, -1000):
        start = max(end - 1000, 0)
        carry = (unit_ms * int(digits[start:end]) + carry) // 10 ** (end - start)
    return carry


# Years 1 through 9999: the instants a four-digit year can spell.
_MIN_MS = -62_135_596_800_000  # 0001-01-01T00:00:00.000Z
_MAX_MS = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z


def _format_stamps(ts_ms: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SS.sss`` of int64 epoch milliseconds, in one numpy
    call; a canonical stamp is this text plus ``Z``."""
    if len(ts_ms) and (ts_ms.min() < _MIN_MS or ts_ms.max() > _MAX_MS):
        raise OverflowError(
            f"timestamp outside years 1-9999: {int(ts_ms.min())}..{int(ts_ms.max())} ms"
        )
    return np.datetime_as_string(ts_ms.astype("datetime64[ms]"), unit="ms").tolist()


def format_timestamp(ms: int) -> str:
    """Canonical UTC rendering with millisecond precision and a 4-digit year.

    Raises :class:`OverflowError` outside years 1 through 9999.
    """
    return _format_stamps(np.array([ms], dtype=np.int64))[0] + "Z"


@dataclass(frozen=True)
class LogRecord:
    """One interaction: the instant a user entered a terminal component.
    Only ``bench/layers.py`` reads it, through :attr:`Session.records`; it
    goes, with that view, in ROADMAP item 6, step 0."""

    ts_ms: int
    lv1_id: Level1
    lv2_id: str
    comp_id: str


class _RecordView(Sequence):
    """A session's rows as :class:`LogRecord` objects, built on access, for
    ``bench/layers.py`` only (until ROADMAP item 6, step 0)."""

    __slots__ = ("_session",)

    def __init__(self, session: "Session"):
        self._session = session

    def __len__(self) -> int:
        return len(self._session.ts_ms)

    def __getitem__(self, i):
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return tuple(self[row] for row in rows)
        s = self._session
        comp = s.model.components[s.comp_idx[rows]]
        return LogRecord(int(s.ts_ms[rows]), comp.l1_id, comp.l2_id, comp.comp_id)


@dataclass(frozen=True, eq=False)
class Session:
    """Time-ordered records for one (user, task) run against one system.

    ``ts_ms`` (int64) holds each record's instant and ``comp_idx`` (int32)
    its component's position in ``model.comp_ids``; both are read-only.
    ``quarantined`` holds ``{"line", "comp_id"}`` for each record set aside
    for naming a component outside the model. Sessions compare by value.
    """

    user_id: str
    task_id: str
    model: ComponentModel = field(repr=False)
    ts_ms: np.ndarray
    comp_idx: np.ndarray
    quarantined: tuple[Mapping, ...] = ()

    def __post_init__(self):
        ts = np.asarray(self.ts_ms, dtype=np.int64)
        idx = np.asarray(self.comp_idx, dtype=np.int32)
        if ts.ndim != 1 or ts.shape != idx.shape:
            raise TelemetryError(
                f"session {self.user_id}/{self.task_id}: ts_ms {ts.shape} and "
                f"comp_idx {idx.shape} must be equal-length vectors"
            )
        if not len(ts):
            raise EmptyLog(f"session {self.user_id}/{self.task_id} has no records")
        if (np.diff(ts) < 0).any():
            raise NonMonotonicTimestamps(
                f"session {self.user_id}/{self.task_id} has decreasing timestamps"
            )
        ts.flags.writeable = False
        idx.flags.writeable = False
        object.__setattr__(self, "ts_ms", ts)
        object.__setattr__(self, "comp_idx", idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return (
            (self.user_id, self.task_id, self.model, self.quarantined)
            == (other.user_id, other.task_id, other.model, other.quarantined)
            and np.array_equal(self.ts_ms, other.ts_ms)
            and np.array_equal(self.comp_idx, other.comp_idx)
        )

    @property
    def system_name(self) -> str:
        return self.model.system_name

    @property
    def records(self) -> Sequence[LogRecord]:
        """One :class:`LogRecord` per row, for ``bench/layers.py`` only
        (until ROADMAP item 6, step 0)."""
        return _RecordView(self)

    @property
    def start_ms(self) -> int:
        return int(self.ts_ms[0])

    @property
    def end_ms(self) -> int:
        return int(self.ts_ms[-1])

    @property
    def span_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class SessionBundle:
    """All sessions collected for one system, tied to its component model."""

    model: ComponentModel
    sessions: tuple[Session, ...]

    def __post_init__(self):
        # Records are validated once, in parse_log; a bundle checks only
        # what ties its sessions together.
        seen = set()
        for session in self.sessions:
            key = (session.user_id, session.task_id)
            if key in seen:
                raise DuplicateUserTask(f"duplicate session for user/task {key}")
            seen.add(key)
            if session.model is not self.model and session.model != self.model:
                raise HierarchyMismatch(
                    f"session for system {session.system_name!r} bundled with "
                    f"model {self.model.system_name!r}"
                )

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.user_id for s in self.sessions}))


_LEVEL1 = {level.value: level for level in Level1}
_RECORD_FIELDS = frozenset({"timestamp", "lv1_id", "lv2_id", "comp_id", "other"})
_REQUIRED_FIELDS = frozenset({"timestamp", "lv1_id", "lv2_id", "comp_id"})


def parse_log(
    text: str,
    model: ComponentModel,
    *,
    user_id: str,
    task_id: str,
    sort_timestamps: bool = False,
    allow_unknown_components: bool = False,
) -> Session:
    """Parse the text of one line-delimited log into a validated :class:`Session`.

    Each record is checked once, in this order: JSON, fields, timestamp,
    ``lv1_id``, unknown component, hierarchy, ``other`` payload. Every
    error names the line. An ``other`` payload is checked and not kept. With
    ``sort_timestamps``, out-of-order records
    are stably sorted by timestamp; otherwise decreasing timestamps are
    rejected. With ``allow_unknown_components``, records naming components
    outside the model are quarantined on the session instead of failing
    the parse.

    ``text`` is split as a file is read: a line ends at ``\n``, ``\r\n``
    or ``\r`` and nowhere else, so a raw U+2028 in a JSON string is text.

    A text whose every line has the shape that :func:`session_to_jsonl`
    writes, with its stamp in the scan's subset of forms, is read in one
    scan; any other text is read line by line, with the same results and
    messages.
    """
    columns = _scan_log(text, model, allow_unknown_components)
    if columns is None:
        columns = _read_lines(text, model, allow_unknown_components)
    if not len(columns[0]):
        raise EmptyLog(f"log for {user_id}/{task_id} contains no records")
    ts_ms, comp_idx, quarantined = columns
    if sort_timestamps:
        order = np.argsort(ts_ms, kind="stable")  # stable: preserves input order on ties
        ts_ms, comp_idx = ts_ms[order], comp_idx[order]
    try:
        return Session(
            user_id=user_id,
            task_id=task_id,
            model=model,
            ts_ms=ts_ms,
            comp_idx=comp_idx,
            quarantined=tuple(quarantined),
        )
    except NonMonotonicTimestamps as exc:
        row = int(np.flatnonzero(np.diff(ts_ms) < 0)[0]) + 1
        raise NonMonotonicTimestamps(f"line {_line_of_row(text, row, quarantined)}: {exc}") from None


def _line_of_row(text: str, row: int, quarantined: Sequence[Mapping]) -> int:
    """The line number of record ``row``: the lines that are neither blank
    nor quarantined hold the records, in order."""
    skipped = {q["line"] for q in quarantined}
    lines = enumerate(io.StringIO(text, newline=None), start=1)
    return [n for n, line in lines if line.strip() and n not in skipped][row]


# One line as session_to_jsonl writes it, with its stamp in any form of the
# scan's subset of _ISO_RE: the component's prefix, an optional 'other'
# object, and the stamp. A canonical stamp is group 3, any other group 4.
# Date and clock are each all extended or all basic, the rule that _ISO_RE's
# back-references keep; seconds and a 3-digit fraction are present, and the
# zone is Z or a signed HH:MM or HHMM offset. Digits are [0-9], not \d,
# which also matches non-ASCII digits.
_LINE_RE = re.compile(
    r'^(\{"comp_id": "[a-z0-9_]+", "lv1_id": "[a-z0-9_]+", "lv2_id": "[a-z0-9_]+", )'
    r'(?:"other": (\{.*\}), )?'
    r'"timestamp": "(?:([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z)|'
    r"((?:[0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{8})T(?:[0-9]{2}:[0-9]{2}:[0-9]{2}|[0-9]{6})"
    r'[.,][0-9]{3}(?:Z|[+-][0-9]{2}:?[0-9]{2})))"\}\n',
    re.M,
)
# The parts of a stamp that _LINE_RE took, its Z written +0000. Joined by
# "-", each stamp reads "YYYY-MM-DD-hh-mm-ss.fff+HH-MM-" (the fraction's
# separator may be a comma, the sign a minus), so its first ten characters
# are its date in extended form.
_STAMP_PARTS = re.compile(
    r"([0-9]{4})-?([0-9]{2})-?([0-9]{2})T([0-9]{2}):?([0-9]{2}):?"
    r"([0-9]{2}[.,][0-9]{3}[+-][0-9]{2}):?([0-9]{2})"
)
_STAMP_WIDTH = 30
_SIGN_COL = 23
# Weights of a row's characters, read as digits, in hour, minute, second,
# ms, offset hours and offset minutes; and the largest value of each field.
_CLOCK = np.zeros((_STAMP_WIDTH, 6), dtype=np.int64)
for _field, _cols in enumerate(((11, 12), (14, 15), (17, 18), (20, 21, 22), (24, 25), (27, 28))):
    _CLOCK[_cols, _field] = [10 ** k for k in reversed(range(len(_cols)))]
_CLOCK_ZERO = ord("0") * _CLOCK.sum(axis=0)
_CLOCK_MAX = np.array([23, 59, 59, 999, 23, 59])
_CLOCK_MS = np.array([3_600_000, 60_000, 1000, 1])
_MIN_DAY = _MIN_MS // 86_400_000
_scan_json = json.JSONDecoder().scan_once
# ts_ms, comp_idx, quarantined records
_Columns = tuple[np.ndarray, np.ndarray, Sequence[dict]]


@lru_cache(maxsize=16)
def _prefix_table(model: ComponentModel) -> tuple[dict[str, int], tuple[bool, ...]]:
    """Each line prefix of ``model`` to its component's index, and per index
    whether that component's line may carry an ``other`` payload. The last
    entry, at ``len(model)``, is for a prefix not in the table: the per-line
    loop quarantines or rejects such a line before it looks at the payload."""
    table = {prefix: idx for idx, prefix in enumerate(_line_prefixes(model))}
    return table, tuple(c.l2_id in OTHER_ALLOWED_L2 for c in model.components) + (True,)


def _scan_stamps(stamps: Sequence[str]) -> np.ndarray:
    """Epoch ms of stamps that _LINE_RE took, in one findall and a few numpy
    calls, with the checks and results of :func:`parse_timestamp`.

    Raises ValueError for a date that does not exist, year 0000, or a clock
    or offset field out of range.
    """
    parts = _STAMP_PARTS.findall("\n".join(stamps).replace("Z", "+0000"))
    joined = "-".join(chain.from_iterable(parts)) + "-"
    raw = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(len(stamps), _STAMP_WIDTH)
    # numpy rejects month 13, day 32 and 30 February
    days = raw[:, :10].copy().view("S10")[:, 0].astype("datetime64[D]").astype(np.int64)
    if days.min() < _MIN_DAY:  # the year field is 0000, which numpy accepts
        raise ValueError("year 0")
    clock = raw @ _CLOCK - _CLOCK_ZERO
    if (clock.max(axis=0) > _CLOCK_MAX).any():
        raise ValueError("clock or offset field out of range")
    offset_ms = (clock[:, 4] * 60 + clock[:, 5]) * 60_000
    offset_ms[raw[:, _SIGN_COL] == ord("-")] *= -1
    return days * 86_400_000 + clock[:, :4] @ _CLOCK_MS - offset_ms


def _scan_log(text: str, model: ComponentModel, allow_unknown_components: bool) -> _Columns | None:
    """The columns of a log in which every line has the ``synth`` shape,
    with a stamp in the scan's subset of forms, and passes every check,
    read in one scan; None for any other text.

    The matches tile the text line by line: there is no ``\\r``, the last
    line matches, so the text ends with ``\\n``, each match starts at a line
    start and holds one ``\\n``, its last character, and there are as many
    matches as ``\\n``. A prefix in the model's table names a known
    component with its own level-1 and level-2 ids, so such a line is a
    valid record, with the values that ``json.loads`` would give, once its
    ``other`` is one JSON object on a component that allows it and its stamp
    is a real instant. The payload is checked and then dropped. With
    ``allow_unknown_components``, a line with any other prefix is
    quarantined, as the per-line loop does, if its stamp is a real instant,
    its ``other`` is one JSON object, its level-1 id is known and its
    component is not in the model.
    """
    if "\r" in text:
        return None
    # The first and the last line are tried before the rest, so that a file
    # the scan cannot read usually costs two matches.
    last = text.rfind("\n", 0, -1) + 1
    if not (_LINE_RE.match(text) and _LINE_RE.match(text, last)):
        return None
    rows = _LINE_RE.findall(text)
    if len(rows) != text.count("\n"):
        return None
    prefixes, payloads, canonical, other = zip(*rows)
    table, allows_other = _prefix_table(model)
    unknown = len(model)
    try:
        idx = list(map(table.__getitem__, prefixes))
    except KeyError:
        if not allow_unknown_components:
            return None
        idx = [table.get(prefix, unknown) for prefix in prefixes]
    if not all(map(allows_other.__getitem__, compress(idx, payloads))):
        return None
    try:
        # A payload starts with '{', so scan_once returns a dict or raises.
        # A file repeats its payloads: each distinct one is decoded once.
        for payload in set(payloads):
            if payload and _scan_json(payload, 0)[1] != len(payload):
                return None
        if all(canonical):
            # S23 leaves out the Z; numpy rejects hour 24, second 60,
            # 30 February and month 13
            ts_ms = np.array(canonical, dtype="S23").astype("datetime64[ms]").astype(np.int64)
            if ts_ms.min() < _MIN_MS:  # the year field is 0000
                return None
        else:
            ts_ms = _scan_stamps(list(map(operator.add, canonical, other)))
    except (StopIteration, ValueError, RecursionError):
        return None
    comp_idx = np.array(idx, dtype=np.int32)
    if unknown not in idx:
        return ts_ms, comp_idx, ()
    quarantined = []
    for row in np.flatnonzero(comp_idx == unknown).tolist():
        # '{"comp_id": "<id>", "lv1_id": "<id>", ...', with no escapes in [a-z0-9_]
        fields = prefixes[row].split('"')
        comp_id, lv1 = fields[3], fields[7]
        if comp_id in model.index or lv1 not in _LEVEL1:
            return None
        quarantined.append({"line": row + 1, "comp_id": comp_id})
    known = comp_idx != unknown
    return ts_ms[known], comp_idx[known], quarantined


def _read_lines(text: str, model: ComponentModel, allow_unknown_components: bool) -> _Columns:
    """The columns of any log, checked record by record; every error names its line."""
    index = model.index
    components = model.components
    parse = parse_timestamp
    ts_list: list[int] = []
    idx_list: list[int] = []
    quarantined: list[dict] = []
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"not valid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise MalformedRecord("not valid JSON (nested too deeply)") from exc
            if not isinstance(raw, dict):
                raise MalformedRecord("record must be a JSON object")
            if not raw.keys() <= _RECORD_FIELDS:
                raise MalformedRecord(f"unknown fields {sorted(set(raw) - _RECORD_FIELDS)}")
            if not raw.keys() >= _REQUIRED_FIELDS:
                raise MalformedRecord(f"missing fields {sorted(_REQUIRED_FIELDS - set(raw))}")
            ts_ms = parse(str(raw["timestamp"]))
            lv1 = _LEVEL1.get(str(raw["lv1_id"]).strip().lower())
            if lv1 is None:
                raise MalformedRecord(f"unknown lv1_id {raw['lv1_id']!r}")
            comp_id = str(raw["comp_id"])
            idx = index.get(comp_id)
            if idx is None:
                if allow_unknown_components:
                    quarantined.append({"line": line_no, "comp_id": comp_id})
                    continue
                raise UnknownComponent(
                    f"comp_id {comp_id!r} is not in model {model.system_name!r}"
                )
            comp = components[idx]
            lv2 = str(raw["lv2_id"])
            if lv1 is not comp.l1_id or lv2 != comp.l2_id:
                raise HierarchyMismatch(
                    f"record names ({lv1.value!r}, {lv2!r}) for comp_id {comp_id!r}, "
                    f"but the model has ({comp.l1_id.value!r}, {comp.l2_id!r})"
                )
            if raw.get("other") is not None and comp.l2_id not in OTHER_ALLOWED_L2:
                raise UnexpectedOtherPayload(
                    f"comp_id {comp_id!r} (level-2 {comp.l2_id!r}) carries an "
                    f"'other' payload; only {OTHER_ALLOWED_L2} components may"
                )
        except TelemetryError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from exc
        ts_list.append(ts_ms)
        idx_list.append(idx)

    return np.array(ts_list, dtype=np.int64), np.array(idx_list, dtype=np.int32), quarantined


def load_bundle(
    directory: str | Path,
    model: ComponentModel,
    *,
    sort_timestamps: bool = False,
    allow_unknown_components: bool = False,
) -> SessionBundle:
    """Load every ``<user>_<task>.jsonl`` file under ``directory``.

    Per-file parse failures, bytes that are not UTF-8 among them, are
    collected and raised together as one :class:`BundleLoadError`;
    duplicate (user, task) pairs and an empty directory fail immediately.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.jsonl"), key=lambda p: p.name)
    if not paths:
        raise NoLogsFound(f"no *.jsonl files in {directory}")

    flags = dict(sort_timestamps=sort_timestamps, allow_unknown_components=allow_unknown_components)
    sessions: list[Session] = []
    failures: list[tuple[str, str]] = []
    seen: dict[tuple[str, str], str] = {}
    for path in paths:
        stem = path.stem
        if "_" not in stem:
            failures.append((path.name, "filename must look like <user>_<task>.jsonl"))
            continue
        user_id, task_id = stem.rsplit("_", 1)
        key = (user_id, task_id)
        if key in seen:
            raise DuplicateUserTask(
                f"{path.name} duplicates user/task {key} already loaded from {seen[key]}"
            )
        seen[key] = path.name
        try:
            text = decode_utf8(path.read_bytes(), TelemetryError)
            sessions.append(parse_log(text, model, user_id=user_id, task_id=task_id, **flags))
        except TelemetryError as exc:
            failures.append((path.name, str(exc)))
    if failures:
        raise BundleLoadError(failures)

    sessions.sort(key=lambda s: (s.user_id, s.task_id))
    return SessionBundle(model=model, sessions=tuple(sessions))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


# json.dumps(obj, sort_keys=True) without building an encoder per call.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


@lru_cache(maxsize=16)
def _line_prefixes(model: ComponentModel) -> tuple[str, ...]:
    """Per component, the start of its log lines: every key before ``other``."""
    return tuple(
        _encode_sorted({"comp_id": c.comp_id, "lv1_id": c.l1_id.value, "lv2_id": c.l2_id})[:-1]
        + ", "
        for c in model.components
    )


def session_to_jsonl(session: Session, other: Mapping[int, Any] = MappingProxyType({})) -> str:
    """One JSON object per record, keys sorted, ``\\n`` after every line.

    ``other`` maps a row (0 to ``len(session.ts_ms) - 1``) to its ``other``
    payload, for the rows that carry one. A line is its component's prefix,
    then ``other`` if the row has a payload, then the timestamp: the bytes
    of ``json.dumps(record, sort_keys=True)``.
    """
    n = len(session.ts_ms)
    if other and not (min(other) >= 0 and max(other) < n):
        raise TelemetryError(
            f"session {session.user_id}/{session.task_id}: 'other' rows must lie in "
            f"0..{n - 1}, got {sorted(other)}"
        )
    prefixes = _line_prefixes(session.model)
    heads = [prefixes[i] for i in session.comp_idx.tolist()]
    for row, payload in other.items():
        heads[row] += f'"other": {_encode_sorted(payload)}, '
    stamps = _format_stamps(session.ts_ms)
    return "".join([f'{head}"timestamp": "{stamp}Z"}}\n' for head, stamp in zip(heads, stamps)])


def bundle_manifest(bundle: SessionBundle) -> dict:
    """Summary document: one row per session with counts and time span."""
    sessions = bundle.sessions
    starts = _format_stamps(np.array([s.start_ms for s in sessions], dtype=np.int64))
    ends = _format_stamps(np.array([s.end_ms for s in sessions], dtype=np.int64))
    return {
        "system_name": bundle.model.system_name,
        "session_count": len(bundle),
        "user_count": len(bundle.user_ids),
        "sessions": [
            {
                "user_id": s.user_id,
                "task_id": s.task_id,
                "record_count": len(s.ts_ms),
                "quarantined_count": len(s.quarantined),
                "start": start + "Z",
                "end": end + "Z",
                "span_ms": s.span_ms,
            }
            for s, start, end in zip(sessions, starts, ends)
        ],
    }

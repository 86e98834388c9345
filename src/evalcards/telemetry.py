"""Interaction-log ingestion.

Logs arrive as line-delimited JSON, one record per interaction, with the
fields ``timestamp``, ``lv1_id``, ``lv2_id``, ``comp_id`` and an optional
``other`` payload. Records are validated against a resolved
:class:`~evalcards.taxonomy.ComponentModel` and grouped into per-(user, task)
sessions. Validation is strict by default; sorting out-of-order timestamps
and quarantining unknown components are explicit opt-ins.

Timestamps are any common ISO-8601 calendar date-time (extended or basic
form, comma or dot fractions, ``Z`` or numeric offsets; week and ordinal
dates are not supported). They are normalized to UTC milliseconds; offsets
are honored and then discarded, sub-millisecond digits truncate.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .errors import EvalCardsError
from .taxonomy import ComponentModel, Level1

__all__ = [
    "LogRecord",
    "Session",
    "SessionBundle",
    "parse_log",
    "load_bundle",
    "parse_timestamp",
    "format_timestamp",
    "record_to_dict",
    "session_to_jsonl",
    "bundle_manifest",
]

# Level-2 keys whose components may carry an 'other' payload.
OTHER_ALLOWED_L2 = ("specify_problem", "explain_model")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)

_ISO_RE = re.compile(
    r"""^
    (?P<year>\d{4})(?P<dsep>-?)(?P<month>\d{2})(?P=dsep)(?P<day>\d{2})
    [Tt\ ]
    (?P<hour>\d{2})(?P<tsep>:?)(?P<minute>\d{2})(?:(?P=tsep)(?P<second>\d{2}))?
    (?:[.,](?P<frac>\d+))?
    (?P<zone>[Zz]|[+-]\d{2}(?::?\d{2})?)?
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
    parts = match.groupdict()
    try:
        dt = datetime(
            int(parts["year"]),
            int(parts["month"]),
            int(parts["day"]),
            int(parts["hour"]),
            int(parts["minute"]),
            int(parts["second"] or 0),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise MalformedTimestamp(f"{text!r}: {exc}") from exc

    zone = parts["zone"]
    offset_min = 0
    if zone and zone not in ("Z", "z"):
        sign = 1 if zone[0] == "+" else -1
        digits = zone[1:].replace(":", "")
        hours, minutes = int(digits[:2]), int(digits[2:] or 0)
        if hours > 23 or minutes > 59:
            raise MalformedTimestamp(f"bad UTC offset in {text!r}")
        offset_min = sign * (hours * 60 + minutes)

    base_ms = (dt - _EPOCH) // _MS - offset_min * 60_000
    frac = parts["frac"] or ""
    frac_ms = int(frac.ljust(3, "0")[:3]) if frac else 0
    return base_ms + frac_ms


def format_timestamp(ms: int) -> str:
    """Canonical UTC rendering with millisecond precision."""
    dt = _EPOCH + timedelta(milliseconds=ms)
    return f"{dt:%Y-%m-%dT%H:%M:%S}.{ms % 1000:03d}Z"


@dataclass(frozen=True)
class LogRecord:
    """One interaction: the instant a user entered a terminal component."""

    ts_ms: int
    lv1_id: Level1
    lv2_id: str
    comp_id: str
    other: Any = None


@dataclass(frozen=True)
class Session:
    """Time-ordered records for one (user, task) run against one system."""

    user_id: str
    system_name: str
    task_id: str
    records: tuple[LogRecord, ...]
    quarantined: tuple[Mapping, ...] = ()

    def __post_init__(self):
        if not self.records:
            raise EmptyLog(f"session {self.user_id}/{self.task_id} has no records")
        ts = [r.ts_ms for r in self.records]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise NonMonotonicTimestamps(
                f"session {self.user_id}/{self.task_id} has decreasing timestamps"
            )

    @property
    def start_ms(self) -> int:
        return self.records[0].ts_ms

    @property
    def end_ms(self) -> int:
        return self.records[-1].ts_ms

    @property
    def span_ms(self) -> int:
        return self.end_ms - self.start_ms

    def comp_sequence(self) -> tuple[str, ...]:
        return tuple(r.comp_id for r in self.records)


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
            if session.system_name != self.model.system_name:
                raise HierarchyMismatch(
                    f"session for system {session.system_name!r} bundled with "
                    f"model {self.model.system_name!r}"
                )

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.user_id for s in self.sessions}))

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.task_id for s in self.sessions}))


def _check_record(record: LogRecord, by_id: Mapping[str, Any]) -> None:
    comp = by_id[record.comp_id]  # parse_log has set unknown components aside
    if record.lv1_id is not comp.l1_id or record.lv2_id != comp.l2_id:
        raise HierarchyMismatch(
            f"record names ({record.lv1_id.value!r}, {record.lv2_id!r}) for "
            f"comp_id {record.comp_id!r}, but the model has "
            f"({comp.l1_id.value!r}, {comp.l2_id!r})"
        )
    if record.other is not None and comp.l2_id not in OTHER_ALLOWED_L2:
        raise UnexpectedOtherPayload(
            f"comp_id {record.comp_id!r} (level-2 {comp.l2_id!r}) carries an "
            f"'other' payload; only {OTHER_ALLOWED_L2} components may"
        )


_RECORD_FIELDS = {"timestamp", "lv1_id", "lv2_id", "comp_id", "other"}


def _parse_line(line: str, line_no: int) -> LogRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"line {line_no}: not valid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise MalformedRecord(f"line {line_no}: record must be a JSON object")
    unknown = set(raw) - _RECORD_FIELDS
    if unknown:
        raise MalformedRecord(f"line {line_no}: unknown fields {sorted(unknown)}")
    missing = {"timestamp", "lv1_id", "lv2_id", "comp_id"} - set(raw)
    if missing:
        raise MalformedRecord(f"line {line_no}: missing fields {sorted(missing)}")
    try:
        ts_ms = parse_timestamp(str(raw["timestamp"]))
    except MalformedTimestamp as exc:
        raise MalformedTimestamp(f"line {line_no}: {exc}") from exc
    try:
        lv1 = Level1.parse(raw["lv1_id"])
    except EvalCardsError:
        raise MalformedRecord(f"line {line_no}: unknown lv1_id {raw['lv1_id']!r}") from None
    return LogRecord(
        ts_ms=ts_ms,
        lv1_id=lv1,
        lv2_id=str(raw["lv2_id"]),
        comp_id=str(raw["comp_id"]),
        other=raw.get("other"),
    )


def parse_log(
    stream: str | Iterable[str],
    model: ComponentModel,
    *,
    user_id: str,
    task_id: str,
    sort_timestamps: bool = False,
    allow_unknown_components: bool = False,
) -> Session:
    """Parse one line-delimited log into a validated :class:`Session`.

    With ``sort_timestamps``, out-of-order records are stably sorted by
    timestamp; otherwise decreasing timestamps are rejected. With
    ``allow_unknown_components``, records naming components outside the
    model are quarantined on the session instead of failing the parse.
    """
    lines = stream.splitlines() if isinstance(stream, str) else stream
    by_id = model.by_id
    records: list[LogRecord] = []
    quarantined: list[dict] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = _parse_line(line, line_no)
        if record.comp_id not in by_id:
            if allow_unknown_components:
                quarantined.append({"line": line_no, "record": json.loads(line)})
                continue
            raise UnknownComponent(
                f"line {line_no}: comp_id {record.comp_id!r} is not in model "
                f"{model.system_name!r}"
            )
        _check_record(record, by_id)
        records.append(record)

    if not records:
        raise EmptyLog(f"log for {user_id}/{task_id} contains no records")
    if sort_timestamps:
        records.sort(key=lambda r: r.ts_ms)  # stable: preserves input order on ties
    return Session(
        user_id=user_id,
        system_name=model.system_name,
        task_id=task_id,
        records=tuple(records),
        quarantined=tuple(quarantined),
    )


def load_bundle(
    directory: str | Path,
    model: ComponentModel,
    *,
    sort_timestamps: bool = False,
    allow_unknown_components: bool = False,
) -> SessionBundle:
    """Load every ``<user>_<task>.jsonl`` file under ``directory``.

    Per-file parse failures are collected and raised together as one
    :class:`BundleLoadError`; duplicate (user, task) pairs and an empty
    directory fail immediately.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.jsonl"))
    if not paths:
        raise NoLogsFound(f"no *.jsonl files in {directory}")

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
            with path.open(encoding="utf-8") as fh:
                sessions.append(
                    parse_log(
                        fh,
                        model,
                        user_id=user_id,
                        task_id=task_id,
                        sort_timestamps=sort_timestamps,
                        allow_unknown_components=allow_unknown_components,
                    )
                )
        except TelemetryError as exc:
            failures.append((path.name, str(exc)))
    if failures:
        raise BundleLoadError(failures)

    sessions.sort(key=lambda s: (s.user_id, s.task_id))
    return SessionBundle(model=model, sessions=tuple(sessions))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def record_to_dict(record: LogRecord) -> dict:
    out = {
        "timestamp": format_timestamp(record.ts_ms),
        "lv1_id": record.lv1_id.value,
        "lv2_id": record.lv2_id,
        "comp_id": record.comp_id,
    }
    if record.other is not None:
        out["other"] = record.other
    return out


def session_to_jsonl(session: Session) -> str:
    lines = [json.dumps(record_to_dict(r), sort_keys=True) for r in session.records]
    return "\n".join(lines) + "\n"


def bundle_manifest(bundle: SessionBundle) -> dict:
    """Summary document: one row per session with counts and time span."""
    return {
        "system_name": bundle.model.system_name,
        "session_count": len(bundle),
        "user_count": len(bundle.user_ids),
        "sessions": [
            {
                "user_id": s.user_id,
                "task_id": s.task_id,
                "record_count": len(s.records),
                "quarantined_count": len(s.quarantined),
                "start": format_timestamp(s.start_ms),
                "end": format_timestamp(s.end_ms),
                "span_ms": s.span_ms,
            }
            for s in bundle.sessions
        ],
    }

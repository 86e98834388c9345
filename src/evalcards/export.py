"""The metrics export: build it, load it, validate it.

The export is the one document between ``analyze`` and the cards. This
module builds it (:func:`export_metrics`), reads it back from bytes
(:func:`load_export`) and checks it against :data:`SCHEMA`, the table that
declares every field. ``docs/export-schema.md`` documents the same table,
and a test holds the two together.
"""
from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import EvalCardsError
from .survey import ComponentAttitude, likert_box
from .taxonomy import ComponentModel

if TYPE_CHECKING:  # annotations only: loading an export never loads numpy
    from .metrics import DescriptiveStats, MetricSet

__all__ = [
    "DEFAULT_IDLE_CAP_MS",
    "EXPORT_KIND",
    "EXPORT_SCHEMA_VERSION",
    "SCHEMA",
    "ExportSchemaError",
    "ModelMismatch",
    "export_metrics",
    "load_export",
    "validate_export",
]

EXPORT_KIND = "evalcards-export"
EXPORT_SCHEMA_VERSION = 1

# The export's default ``options.idle_cap_ms``. It lives here rather than in
# ``metrics`` so that the CLI can offer it without importing numpy.
DEFAULT_IDLE_CAP_MS = 10 * 60 * 1000


class ExportSchemaError(EvalCardsError):
    pass


class ModelMismatch(EvalCardsError):
    pass


# --------------------------------------------------------------------------
# Building the export
# --------------------------------------------------------------------------


def _box_or_none(values: Sequence[float]) -> dict | None:
    return likert_box(values).to_dict() if values else None


def _session_keys(rows) -> list[tuple[str, str]]:
    return [(r.user_id, r.task_id) for r in rows]


def export_metrics(
    metric_set: MetricSet,
    attitudes: Mapping[str, ComponentAttitude],
    descriptive: DescriptiveStats,
) -> dict:
    """Assemble the canonical export: every chartable number in one document.

    The attitudes must cover exactly the model's components, and the
    metrics and ``descriptive`` the same sessions in the same order;
    otherwise :class:`ModelMismatch` is raised.
    """
    model = metric_set.model
    effort = metric_set.effort
    if set(attitudes) != set(model.comp_ids):
        raise ModelMismatch("attitudes do not cover the model's terminal components")
    sessions = _session_keys(descriptive.rows)
    if (_session_keys(effort.per_session) != sessions
            or _session_keys(metric_set.session_linearity) != sessions):
        raise ModelMismatch("behavioral metrics and descriptive stats cover different sessions")

    per_session = []
    share_points: dict[str, list[float]] = {c: [] for c in model.comp_ids}
    for row in effort.per_session:
        attributed = row.attributed_ms
        shares = {
            comp: (ms / attributed if attributed else 0.0)
            for comp, ms in row.per_comp_ms.items()
        }
        for comp, share in shares.items():
            share_points[comp].append(share)
        per_session.append(
            {
                "user_id": row.user_id,
                "task_id": row.task_id,
                "attributed_ms": attributed,
                "per_comp_ms": dict(row.per_comp_ms),
                "share": shares,
            }
        )
    grand_total = sum(effort.totals_ms.values())
    share_totals = {
        comp: (ms / grand_total if grand_total else 0.0) for comp, ms in effort.totals_ms.items()
    }

    completion = [float(r.completion_ms) for r in descriptive.rows]
    steps = [float(r.steps) for r in descriptive.rows]
    sus_values = [descriptive.sus[u] for u in sorted(descriptive.sus)]

    return {
        "kind": EXPORT_KIND,
        "schema_version": EXPORT_SCHEMA_VERSION,
        "system_name": model.system_name,
        "options": {
            "idle_cap_ms": metric_set.idle_cap_ms,
            "collapse_repeats": metric_set.collapse_repeats,
        },
        "model": model.to_dict(),
        "descriptive": {
            "sessions": [
                {
                    "user_id": r.user_id,
                    "task_id": r.task_id,
                    "completion_ms": r.completion_ms,
                    "steps": r.steps,
                }
                for r in descriptive.rows
            ],
            "sus": dict(descriptive.sus),
            "missing_sus": list(descriptive.missing_sus),
            "summary": {
                "completion_ms": _box_or_none(completion),
                "steps": _box_or_none(steps),
                "sus": _box_or_none(sus_values),
            },
        },
        "attitudes": {
            comp_id: {
                "no_data": att.no_data,
                "efficiency": att.efficiency.to_dict() if att.efficiency else None,
                "effectiveness": att.effectiveness.to_dict() if att.effectiveness else None,
            }
            for comp_id, att in attitudes.items()
        },
        "effort": {
            "totals_ms": dict(effort.totals_ms),
            "visit_counts": dict(effort.visit_counts),
            "share_totals": share_totals,
            "share_box": {comp: _box_or_none(points) for comp, points in share_points.items()},
            "per_session": per_session,
        },
        "transitions": {
            "l3": metric_set.l3_matrix.to_dict(),
            "l2": metric_set.l2_matrix.to_dict(),
        },
        "linearity": {
            "order": list(model.comp_ids),
            "per_session": [
                {
                    "user_id": row.user_id,
                    "task_id": row.task_id,
                    "value": row.index.value,
                    "forward": row.index.forward_count,
                    "backward": row.index.backward_count,
                    "self": row.index.self_count,
                }
                for row in metric_set.session_linearity
            ],
            "pooled": {
                "value": metric_set.pooled_linearity.value,
                "forward": metric_set.pooled_linearity.forward_count,
                "backward": metric_set.pooled_linearity.backward_count,
                "self": metric_set.pooled_linearity.self_count,
            },
        },
    }


# --------------------------------------------------------------------------
# The schema: kinds of field
# --------------------------------------------------------------------------
# A plain dict is an object with exactly those keys; ``[spec]`` is an array
# of ``spec``. The model gives the axes: ``comp_id`` (its components in
# canonical order) and ``l2_id`` (its level-2 keys in canonical order).


class Scalar(NamedTuple):
    """A JSON value whose Python type, after parsing, is one of ``types``.

    ``int`` is ``type(v) is int``, so neither bool nor float passes;
    ``num`` is int or float.
    """

    word: str  # the type word the docs use
    noun: str  # what an error says the value must be
    types: tuple[type, ...]
    bounds: tuple[float, float] | None = None


class Opt(NamedTuple):
    """``spec``, or null."""

    spec: object


class Map(NamedTuple):
    """An object of ``value``; keyed by the model's components when ``key``
    is ``comp_id``, by any string otherwise."""

    value: object
    key: str


class Order(NamedTuple):
    """An array equal to the model's ``axis``, in canonical order."""

    axis: str


class Square(NamedTuple):
    """An n x n array of ``cell``, n being the length of the model's ``axis``."""

    cell: Scalar
    axis: str


class Checked(NamedTuple):
    """``spec``, then ``check(value)``: an error message, or None."""

    spec: object
    check: Callable[[dict], str | None]


class Rows(NamedTuple):
    """A per-session array of flat objects: each field a :class:`Scalar`,
    or a ``comp_id`` :class:`Map` of scalars."""

    fields: dict


STRING = Scalar("string", "a string", (str,))
BOOL = Scalar("bool", "a boolean", (bool,))
INT = Scalar("int", "an integer", (int,))
NUM = Scalar("num", "a number", (int, float))
COUNT = Scalar("count", "a non-negative integer", (int,), (0, float("inf")))
SHARE = Scalar("share", "a number in [0, 1]", (int, float), (0, 1))

_BOX_ORDER = ("min", "lower_hinge", "median", "upper_hinge", "max")


def _box_ordered(box: dict) -> str | None:
    values = [box[key] for key in _BOX_ORDER]
    if values != sorted(values):
        return "must hold min <= lower_hinge <= median <= upper_hinge <= max"
    return None


# --------------------------------------------------------------------------
# The schema table (version 1)
# --------------------------------------------------------------------------

BOX = Checked(
    {
        "n": INT,
        "min": NUM,
        "lower_hinge": NUM,
        "median": NUM,
        "upper_hinge": NUM,
        "max": NUM,
        "whisker_low": NUM,
        "whisker_high": NUM,
        "outliers": [NUM],
    },
    _box_ordered,
)


def _matrix(axis: str) -> dict:
    return {"level": STRING, "order": Order(axis), "counts": Square(COUNT, axis)}


SCHEMA = {
    "kind": STRING,
    "schema_version": INT,
    "system_name": STRING,
    "options": {
        "idle_cap_ms": Scalar("int or null", "an integer or null", (int, type(None))),
        "collapse_repeats": BOOL,
    },
    "model": {
        "system_name": STRING,
        "components": [
            {"comp_id": STRING, "label": STRING, "l1_id": STRING, "l2_id": STRING, "origin": STRING}
        ],
    },
    "descriptive": {
        "sessions": Rows(
            {"user_id": STRING, "task_id": STRING, "completion_ms": INT, "steps": INT}
        ),
        "sus": Map(NUM, "user_id"),
        "missing_sus": [STRING],
        "summary": {"completion_ms": Opt(BOX), "steps": Opt(BOX), "sus": Opt(BOX)},
    },
    "attitudes": Map(
        {"no_data": BOOL, "efficiency": Opt(BOX), "effectiveness": Opt(BOX)}, "comp_id"
    ),
    "effort": {
        "totals_ms": Map(INT, "comp_id"),
        "visit_counts": Map(INT, "comp_id"),
        "share_totals": Map(SHARE, "comp_id"),
        "share_box": Map(Opt(BOX), "comp_id"),
        "per_session": Rows(
            {
                "user_id": STRING,
                "task_id": STRING,
                "attributed_ms": INT,
                "per_comp_ms": Map(INT, "comp_id"),
                "share": Map(SHARE, "comp_id"),
            }
        ),
    },
    "transitions": {"l3": _matrix("comp_id"), "l2": _matrix("l2_id")},
    "linearity": {
        "order": Order("comp_id"),
        "per_session": Rows(
            {
                "user_id": STRING,
                "task_id": STRING,
                "value": NUM,
                "forward": INT,
                "backward": INT,
                "self": INT,
            }
        ),
        "pooled": {"value": NUM, "forward": INT, "backward": INT, "self": INT},
    },
}

# Per-session arrays that hold the ``(user_id, task_id)`` sequence of
# ``descriptive.sessions``, row for row.
ALIGNED = (("effort", "per_session"), ("linearity", "per_session"))


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ExportSchemaError(f"{path or 'export'}: {message}")


def _got(value) -> str:
    return "null" if value is None else type(value).__name__


def _check(value, spec, path: str, axes: Mapping[str, tuple]) -> None:
    """Check ``value`` against ``spec``; errors name the JSON ``path``."""
    kind = type(spec)
    if kind is Scalar:
        if type(value) not in spec.types:
            _fail(path, f"must be {spec.noun}, got {_got(value)}")
        if spec.bounds and not spec.bounds[0] <= value <= spec.bounds[1]:
            _fail(path, f"must be {spec.noun}, got {value!r}")
    elif kind is Opt:
        if value is not None:
            _check(value, spec.spec, path, axes)
    elif kind is dict or kind is Map:
        if type(value) is not dict:
            _fail(path, f"must be an object, got {_got(value)}")
        if kind is dict:
            if value.keys() != spec.keys():
                missing = [key for key in spec if key not in value]
                if missing:
                    _fail(path, f"missing key {missing[0]!r}")
                _fail(path, f"unexpected key {sorted(value.keys() - spec.keys())[0]!r}")
            items = spec.items()
        else:
            if spec.key in axes and value.keys() != set(axes[spec.key]):
                _fail(path, "keys do not match the model's components")
            items = ((key, spec.value) for key in value)
        for key, sub in items:
            _check(value[key], sub, f"{path}.{key}" if path else key, axes)
    elif kind is list or kind is Rows:
        if type(value) is not list:
            _fail(path, f"must be an array, got {_got(value)}")
        if kind is Rows and _rows_pass(value, spec.fields, axes):
            return
        item = spec[0] if kind is list else spec.fields
        for i, element in enumerate(value):
            _check(element, item, f"{path}[{i}]", axes)
    elif kind is Order:
        if value != list(axes[spec.axis]):
            _fail(path, "does not match the model")
    elif kind is Square:
        n = len(axes[spec.axis])
        if type(value) is not list or len(value) != n:
            _fail(path, f"must be an array of {n} rows")
        for i, row in enumerate(value):
            if type(row) is not list or len(row) != n:
                _fail(f"{path}[{i}]", f"must be an array of {n} cells")
            for j, cell in enumerate(row):
                _check(cell, spec.cell, f"{path}[{i}][{j}]", axes)
    else:  # Checked
        _check(value, spec.spec, path, axes)
        message = spec.check(value)
        if message:
            _fail(path, message)


def _keys_are(dicts: list, keys) -> bool:
    """Whether each of ``dicts`` holds exactly ``keys``: len(keys) keys, all
    drawn from ``keys``."""
    return set(map(len, dicts)) <= {len(keys)} and set(chain.from_iterable(dicts)) <= keys


def _rows_pass(rows: list, fields: dict, axes: Mapping[str, tuple]) -> bool:
    """Whether ``rows`` pass a fast test that accepts no row :func:`_check`
    would reject. It runs column by column in builtins, with no Python call
    per value; on False the caller checks each row to find the fault."""
    if not (set(map(type, rows)) <= {dict} and _keys_are(rows, fields.keys())):
        return False
    comp_ids = set(axes["comp_id"])
    for key, spec in fields.items():
        column = list(map(itemgetter(key), rows))
        if type(spec) is Map:
            if not (set(map(type, column)) <= {dict} and _keys_are(column, comp_ids)):
                return False
            column = list(chain.from_iterable(map(dict.values, column)))
            spec = spec.value
        if not set(map(type, column)) <= set(spec.types):
            return False
        low, high = spec.bounds or (None, None)
        if column and low is not None and not (low <= min(column) and max(column) <= high):
            return False
    return True


def validate_export(doc) -> None:
    """Check ``doc`` against :data:`SCHEMA` and the model it carries; raise
    :class:`ExportSchemaError` naming the JSON path of the first fault."""
    if type(doc) is not dict:
        raise ExportSchemaError("export must be a JSON object")
    if doc.get("kind") != EXPORT_KIND:
        raise ExportSchemaError(f"not an evalcards export (kind={doc.get('kind')!r})")
    if doc.get("schema_version") != EXPORT_SCHEMA_VERSION:
        raise ExportSchemaError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"this build reads version {EXPORT_SCHEMA_VERSION}"
        )
    for key in ("system_name", "model"):
        if key not in doc:
            _fail("", f"missing key {key!r}")
        _check(doc[key], SCHEMA[key], key, {})
    try:
        model = ComponentModel.from_dict(doc["model"])
    except EvalCardsError as exc:
        raise ExportSchemaError(f"model: {exc}") from exc
    if model.system_name != doc["system_name"]:
        _fail("model.system_name", "does not match system_name")
    _check(doc, SCHEMA, "", {"comp_id": model.comp_ids, "l2_id": model.l2_order})

    session_key = itemgetter("user_id", "task_id")
    sessions = list(map(session_key, doc["descriptive"]["sessions"]))
    for section, key in ALIGNED:
        path = f"{section}.{key}"
        keys = list(map(session_key, doc[section][key]))
        if len(keys) != len(sessions):
            _fail(path, f"has {len(keys)} rows, descriptive.sessions has {len(sessions)}")
        if keys != sessions:
            at = next(i for i, pair in enumerate(keys) if pair != sessions[i])
            _fail(f"{path}[{at}]", f"is not the session of descriptive.sessions[{at}]")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_export(data: bytes) -> dict:
    """Decode, parse and validate an export's bytes.

    This is the only parse and the only validation an export gets on its
    way to a report, from a file or from the dict API alike. ``NaN`` and
    ``Infinity`` are not JSON numbers and are rejected.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExportSchemaError(f"byte {exc.start}: not valid UTF-8") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # a JSONDecodeError, or NaN/Infinity
        raise ExportSchemaError(f"not valid JSON ({getattr(exc, 'msg', exc)})") from exc
    del text
    validate_export(doc)
    return doc

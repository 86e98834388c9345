"""Canonical document emission.

Exports and serialized models must be byte-stable: the same inputs must
produce the same bytes on any machine, so reports can be verified by digest.
``json.dumps`` alone cannot pin float formatting, hence this tiny emitter:
keys are sorted, floats are written with exactly four decimal places, and
durations/counts stay bare integers.

:func:`write_canonical_json` hands the same text to a sink in chunks of a
few thousand pieces, so that a writer holds no more than one chunk of a
large document at a time.
"""
from __future__ import annotations

import hashlib
import math
import re
from typing import Any, Callable

__all__ = ["canonical_json", "write_canonical_json", "fmt_float", "fmt_num", "sha256_hex"]


def fmt_float(value: float) -> str:
    """Fixed four-decimal rendering used everywhere a float is emitted."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    text = f"{value:.4f}"
    if text == "-0.0000":  # normalize negative zero
        text = "0.0000"
    return text


def fmt_num(value: Any) -> str:
    """Compact exact rendering for chart labels: ints bare, floats trimmed.

    Trimming strips trailing zeros from the fixed four-decimal form, so a
    label always parses back to the exact value the export carries.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric label")
    if isinstance(value, int):
        return str(value)
    text = fmt_float(float(value))
    text = text.rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _escape(text: str) -> str:
    if not _NEEDS_ESCAPE.search(text):
        return text
    out = []
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


# Pieces the emitter holds before it hands them to a sink, joined.
_FLUSH_PIECES = 4096


def _emit(obj: Any, indent: int, pieces: list[str], sink: Callable[[str], Any] | None = None) -> None:
    """Append the text of ``obj`` to ``pieces``. Given a ``sink``, the
    emitter hands it the joined pieces and clears them before a list item or
    a dict member, once they number more than ``_FLUSH_PIECES``."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(fmt_float(obj))
    elif isinstance(obj, str):
        pieces.append(f'"{_escape(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        keys = sorted(obj)
        pieces.append("{\n")
        for i, key in enumerate(keys):
            if sink is not None and len(pieces) > _FLUSH_PIECES:
                sink("".join(pieces))
                pieces.clear()
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            pieces.append(f'{inner}"{_escape(key)}": ')
            _emit(obj[key], indent + 1, pieces, sink)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            if sink is not None and len(pieces) > _FLUSH_PIECES:
                sink("".join(pieces))
                pieces.clear()
            pieces.append(inner)
            _emit(item, indent + 1, pieces, sink)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical, key-sorted, fixed-format JSON text."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_canonical_json(obj: Any, sink: Callable[[str], Any]) -> None:
    """Hand the text of :func:`canonical_json` to ``sink`` in chunks; the
    chunks, joined, are that text."""
    pieces: list[str] = []
    _emit(obj, 0, pieces, sink)
    pieces.append("\n")
    sink("".join(pieces))


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()

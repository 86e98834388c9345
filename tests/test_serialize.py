"""Canonical JSON emission and exact numeric formatting."""
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evalcards import serialize
from evalcards.serialize import canonical_json, fmt_float, fmt_num, sha256_hex, write_canonical_json


def test_keys_sorted_and_floats_fixed():
    text = canonical_json({"b": 1, "a": 0.5, "c": [1, 2.0]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.5000" in text
    assert "2.0000" in text
    assert text.endswith("\n")


def test_canonical_json_is_idempotent():
    doc = {"x": [1, 2.25, {"y": None, "z": True}], "s": "hi\nthere"}
    once = canonical_json(doc)
    twice = canonical_json(json.loads(once))
    assert once == twice


def test_quantization_is_stable_under_round_trip():
    # one round trip may shorten a float; a second must not change anything
    doc = {"v": 1 / 3}
    once = json.loads(canonical_json(doc))
    assert once["v"] == 0.3333
    assert canonical_json(once) == canonical_json(json.loads(canonical_json(once)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        canonical_json({"v": math.nan})
    with pytest.raises(ValueError):
        canonical_json({"v": math.inf})


def test_unserializable_types_rejected():
    with pytest.raises(TypeError):
        canonical_json({"v": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})
    with pytest.raises(TypeError):  # numpy scalars must be converted before export
        canonical_json({"v": np.int64(1)})


def test_string_escapes():
    text = canonical_json({"s": 'quote " backslash \\ tab \t newline \n bell \x07'})
    assert json.loads(text)["s"] == 'quote " backslash \\ tab \t newline \n bell \x07'


def test_fmt_float():
    assert fmt_float(2 / 3) == "0.6667"
    assert fmt_float(1.0) == "1.0000"
    assert fmt_float(-0.000001) == "0.0000"  # no negative zero


def test_fmt_num_trims_exactly():
    assert fmt_num(3) == "3"
    assert fmt_num(3.5) == "3.5"
    assert fmt_num(0.6667) == "0.6667"
    assert fmt_num(1.0) == "1"
    assert fmt_num(0.0) == "0"
    # a trimmed label parses back to the quantized export value
    for value in (0.1, 2 / 3, 72.5, 1.0, 0.25):
        quantized = json.loads(canonical_json({"v": value}))["v"]
        assert float(fmt_num(quantized)) == quantized


def test_sha256_hex():
    assert sha256_hex("") == sha256_hex(b"")
    assert len(sha256_hex("abc")) == 64


def test_escape_pins_every_control_character_quote_and_backslash():
    named = {"\t": "\\t", "\n": "\\n", "\r": "\\r"}
    for code in range(0x20):
        ch = chr(code)
        escaped = named.get(ch, f"\\u{code:04x}")
        assert canonical_json(ch) == f'"{escaped}"\n'
        assert canonical_json(f"a{ch}b") == f'"a{escaped}b"\n'
    # not the \b and \f forms json.dumps writes
    assert canonical_json("\b\f") == '"\\u0008\\u000c"\n'
    assert canonical_json('"') == '"\\""\n'
    assert canonical_json("\\") == '"\\\\"\n'
    assert canonical_json({'k"\\\x1f': 'v"\\\x00'}) == '{\n  "k\\"\\\\\\u001f": "v\\"\\\\\\u0000"\n}\n'
    # text with nothing to escape is written as it is, non-ASCII included
    assert canonical_json("plain é — \x7f \u2028") == '"plain é — \x7f \u2028"\n'


# Keys and texts that need escapes, and floats of four decimals.
_TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\u00e9\u2028'), max_size=4)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**12), 10**12) | _TEXT
    | st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: round(v, 4))
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(_DOCS, st.sampled_from([0, 1, 2, 7]))
@example({"a": [1, {"b": [2.5, "c\n"]}], "d": {}}, 0)
def test_chunks_join_to_canonical_json(doc, flush_pieces):
    chunks = []
    with mock.patch.object(serialize, "_FLUSH_PIECES", flush_pieces):
        write_canonical_json(doc, chunks.append)
    assert "".join(chunks) == canonical_json(doc)
    if flush_pieces < 2 and isinstance(doc, (dict, list)) and len(doc) > 1:
        assert len(chunks) > 1  # the emitter flushed before a later item

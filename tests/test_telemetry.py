"""Log parsing, timestamp normalization, and bundle loading."""
import dataclasses
import json
import math
import re
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import comp_ids_of, oracle_session_jsonl

from evalcards import telemetry
from evalcards.fixtures import fixture_model
from evalcards.synth import Archetype, SynthProfile, generate_bundle, write_fixture_tree
from evalcards.taxonomy import ResolutionAction, resolve_model
from evalcards.telemetry import (
    BundleLoadError,
    DuplicateUserTask,
    EmptyLog,
    HierarchyMismatch,
    MalformedRecord,
    MalformedTimestamp,
    NoLogsFound,
    NonMonotonicTimestamps,
    Session,
    SessionBundle,
    UnexpectedOtherPayload,
    UnknownComponent,
    bundle_manifest,
    format_timestamp,
    load_bundle,
    parse_log,
    parse_timestamp,
    session_to_jsonl,
)

REFERENCE_KEYS = [
    "open_dataset",
    "explore_dataset",
    "augment_dataset",
    "transform_dataset",
    "specify_problem",
    "summarize_models",
    "explain_model",
    "compare_models",
    "export_model",
]


@pytest.fixture(scope="module")
def identity_model():
    return resolve_model("identity", [ResolutionAction.apply(k) for k in REFERENCE_KEYS])


@pytest.fixture(scope="module")
def visus_model():
    return fixture_model("visus")


def line(ts, lv1, lv2, comp, other=None):
    record = {"timestamp": ts, "lv1_id": lv1, "lv2_id": lv2, "comp_id": comp}
    if other is not None:
        record["other"] = other
    return json.dumps(record)


# --------------------------------------------------------------------------
# Timestamps
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected_ms",
    [
        ("1970-01-01T00:00:00Z", 0),
        ("1970-01-01T00:00:00.123Z", 123),
        ("1970-01-01T00:00:01", 1000),  # naive treated as UTC
        ("1970-01-01T01:00:00+01:00", 0),  # offset honored then discarded
        ("1969-12-31T19:00:00-05:00", 0),
        ("19700101T000130Z", 90_000),  # basic form
        ("1970-01-01 00:00:00,250Z", 250),  # space separator, comma fraction
        ("1970-01-01T00:00", 0),  # seconds optional
        ("1970-01-01T00:00:00.1239Z", 123),  # sub-millisecond truncates
        ("2024-01-01T00:00:00Z", 1_704_067_200_000),
    ],
)
def test_parse_timestamp(text, expected_ms):
    assert parse_timestamp(text) == expected_ms


@pytest.mark.parametrize(
    "text",
    ["", "not a time", "2024-13-01T00:00:00Z", "2024-01-32T00:00:00Z", "2024-01-01", "2024-01-01T25:00:00Z", "2024-01-01T00:00:00+25:00"],
)
def test_parse_timestamp_rejects_garbage(text):
    with pytest.raises(MalformedTimestamp):
        parse_timestamp(text)


_EDGE_FIELDS = {
    "year": st.sampled_from([0, 1, 1970, 2000, 2023, 2024, 2100, 9999]) | st.integers(0, 9999),
    "month": st.sampled_from([0, 1, 2, 12, 13, 99]) | st.integers(0, 99),
    "day": st.sampled_from([0, 1, 28, 29, 30, 31, 32, 99]) | st.integers(0, 99),
    "hour": st.sampled_from([0, 23, 24, 99]) | st.integers(0, 99),
    "minute": st.sampled_from([0, 59, 60, 99]) | st.integers(0, 99),
    "second": st.sampled_from([0, 59, 60, 99]) | st.integers(0, 99),
    "ms": st.integers(0, 999),
}
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def canonical_shaped(draw):
    """Strings of the canonical shape, with out-of-range fields, and variants
    that leave the shape: lowercase t/z, whitespace, non-ASCII digits."""
    f = {name: draw(strategy) for name, strategy in _EDGE_FIELDS.items()}
    text = (
        f"{f['year']:04d}-{f['month']:02d}-{f['day']:02d}T"
        f"{f['hour']:02d}:{f['minute']:02d}:{f['second']:02d}.{f['ms']:03d}Z"
    )
    variant = draw(st.sampled_from(["as-is", "as-is", "as-is", "lower-z", "lower-t", "spaces", "non-ascii"]))
    if variant == "lower-z":
        text = text[:-1] + "z"
    elif variant == "lower-t":
        text = text[:10] + "t" + text[11:]
    elif variant == "spaces":
        text = draw(st.sampled_from([" ", "\t", "\n"])) + text + draw(st.sampled_from(["", " ", "\n"]))
    elif variant == "non-ascii":
        text = text.translate(_ARABIC_INDIC)
    return text


def _canonical_oracle(text):
    """The instant of a canonical-shaped stamp, from its fields at their
    fixed places, as ``datetime`` reads them; None if there is none. A field
    is ASCII digits: ``int`` would also read other decimal digits."""
    t = text.strip()
    if not t.isascii():
        return None
    try:
        dt = datetime(int(t[:4]), int(t[5:7]), int(t[8:10]), int(t[11:13]), int(t[14:16]),
                      int(t[17:19]), tzinfo=timezone.utc)
    except ValueError:
        return None
    return (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1) + int(t[20:23])


@given(canonical_shaped())
@example("2024-13-01T00:00:00.000Z")  # month 13
@example("2024-01-32T00:00:00.000Z")  # day 32
@example("2023-02-29T00:00:00.000Z")  # 29 Feb, not a leap year
@example("2024-02-29T23:59:59.999Z")  # 29 Feb, a leap year
@example("2024-01-01T24:00:00.000Z")  # hour 24
@example("2024-01-01T00:60:00.000Z")  # minute 60
@example("2024-01-01T00:00:60.000Z")  # second 60
@example("0000-01-01T00:00:00.000Z")  # year 0
@example("\u0662\u0660\u0662\u0664-01-01T00:00:00.000Z")  # non-ASCII digits, rejected
@example("2024-01-01T00:00:00.000z")  # lowercase z
@example(" 2024-01-01T00:00:00.000Z\n")  # surrounding whitespace
def test_parse_timestamp_reads_canonical_shaped_stamps_as_datetime_does(text):
    expected = _canonical_oracle(text)
    if expected is None:
        with pytest.raises(MalformedTimestamp, match=re.escape(repr(text))):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text) == expected


@st.composite
def fraction_stamps(draw):
    """A stamp whose last clock field, the minute or the second, carries a
    fraction of any length, and its instant: the field's unit times the
    fraction, truncated to the millisecond."""
    value = draw(st.integers(0, 59))
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    seconds = draw(st.booleans())
    clock = f"00:00:{value:02d}" if seconds else f"00:{value:02d}"
    unit_ms = 1000 if seconds else 60_000
    fraction = Fraction(int(digits), 10 ** len(digits))
    text = f"1970-01-01T{clock}{draw(st.sampled_from('.,'))}{digits}Z"
    return text, value * unit_ms + math.floor(unit_ms * fraction)


@given(fraction_stamps())
@example(("1970-01-01T00:01,5Z", 90_000))  # a fraction of the minute
@example(("1970-01-01T00:00.5Z", 30_000))
@example(("1970-01-01T00:00.00001Z", 0))  # 0.6 ms truncates
@example(("1970-01-01T00:00:00.1239Z", 123))  # a fraction of the second
@example(("1970-01-01T00:00." + "9" * 5000 + "Z", 59_999))  # more digits than int() reads
@example(("1970-01-01T00:00.1" + "6" * 1500 + "Z", 9_999))  # just below 1/6 of a minute
@example(("1970-01-01T00:00.1" + "6" * 1499 + "7Z", 10_000))  # the last digit passes 1/6
def test_parse_timestamp_reads_a_fraction_of_the_last_clock_field(stamp):
    text, expected_ms = stamp
    assert parse_timestamp(text) == expected_ms


def test_format_timestamp_canonical_and_round_trips():
    ms = parse_timestamp("2024-06-15T09:30:00.042+02:00")
    text = format_timestamp(ms)
    assert text == "2024-06-15T07:30:00.042Z"
    assert parse_timestamp(text) == ms


FIRST_MS = -62_135_596_800_000  # 0001-01-01T00:00:00.000Z
LAST_MS = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z


@given(st.integers(FIRST_MS, LAST_MS))
@example(FIRST_MS)
@example(LAST_MS)
@example(-1)  # the last millisecond before the epoch
@example(0)
@example(951_782_400_000)  # 2000-02-29, a leap day
@example(-49_572_686_076_196)  # 0399-02-08T01:25:23.804Z, a three-digit year
def test_format_timestamp_matches_datetime_and_round_trips(ms):
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=ms)
    text = format_timestamp(ms)
    assert text == f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{ms % 1000:03d}Z"
    assert parse_timestamp(text) == ms


@pytest.mark.parametrize("ms", [FIRST_MS - 1, LAST_MS + 1])
def test_format_timestamp_rejects_years_outside_1_to_9999(ms):
    with pytest.raises(OverflowError):
        format_timestamp(ms)


# --------------------------------------------------------------------------
# Record and session validation
# --------------------------------------------------------------------------


def test_happy_path_three_records(identity_model):
    text = "\n".join(
        [
            line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
            line("2024-01-01T00:01:00Z", "data", "explore_dataset", "explore_dataset"),
            line("2024-01-01T00:02:00Z", "model", "export_model", "export_model"),
        ]
    )
    session = parse_log(text, identity_model, user_id="u1", task_id="classification")
    assert len(session.ts_ms) == 3
    assert comp_ids_of(session) == ["open_dataset", "explore_dataset", "export_model"]
    assert session.span_ms == 120_000


def test_hierarchy_mismatch_on_wrong_lv2(visus_model):
    text = line("2024-01-01T00:00:00Z", "model", "compare_models", "see_pdp")
    with pytest.raises(HierarchyMismatch):
        parse_log(text, visus_model, user_id="u1", task_id="t")


def test_unknown_component_rejected(visus_model):
    text = line("2024-01-01T00:00:00Z", "model", "summarize_models", "summarize_models")
    with pytest.raises(UnknownComponent):
        parse_log(text, visus_model, user_id="u1", task_id="t")


def test_unknown_component_quarantined_when_allowed(visus_model):
    text = "\n".join(
        [
            line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
            line("2024-01-01T00:01:00Z", "model", "summarize_models", "summarize_models"),
        ]
    )
    session = parse_log(
        text, visus_model, user_id="u1", task_id="t", allow_unknown_components=True
    )
    assert len(session.ts_ms) == 1
    assert session.quarantined == ({"line": 2, "comp_id": "summarize_models"},)


def test_other_payload_only_for_problem_and_explanation(visus_model):
    # Both read paths check a payload and drop it: the per-line loop reads
    # records as json.dumps writes them, the one scan lines as synth writes them.
    target = {"parameters": {"target_metric": "f1_score"}}

    def per_line(target_other, pdp_other):
        return "\n".join(
            [
                line("2024-01-01T00:00:00Z", "problem", "specify_problem", "select_target_metric",
                     other=target_other),
                line("2024-01-01T00:01:00Z", "model", "explain_model", "see_pdp", other=pdp_other),
            ]
        )

    with_payloads = per_line(target, {"model_viewed": "m1"})
    scanned = _with_other(_TARGET, json.dumps(target, sort_keys=True))
    assert telemetry._scan_log(with_payloads, visus_model, False) is None
    assert telemetry._scan_log(scanned, visus_model, False) is not None
    for ok, bare in ((with_payloads, per_line(None, None)), (scanned, _TARGET)):
        session = parse_log(ok, visus_model, user_id="u1", task_id="t")
        assert session == parse_log(bare, visus_model, user_id="u1", task_id="t")

    bad_per_line = line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset", other={"x": 1})
    bad_scanned = _with_other(_OPEN, '{"x": 1}')
    assert telemetry._scan_log(bad_scanned, visus_model, False) is None
    for bad in (bad_per_line, bad_scanned):
        with pytest.raises(UnexpectedOtherPayload, match="^line 1: comp_id 'open_dataset' "):
            parse_log(bad, visus_model, user_id="u1", task_id="t")


def test_empty_log_rejected(identity_model):
    with pytest.raises(EmptyLog):
        parse_log("", identity_model, user_id="u1", task_id="t")
    with pytest.raises(EmptyLog):
        parse_log("\n\n", identity_model, user_id="u1", task_id="t")


def test_out_of_order_rejected_unless_sorting(identity_model):
    text = "\n".join(
        [
            line("2024-01-01T00:05:00Z", "data", "open_dataset", "open_dataset"),
            line("2024-01-01T00:00:00Z", "data", "explore_dataset", "explore_dataset"),
        ]
    )
    with pytest.raises(NonMonotonicTimestamps):
        parse_log(text, identity_model, user_id="u1", task_id="t")
    session = parse_log(text, identity_model, user_id="u1", task_id="t", sort_timestamps=True)
    assert comp_ids_of(session) == ["explore_dataset", "open_dataset"]


def test_sorting_is_stable_on_equal_timestamps(identity_model):
    text = "\n".join(
        [
            line("2024-01-01T00:01:00Z", "data", "open_dataset", "open_dataset"),
            line("2024-01-01T00:00:00Z", "data", "explore_dataset", "explore_dataset"),
            line("2024-01-01T00:00:00Z", "problem", "specify_problem", "specify_problem"),
        ]
    )
    session = parse_log(text, identity_model, user_id="u", task_id="t", sort_timestamps=True)
    # the two equal-timestamp records keep their input order
    assert comp_ids_of(session) == ["explore_dataset", "specify_problem", "open_dataset"]


def test_session_columns_and_records_view(visus_model):
    text = "\n".join(
        [
            line("2024-01-01T00:02:00Z", "model", "explain_model", "see_pdp", other={"model_viewed": "m1"}),
            line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
            line("2024-01-01T00:01:00Z", "problem", "specify_problem", "select_target_metric",
                 other={"parameters": {"target_metric": "rmse"}}),
        ]
    )
    session = parse_log(text, visus_model, user_id="u1", task_id="t", sort_timestamps=True)
    assert session.ts_ms.dtype == np.int64 and session.comp_idx.dtype == np.int32
    assert session.ts_ms.tolist() == [1_704_067_200_000 + k * 60_000 for k in range(3)]
    order = visus_model.comp_ids
    assert [order[i] for i in session.comp_idx.tolist()] == ["open_dataset", "select_target_metric", "see_pdp"]
    with pytest.raises(ValueError):
        session.ts_ms[0] = 0  # the columns are read-only

    records = session.records
    assert len(records) == 3
    assert [r.comp_id for r in records] == comp_ids_of(session)
    assert records[-1] == records[2] == list(records)[2]
    assert records[-1].lv2_id == "explain_model"
    assert records[1:] == tuple(records)[1:]
    assert isinstance(records[0].ts_ms, int)
    with pytest.raises(IndexError):
        records[3]


@pytest.mark.parametrize("row", [-1, 2])
def test_session_to_jsonl_rejects_other_row_outside_its_records(visus_model, row):
    session = Session("u1", "t", visus_model, [0, 1], [0, 1])
    with pytest.raises(telemetry.TelemetryError, match="'other' rows must lie in 0..1"):
        session_to_jsonl(session, {row: {"model_viewed": "m1"}})


def test_sorting_makes_result_independent_of_arrival_order(identity_model):
    lines = [
        line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
        line("2024-01-01T00:01:00Z", "data", "explore_dataset", "explore_dataset"),
        line("2024-01-01T00:02:00Z", "problem", "specify_problem", "specify_problem"),
        line("2024-01-01T00:03:00Z", "model", "export_model", "export_model"),
    ]
    reordered = [lines[2], lines[0], lines[3], lines[1]]
    a = parse_log("\n".join(lines), identity_model, user_id="u", task_id="t", sort_timestamps=True)
    b = parse_log("\n".join(reordered), identity_model, user_id="u", task_id="t", sort_timestamps=True)
    assert a == b


@pytest.mark.parametrize(
    "bad,err",
    [
        ("not json", MalformedRecord),
        ('{"timestamp": "2024-01-01T00:00:00Z", "lv1_id": "data"}', MalformedRecord),
        ('{"timestamp": "nope", "lv1_id": "data", "lv2_id": "open_dataset", "comp_id": "open_dataset"}', MalformedTimestamp),
        ('{"timestamp": "2024-01-01T00:00:00Z", "lv1_id": "data", "lv2_id": "open_dataset", "comp_id": "open_dataset", "extra": 1}', MalformedRecord),
        ('{"timestamp": "2024-01-01T00:00:00Z", "lv1_id": "galaxy", "lv2_id": "open_dataset", "comp_id": "open_dataset"}', MalformedRecord),
        ('{"timestamp": "2024-01-01T00:00:00Z", "lv1_id": "model", "lv2_id": "open_dataset", "comp_id": "open_dataset"}', HierarchyMismatch),
        ('{"timestamp": "2024-01-01T00:00:00Z", "lv1_id": "data", "lv2_id": "open_dataset", "comp_id": "open_dataset", "other": {"x": 1}}', UnexpectedOtherPayload),
    ],
)
def test_malformed_lines_report_line_numbers(identity_model, bad, err):
    text = line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset") + "\n" + bad
    with pytest.raises(err, match="line 2"):
        parse_log(text, identity_model, user_id="u1", task_id="t")


# --------------------------------------------------------------------------
# Lossless round trip
# --------------------------------------------------------------------------


SHIPPED_MODELS = tuple(fixture_model(name) for name in ("visus", "distil", "tworavens"))
# Quotes, backslashes, control characters, non-ASCII and astral text.
_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters()
)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
).filter(lambda payload: payload is not None)


@st.composite
def written_sessions(draw):
    model = draw(st.sampled_from(SHIPPED_MODELS))
    n = draw(st.integers(1, 12))
    rows = st.lists(st.integers(FIRST_MS, LAST_MS), min_size=n, max_size=n)
    comps = st.lists(st.integers(0, len(model) - 1), min_size=n, max_size=n)
    other = draw(st.dictionaries(st.integers(0, n - 1), _PAYLOADS, max_size=n))
    return Session("u1", "t1", model, sorted(draw(rows)), draw(comps)), other


@given(written_sessions())
@example((Session("u1", "t1", SHIPPED_MODELS[0], [FIRST_MS, 0, LAST_MS], [0, 1, 2]),
          {1: {"z": ["caf\u00e9", 'a"b\\c\n', 1.5, {"y": None}], "a": -0.0}}))
@example((Session("u1", "t1", SHIPPED_MODELS[0], [0, 1], [0, 0]), {0: "plain ascii"}))
def test_session_to_jsonl_matches_per_record_writer(written):
    session, other = written
    assert session_to_jsonl(session, other) == oracle_session_jsonl(session, other)


def test_round_trip_preserves_records(visus_model):
    profile = SynthProfile(
        archetype=Archetype.NONLINEAR,
        n_users=4,
        tasks=("classification",),
        dwell_min_ms=500,
        dwell_max_ms=90_000,
        seed=11,
    )
    result = generate_bundle(visus_model, profile)
    assert any(result.others)
    for session, other in zip(result.bundle.sessions, result.others):
        text = session_to_jsonl(session, other)
        back = parse_log(text, visus_model, user_id=session.user_id, task_id=session.task_id)
        # every record comes back; its 'other' payload was checked and dropped
        assert back == session
        assert session_to_jsonl(back) == re.sub(r'"other": \{.*\}, ', "", text)


# --------------------------------------------------------------------------
# The one-scan read agrees with the per-line loop
# --------------------------------------------------------------------------

# The stamp forms the scan reads, as docs/file-formats.md states them: an
# extended or basic date and clock, seconds, a 3-digit fraction, and Z or an
# offset with minutes. Every other form is left to the per-line loop.
_SCAN_FORM = re.compile(
    r"[0-9]{4}(-?)[0-9]{2}\1[0-9]{2}T[0-9]{2}(:?)[0-9]{2}\2[0-9]{2}[.,][0-9]{3}(?:Z|[+-][0-9]{2}:?[0-9]{2})"
)


def _offset(sign, hours, minutes, colon):
    return f"{sign}{hours:02d}{':' if colon else ''}{minutes:02d}"


_ZONES = st.sampled_from(["Z", "+00:00", "-0000", "+23:59", "-23:59", "+0530", "-08:00"]) | st.builds(
    _offset, st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59), st.booleans()
)


@st.composite
def rewritten_stamps(draw, ms=None, scan_only=False):
    """A stamp naming the instant ``ms`` in a drawn form, and whether the
    scan reads that form. The scan's forms are those bench/workloads.py's
    rewrite_stamp writes (basic form, comma fractions, offsets), with the
    date and the clock each basic or not. Other forms, unless ``scan_only``:
    lowercase t or z, a space separator, no seconds, a 1-, 2- or 6-digit
    fraction or none, an offset of hours only or no zone, which the per-line
    loop reads; and a date with mixed separators or an offset out of range,
    which it rejects."""
    if ms is None:
        ms = draw(st.integers(FIRST_MS, LAST_MS))
    zone = draw(_ZONES)
    minutes = 0 if zone == "Z" else int(zone[0] + "1") * (int(zone[1:3]) * 60 + int(zone[-2:]))
    local = ms + minutes * 60_000
    if not FIRST_MS <= local <= LAST_MS:
        local, zone = ms, "Z"
    text = format_timestamp(local)
    date, clock, frac = text[:10], text[11:19], text[20:23]
    scan = {
        "date": st.sampled_from([date, date.replace("-", "")]),
        "T": st.just("T"),
        "clock": st.sampled_from([clock, clock.replace(":", "")]),
        "frac": st.sampled_from(".,").map(lambda sep: sep + frac),
        "zone": st.just(zone),
    }
    other = {
        "date": st.sampled_from([date[:7] + date[8:], date[:4] + date[5:]]),
        "T": st.sampled_from(["t", " "]),
        "clock": st.sampled_from([clock[:5], clock[:5].replace(":", "")]),
        "frac": st.sampled_from(["", "." + frac[:1], "," + frac[:2], "." + frac + "123"]),
        "zone": st.sampled_from(["z", "", "+05", "-11", "+24:00", "+00:60", "-2400", "+0060"]),
    }
    changed = set()
    if not scan_only and draw(st.booleans()):
        changed = draw(st.sets(st.sampled_from(sorted(scan)), min_size=1, max_size=2))
    stamp = "".join(draw((other if part in changed else scan)[part]) for part in scan)
    return stamp, not changed


def _set_stamp(line, stamp):
    """``line``, as session_to_jsonl writes it, with its stamp replaced."""
    return line[: line.rindex('"timestamp": "')] + f'"timestamp": "{stamp}"}}'


# Stamps that name no instant the per-line loop accepts, in the scan's forms.
_BAD_STAMPS = (
    "0000-01-01T00:00:00.000Z",  # year 0, which numpy accepts
    "2024-01-01T24:00:00.000Z",
    "2023-02-29T12:00:00.000Z",
    "2024-01-01T00:00:60.000Z",
    "00001231T235959,999-00:01",  # year 0, though its instant lies in year 1
    "2024-01-01T24:00:00.000+01:00",
    "20240101T006000,000Z",
    "2023-02-29T12:00:00,000+0000",
)
# Payloads of an 'other' key inserted before "timestamp": JSON that is no
# object, an object on a component that may not carry one, a nested stamp,
# a text that is not one JSON value, and \r as JSON whitespace, which ends a
# line when the file is read.
_OTHERS = (
    "null", "[1]", "{}", '{"x": 1}', '{"x":\r1}',
    '{"a": {"timestamp": "2024-01-01T00:00:00.000Z"}}',
    '{"a": 1}, "timestamp": "2024-01-01T00:00:00.000Z"}',
)


def _unknown(line, lv1=None):
    line = line.replace('"comp_id": "', '"comp_id": "no_such_', 1)
    return line if lv1 is None else re.sub(r'"lv1_id": "[a-z]+"', f'"lv1_id": "{lv1}"', line, count=1)


# Each turns one line into a line that the scan must not take as is, or,
# for the kinds in _QUARANTINED, one it reads only when unknown components
# are allowed.
_ADVERSARIAL = {
    "blank": lambda line, model, draw: draw(st.sampled_from(["", "  "])),
    "text-before": lambda line, model, draw: draw(st.sampled_from(["x", " ", "{}"])) + line,
    "crlf": lambda line, model, draw: line + "\r",
    "bad-stamp": lambda line, model, draw: _set_stamp(line, draw(st.sampled_from(_BAD_STAMPS))),
    "loop-stamp": lambda line, model, draw: _set_stamp(line, draw(rewritten_stamps())[0]),
    "other": lambda line, model, draw: line.replace(
        '"timestamp"', '"other": ' + draw(st.sampled_from(_OTHERS)) + ', "timestamp"', 1
    ),
    "upper-lv1": lambda line, model, draw: re.sub(
        r'"lv1_id": "([a-z]+)"', lambda m: f'"lv1_id": "{m[1].upper()}"', line, count=1
    ),
    "unknown-comp": lambda line, model, draw: _unknown(line),
    "unknown-comp-other": lambda line, model, draw: _unknown(
        line.replace('"timestamp"', '"other": {"x": [1]}, "timestamp"', 1)
        if '"other"' not in line else line
    ),
    "unknown-comp-bad-lv1": lambda line, model, draw: _unknown(line, draw(st.sampled_from(["galaxy", "data_"]))),
    "wrong-lv2": lambda line, model, draw: line.replace(
        '"lv2_id": "', '"lv2_id": "' + draw(st.sampled_from(model.l2_order)) + "_", 1
    ),
}
_QUARANTINED = {"unknown-comp", "unknown-comp-other"}


@st.composite
def drawn_logs(draw):
    """A model, a log text, and the values of ``allow_unknown_components``
    with which the scan must read it.

    The lines are synth lines whose stamps stay canonical or are rewritten,
    to the same instants, in the scan's forms or in any form. The instants
    are sorted, sorted with one adjacent pair swapped, or in any order. Up
    to two lines are made adversarial, and the last line may lack its
    newline. The scan must read the text if every stamp is in its forms, no
    line is adversarial other than by naming an unknown component, and the
    last line ends; with such a component, only if that is allowed."""
    model = draw(st.sampled_from(SHIPPED_MODELS))
    n = draw(st.integers(1, 8))
    stamps = draw(st.lists(st.integers(FIRST_MS, LAST_MS), min_size=n, max_size=n))
    order = draw(st.sampled_from(["sorted", "swapped", "any"]))
    if order != "any":
        stamps.sort()
    if order == "swapped" and n > 1:
        i = draw(st.integers(0, n - 2))
        stamps[i], stamps[i + 1] = stamps[i + 1], stamps[i]
    style = draw(st.sampled_from(["synth", "scan", "any"]))
    readable = True
    lines = []
    for ms in stamps:
        idx = draw(st.integers(0, len(model) - 1))
        other = {}
        if model.components[idx].l2_id in telemetry.OTHER_ALLOWED_L2 and draw(st.booleans()):
            other = {0: draw(st.dictionaries(_TEXT, _PAYLOADS, max_size=3))}
        line = session_to_jsonl(Session("u1", "t", model, [ms], [idx]), other)[:-1]
        if style != "synth":
            stamp, scan_form = draw(rewritten_stamps(ms, scan_only=style == "scan"))
            line = _set_stamp(line, stamp)
            readable = readable and scan_form
        lines.append(line)
    bad = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(_ADVERSARIAL))),
                 max_size=2, unique_by=lambda pair: pair[0])
    )
    for row, kind in bad:
        lines[row] = _ADVERSARIAL[kind](lines[row], model, draw)
    text = "\n".join(lines)
    cut = draw(st.integers(0, 4)) == 0  # the last line has no newline
    kinds = {kind for _, kind in bad}
    if cut or not readable or kinds - _QUARANTINED:
        scan_reads = set()
    else:
        scan_reads = {True} if kinds else {False, True}
    return model, text if cut else text + "\n", scan_reads


def _parsed(text, model, **flags):
    try:
        return parse_log(text, model, user_id="u1", task_id="t", **flags)
    except telemetry.TelemetryError as exc:
        return type(exc).__name__, str(exc)


def _per_line(text, model, **flags):
    with mock.patch.object(telemetry, "_scan_log", lambda text, model, allow_unknown_components: None):
        return _parsed(text, model, **flags)


_OPEN = '{"comp_id": "open_dataset", "lv1_id": "data", "lv2_id": "open_dataset", "timestamp": "2024-01-01T00:00:00.000Z"}\n'
_TARGET = (
    '{"comp_id": "select_target_metric", "lv1_id": "problem", "lv2_id": "specify_problem", '
    '"timestamp": "2024-01-01T00:00:01.000Z"}\n'
)


def _with_other(line, payload):
    return line.replace('"timestamp"', f'"other": {payload}, "timestamp"', 1)


def _with_stamp(line, stamp):
    return line.replace("2024-01-01T00:00:00.000Z", stamp)


@settings(max_examples=400)
@given(drawn_logs(), st.booleans(), st.booleans())
@example((SHIPPED_MODELS[0], _OPEN + _TARGET, {False, True}), False, False)
@example((SHIPPED_MODELS[0], _OPEN + "x" + _OPEN + _TARGET, set()), False, False)  # text before a record
@example((SHIPPED_MODELS[0], _OPEN + _TARGET[:-1], set()), False, False)  # no last newline
@example((SHIPPED_MODELS[0], _OPEN.replace("2024", "0000") + _TARGET, set()), False, False)
@example((SHIPPED_MODELS[0], _with_other(_OPEN, '{"x": 1}') + _TARGET, set()), False, False)
@example((SHIPPED_MODELS[0], _OPEN + _with_other(_TARGET, '{"x":\r1}'), set()), False, False)
@example((SHIPPED_MODELS[0], _OPEN + _with_other(_TARGET, _OTHERS[-1]), set()), False, False)
@example((SHIPPED_MODELS[0], _with_stamp(_OPEN, "20231231T190000,000-05:00") + _TARGET, {False, True}), False, False)
@example((SHIPPED_MODELS[0], _with_stamp(_OPEN, "2024-01-01T00:00:00.000+24:00") + _TARGET, set()), False, False)
@example((SHIPPED_MODELS[0], _with_stamp(_OPEN, "2024-01-01T00:00:00.000+00:60") + _TARGET, set()), False, False)
@example((SHIPPED_MODELS[0], _with_stamp(_OPEN, "2024-01-01T23:59:00.000+23:59") + _TARGET, {False, True}), False, False)
@example((SHIPPED_MODELS[0], _TARGET + _unknown(_OPEN), {True}), True, True)
@example((SHIPPED_MODELS[0], _TARGET + _unknown(_OPEN, "galaxy"), set()), False, True)
def test_scan_agrees_with_the_per_line_loop(log, sort_timestamps, allow_unknown_components):
    model, text, scan_reads = log
    flags = dict(sort_timestamps=sort_timestamps, allow_unknown_components=allow_unknown_components)
    assert _parsed(text, model, **flags) == _per_line(text, model, **flags)
    if allow_unknown_components in scan_reads:
        assert telemetry._scan_log(text, model, allow_unknown_components) is not None


@given(canonical_shaped() | rewritten_stamps().map(lambda drawn: drawn[0]))
@example("0000-01-01T00:00:00.000Z")  # year 0, which numpy accepts
@example("0001-01-01T00:00:00.000Z")
@example("9999-12-31T23:59:59.999Z")
@example("2023-02-29T00:00:00.000Z")
@example("2024-02-29T23:59:59.999Z")
@example("2024-01-01T24:00:00.000Z")
@example("2024-01-01T00:00:60.000Z")
@example("2024-13-01T00:00:00.000Z")
@example("0001-01-01T00:00:00.000+01:00")  # an instant before year 1, which both accept
@example("00001231T235959,999-00:01")  # year 0, though its instant lies in year 1
@example("2024-0101T00:00:00.000Z")  # mixed date separators, which both reject
@example("20240101T240000,000+0100")  # hour 24 in a form that is not canonical
@example("9999-12-31T23:59:59.999-23:59")  # an instant after year 9999
@example("2024-01-01T00:00:00.000+23:59")
@example("2024-01-01T00:00:00.000-2400")
def test_scan_reads_each_stamp_as_the_per_line_loop_does(stamp):
    text = _with_stamp(_OPEN, stamp)
    expected = _per_line(text, SHIPPED_MODELS[0])
    assert _parsed(text, SHIPPED_MODELS[0]) == expected
    if _SCAN_FORM.fullmatch(stamp) and isinstance(expected, Session):
        assert telemetry._scan_log(text, SHIPPED_MODELS[0], False) is not None


def test_a_messy_shaped_log_is_read_in_the_scan(visus_model):
    # As the benchmark's messy workload writes a synth log: three stamps in
    # four rewritten to the same instant in basic form, with a comma or an
    # offset, one adjacent pair swapped, and two unknown components.
    profile = SynthProfile(
        archetype=Archetype.NONLINEAR, n_users=1, tasks=("classification",),
        dwell_min_ms=500, dwell_max_ms=90_000, seed=3,
    )
    result = generate_bundle(visus_model, profile)
    session = result.bundle.sessions[0]
    lines = session_to_jsonl(session, result.others[0]).splitlines()
    forms = (
        lambda ms: format_timestamp(ms),
        lambda ms: format_timestamp(ms + 330 * 60_000)[:-1] + "+05:30",
        lambda ms: format_timestamp(ms - 480 * 60_000).replace("-", "").replace(":", "")[:-1] + "-0800",
        lambda ms: format_timestamp(ms).replace(".", ","),
    )
    lines = [_set_stamp(line, forms[row % 4](ms)) for row, (line, ms) in enumerate(zip(lines, session.ts_ms.tolist()))]
    lines[1], lines[2] = lines[2], lines[1]
    lines.insert(3, _unknown(lines[0]))  # line 4
    lines.append(_unknown(lines[4]))  # the last line, a copy of record 3
    text = "\n".join(lines) + "\n"
    flags = dict(sort_timestamps=True, allow_unknown_components=True)
    assert telemetry._scan_log(text, visus_model, True) is not None
    parsed = _parsed(text, visus_model, **flags)
    assert parsed == _per_line(text, visus_model, **flags)
    comps = comp_ids_of(session)
    assert parsed == dataclasses.replace(
        session,
        user_id="u1",
        task_id="t",
        quarantined=(
            {"line": 4, "comp_id": "no_such_" + comps[0]},
            {"line": len(lines), "comp_id": "no_such_" + comps[3]},
        ),
    )
    assert telemetry._scan_log(text, visus_model, False) is None  # the loop rejects the unknown components


# --------------------------------------------------------------------------
# Bundles
# --------------------------------------------------------------------------


def synth_tree(tmp_path, model, n_users=3, tasks=("classification", "regression"), seed=5):
    profile = SynthProfile(
        archetype=Archetype.NONLINEAR,
        n_users=n_users,
        tasks=tuple(tasks),
        dwell_min_ms=500,
        dwell_max_ms=30_000,
        seed=seed,
    )
    result = generate_bundle(model, profile)
    write_fixture_tree(result, tmp_path)
    return result


def test_load_bundle_round_trips_synth_tree(tmp_path, visus_model):
    result = synth_tree(tmp_path, visus_model)
    bundle = load_bundle(tmp_path / "logs", visus_model)
    assert len(bundle) == 6
    assert bundle == SessionBundle(model=visus_model, sessions=bundle.sessions)
    assert {(s.user_id, s.task_id) for s in bundle.sessions} == {
        (s.user_id, s.task_id) for s in result.bundle.sessions
    }


def test_load_bundle_of_one_file(tmp_path, identity_model):
    (tmp_path / "u1_t.jsonl").write_text(
        line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset") + "\n"
    )
    bundle = load_bundle(tmp_path, identity_model)
    assert len(bundle) == 1


def test_parse_log_splits_lines_as_load_bundle_does(tmp_path, visus_model):
    # A line ends at \n, \r\n or \r and nowhere else: a raw U+2028 inside a
    # JSON string is part of its line, as it is when the file is read.
    records = [
        line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
        line("2024-01-01T00:01:00Z", "problem", "specify_problem", "select_target_metric",
             other={"note": "a\u2028b\u0085c"}),
        line("2024-01-01T00:02:00Z", "model", "export_model", "export_model"),
    ]
    raw = "\r\n".join(records[:2]) + "\r" + records[2] + "\n"
    raw = raw.replace("\\u2028", "\u2028").replace("\\u0085", "\u0085")
    assert "\u2028" in raw and "\x85" in raw
    log = tmp_path / "u1_t.jsonl"
    log.write_bytes(raw.encode("utf-8"))
    session = parse_log(raw, visus_model, user_id="u1", task_id="t")
    assert load_bundle(tmp_path, visus_model).sessions == (session,)
    assert len(session.ts_ms) == 3

    bad = raw + "\r\nnot json\n"
    log.write_bytes(bad.encode("utf-8"))
    with pytest.raises(MalformedRecord) as parsed:
        parse_log(bad, visus_model, user_id="u1", task_id="t")
    with pytest.raises(BundleLoadError) as loaded:
        load_bundle(tmp_path, visus_model)
    assert str(parsed.value).startswith("line 5: ")
    assert loaded.value.failures == (("u1_t.jsonl", str(parsed.value)),)


def test_no_logs_found(tmp_path, identity_model):
    with pytest.raises(NoLogsFound):
        load_bundle(tmp_path, identity_model)


def test_duplicate_user_task_rejected(tmp_path, identity_model):
    content = line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset") + "\n"
    # same (user, task) key from two files: u1_a_t.jsonl splits to ("u1_a", "t")
    (tmp_path / "u1_t.jsonl").write_text(content)
    (tmp_path / "u1_t.jsonl.bak").write_text(content)  # ignored: wrong suffix
    bundle = load_bundle(tmp_path, identity_model)
    assert len(bundle) == 1

    first = bundle.sessions[0]
    dup = Session(
        user_id="u1",
        task_id="t",
        model=identity_model,
        ts_ms=first.ts_ms,
        comp_idx=first.comp_idx,
    )
    with pytest.raises(DuplicateUserTask):
        SessionBundle(model=identity_model, sessions=(bundle.sessions[0], dup))


def test_bundle_construction_revalidates_sessions(identity_model, visus_model):
    session = parse_log(
        line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset"),
        identity_model,
        user_id="u1",
        task_id="t",
    )
    # a bundle ties every session to its own model: a session parsed for
    # another system is rejected
    with pytest.raises(HierarchyMismatch):
        SessionBundle(model=visus_model, sessions=(session,))


def test_load_bundle_checks_each_record_once(tmp_path, visus_model, monkeypatch):
    synth_tree(tmp_path, visus_model)
    checked = []
    check = telemetry.parse_timestamp
    monkeypatch.setattr(
        telemetry, "parse_timestamp", lambda text: checked.append(text) or check(text)
    )
    # a synth tree is read in one scan per file, which never calls parse_timestamp
    bundle = load_bundle(tmp_path / "logs", visus_model)
    assert checked == []
    # a file that falls back to the per-line loop checks each record once
    log = sorted((tmp_path / "logs").glob("*.jsonl"))[0]
    log.write_bytes(log.read_bytes().replace(b"\n", b"\r\n"))
    assert load_bundle(tmp_path / "logs", visus_model) == bundle
    assert len(checked) == len(bundle.sessions[0].ts_ms)
    SessionBundle(model=visus_model, sessions=bundle.sessions)
    assert len(checked) == len(bundle.sessions[0].ts_ms)


def test_per_file_failures_collected(tmp_path, identity_model):
    good = line("2024-01-01T00:00:00Z", "data", "open_dataset", "open_dataset") + "\n"
    (tmp_path / "u1_t.jsonl").write_text(good)
    (tmp_path / "u2_t.jsonl").write_text("garbage\n")
    (tmp_path / "u3_t.jsonl").write_text("")
    with pytest.raises(BundleLoadError) as info:
        load_bundle(tmp_path, identity_model)
    names = [name for name, _ in info.value.failures]
    assert names == ["u2_t.jsonl", "u3_t.jsonl"]


def test_bundle_manifest_counts(tmp_path, visus_model):
    synth_tree(tmp_path, visus_model)
    bundle = load_bundle(tmp_path / "logs", visus_model)
    manifest = bundle_manifest(bundle)
    assert manifest["session_count"] == len(bundle)
    assert manifest["user_count"] == 3
    for row, session in zip(manifest["sessions"], bundle.sessions):
        assert row["record_count"] == len(session.ts_ms)
        assert row["span_ms"] == session.span_ms

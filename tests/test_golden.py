"""Golden digests: exports, reports and a comparison pinned byte for byte.

Criterion 8 compares two runs of the same code with each other. These
digests were recorded once and guard refactors of the pipeline against any
change in the bytes it writes. Each case runs the CLI end to end on a
seeded synth tree. The ``visus-messy`` case rewrites its logs first: it
swaps adjacent records, adds records naming components no model has, and
spells timestamps in other ISO-8601 forms, so that the general timestamp
path, sorting, quarantine and collapsed matrices are all covered.
"""
import hashlib
import json
from datetime import datetime, timedelta, timezone

import pytest

from evalcards.cli import main
from evalcards.fixtures import fixture_text

PROFILES = {
    "visus": "archetype: linear\nn_users: 5\ntasks: [classification, regression]\n"
    "dwell_ms: {min: 2000, max: 90000}\nseed: 11\n",
    "distil": "archetype: nonlinear\nn_users: 5\ntasks: [classification, regression]\n"
    "dwell_ms: {min: 1000, max: 120000}\nseed: 12\n",
    # dwell past the 10 min idle cap, so capped gaps are covered
    "tworavens": "archetype: nonlinear\nn_users: 6\ntasks: [classification, regression]\n"
    "dwell_ms: {min: 1000, max: 900000}\nseed: 13\n",
    "visus-messy": "archetype: iterative\nn_users: 6\ntasks: [classification, regression]\n"
    "dwell_ms: {min: 1000, max: 300000}\nseed: 14\n"
    "iteration_pair: [select_target_metric, see_pdp]\n",
}
MESSY_FLAGS = ["--sort-timestamps", "--allow-unknown-components", "--collapse-repeats"]

GOLDEN = {
    "visus": {
        "export": "98cf60ae5d562566d7ba539e7a84a2053d2a46c8cd6a649448452b36262dfff1",
        "report": "1cf56b789ed1993dea09bcfd1d989a9942d26bc95fb5e09a531942931742ef3f",
    },
    "distil": {
        "export": "d1ee0faa63b656439f3aa4b2696f4899c9b7c59663ac97832590537c78346a70",
        "report": "dfdf2248f1de62f9312b339deab0ad826766b9022542f0c9f2206558b5a2b007",
    },
    "tworavens": {
        "export": "6278dfad0c7c9d89e4011f433d22f450aec6583d86836dc62f294e5e83e62cb0",
        "report": "f58fb4d5b4bc35d877170ddd9be14d049361b44781a2512e1f2eb5e29316a7f6",
    },
    "visus-messy": {
        "export": "a7872c69ae89cdc24145429b64137dc709f62e46cdbec7fa0ee8fc18c15c6e44",
        "report": "ede1496cafa8db1d3c31f0e95ace1a5e940e8515615633a77833777667910387",
    },
    "comparison": "5aab1fe60e7426eedc2c50ab377be4976d045d049c9012dc0ca25e7623e134d5",
}

_OTHER_FORMS = (
    lambda dt: dt.astimezone(timezone(timedelta(hours=2))).strftime("%Y-%m-%dT%H:%M:%S.%f") + "+02:00",
    lambda dt: dt.strftime("%Y%m%dT%H%M%S.%f") + "Z",
    lambda dt: dt.strftime("%Y-%m-%d %H:%M:%S,%f") + "z",
    lambda dt: " " + dt.strftime("%Y-%m-%dt%H:%M:%S.%f")[:-3] + "Z ",
)


def _respell(stamp: str, k: int) -> str:
    """The same instant as a canonical ``...sssZ`` stamp, in another ISO form."""
    dt = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%S.%fZ").replace(tzinfo=timezone.utc)
    return _OTHER_FORMS[k % len(_OTHER_FORMS)](dt)


def _make_messy(logs):
    for k, path in enumerate(sorted(logs.glob("*.jsonl"))):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for i, record in enumerate(records):
            if (i + k) % 4:
                record["timestamp"] = _respell(record["timestamp"], i + k)
        if k % 3 == 0:
            i = k % (len(records) - 1)
            records[i], records[i + 1] = records[i + 1], records[i]
        if k % 4 == 1:
            stray = {"timestamp": records[0]["timestamp"], "lv1_id": "model",
                     "lv2_id": "summarize_models", "comp_id": "summarize_models"}
            records.insert(k % len(records), stray)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*args) -> None:
    assert main([str(a) for a in args]) == 0


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    exports = []
    for case, profile_text in PROFILES.items():
        system = case.split("-")[0]
        work = root / case
        work.mkdir()
        (work / "taxonomy.yaml").write_text(fixture_text(system), encoding="utf-8")
        (work / "profile.yaml").write_text(profile_text, encoding="utf-8")
        _run("synth", "--taxonomy", work / "taxonomy.yaml", "--profile", work / "profile.yaml",
             "--out", work / "tree")
        flags = []
        if case == "visus-messy":
            _make_messy(work / "tree" / "logs")
            flags = MESSY_FLAGS
        export = work / f"{case}.json"
        _run("analyze", "--taxonomy", work / "taxonomy.yaml", "--logs", work / "tree" / "logs",
             "--surveys", work / "tree" / "surveys", "--out", export, *flags)
        _run("render", export, "--out", work / "reports")
        report = work / "reports" / f"{system}.cards.html"
        out[case] = {"export": _sha256(export), "report": _sha256(report)}
        if case == system:
            exports.append(export)
    _run("compare", *exports, "--out", root / "comparison.html")
    out["comparison"] = _sha256(root / "comparison.html")
    return out


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN[case]

"""Golden digests: synth trees, exports, reports and a comparison pinned
byte for byte.

Criterion 8 compares two runs of the same code with each other. These
digests were recorded once and guard refactors of the pipeline against any
change in the bytes it writes. Each case runs the CLI end to end on a
seeded synth tree. Every file ``synth`` writes is pinned too, because
``analyze`` reads many spellings of a log the same way. The ``visus-messy`` case rewrites its logs first: it
swaps adjacent records, adds records naming components no model has, and
spells timestamps in other ISO-8601 forms, so that the general timestamp
path, sorting, quarantine and collapsed matrices are all covered.
"""
import hashlib
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import evalcards
from evalcards import cli, serialize
from evalcards.cards import (
    comparison_order,
    render_between,
    render_between_parsed,
    render_within_export,
    render_within_parsed,
)
from evalcards.cli import main
from evalcards.export import load_export
from evalcards.fixtures import fixture_text
from evalcards.serialize import canonical_json

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

# Every file `synth` writes for the three seeded systems, recorded with the
# per-record JSON writer that preceded the columnar one.
GOLDEN_TREES = {
    "visus": {
        "logs/u01_classification.jsonl":
            "b4abcf1d49cb7fb177424c378aeb79bda971b0f4ce2894845518c2b55971226b",
        "logs/u01_regression.jsonl":
            "9bc73c65990e92a34b47ca8246fcfc22aff36be63015d35c77352c03ded543a9",
        "logs/u02_classification.jsonl":
            "50dc128f60e711e03e28753bb67b461ef7a60fc627ab76aa39d4d6ca26228900",
        "logs/u02_regression.jsonl":
            "c85a6643ddca44f3265a798589676002fe9c708ebb1927e7279d87f215d00497",
        "logs/u03_classification.jsonl":
            "42c18f459b22545061d15ae232d9445df19b00c0cdf770ee61ebef6549a371e9",
        "logs/u03_regression.jsonl":
            "486308941ddd862f9fc07aed0b3f0a41fae6624ce597f9fe00ab37991e4ab276",
        "logs/u04_classification.jsonl":
            "edf3c1d6046d67b7b1e83f4d55c039f8d358d218b76aaa1c1b9471b4b24b18dc",
        "logs/u04_regression.jsonl":
            "5bff35cf57ada64f183da43becbf3912b8761851c5f75033a1fed08c834eaf38",
        "logs/u05_classification.jsonl":
            "e980cd493a802c1683e63b6377b684577bde710ea74231afcc598defc191a892",
        "logs/u05_regression.jsonl":
            "1632c6669fc27acfd32bd632d91e7d8cf325c45ba5d2821beb2ba2cce9a5050f",
        "manifest.json":
            "5abcce33d41107cb42829bdeb671bf1079547904b852f58a821bf41832ad42dc",
        "surveys/ratings.csv":
            "f1cfe1836b79f7b52539c745d3cd799e56545d90149f590fac1a6115731e5a43",
        "surveys/sus.csv":
            "850e49bf8e36b1250ebf0ad7375dc9de88edfd285a41c1770063211cc99951af",
    },
    "distil": {
        "logs/u01_classification.jsonl":
            "375090bf1fc4acaed636329632d675ddffaed6192cb90872be55e1487c1e92a0",
        "logs/u01_regression.jsonl":
            "7d82d1af120858bd9c258b9b931183801573219da108775ea694998f424a0cc7",
        "logs/u02_classification.jsonl":
            "8e59ee9537ec25c0aa2e76074a920ed3749b60ae431ac915b14409922917741a",
        "logs/u02_regression.jsonl":
            "6ef46e39f6bcd76e28d6534bbc5b61c175e6de35382f8cdbfba1dd4dc2840345",
        "logs/u03_classification.jsonl":
            "2926aeaac5c0f69eec0744d34f59d2bd8324b826f9077beeb85726ae0a537b45",
        "logs/u03_regression.jsonl":
            "29b99b4d27e934281dd27704d6e9ed8ef17b35e640357108c686e2d0c2e11bf3",
        "logs/u04_classification.jsonl":
            "c21e39a05d23c5542abdd78687eeb6910456862f0c7e22c97508a02b0de0db98",
        "logs/u04_regression.jsonl":
            "52af3d5aacbdcfc7751537adc57e9996fbb25285deadebd556a96edd70d1c06e",
        "logs/u05_classification.jsonl":
            "cad2fb7ae881eca81c261f6170d8c767de56bba6de6e6ace76dbdef44ba68c8f",
        "logs/u05_regression.jsonl":
            "f68435a9e16a1c1d8fb56b0025b0cd9ee5d3af1eff4f20d409fc8cda27323f21",
        "manifest.json":
            "6873a40f24289f129556feedfbb84edba50ecbc99bcb6b681c68469e9d51e4ee",
        "surveys/ratings.csv":
            "2c401e653e4f975181a8ea73befb561d40f97e3c8762fa379481b3ceb99e4d5a",
        "surveys/sus.csv":
            "ff38ef34027b89f44a82eaff0e5ad61a0f18e416e294818cd81adf518c41f35e",
    },
    "tworavens": {
        "logs/u01_classification.jsonl":
            "279eca86162cf783c83a748011e9f3b67a59f547640f08611e152c24168a3471",
        "logs/u01_regression.jsonl":
            "3c0926d1759c133afa3caa34f745aa048364973636ec7d401cfc7500b19fd3c5",
        "logs/u02_classification.jsonl":
            "e39b4b4842d9b31f89ca648dc78e31ad6866785be6ad5cc30ca7091c52c49d4b",
        "logs/u02_regression.jsonl":
            "6f07d28fa2ff7c625cc292db61b06578bdf780e6b1ea7bd4d754d039dc77572f",
        "logs/u03_classification.jsonl":
            "f57f2ff826870a6c65efd5049435b22530f60a8b07f7eb133ec7b8e8ca01610f",
        "logs/u03_regression.jsonl":
            "bb4a0cd774201dd1f5e1a16517533da4ef44febe1381a42b50d14cf367f8e66d",
        "logs/u04_classification.jsonl":
            "87e45f5408d707ce5ee6d570fbff3c1ea7e58b756ea22d6147a0fa3482240bdd",
        "logs/u04_regression.jsonl":
            "8b66f8e05614bd4742b1ab8cf71054d73e9d6b9ff1fbb9b12f77bf4b29f8d81a",
        "logs/u05_classification.jsonl":
            "c8b53496a562fa1d1afbf0234f0404eef5e1f0df2335502b1118813274edb80a",
        "logs/u05_regression.jsonl":
            "6e7e7fb7c67e4a8f00c740ebe747ef6bd99142ed953df7eaf223fff66320ea1a",
        "logs/u06_classification.jsonl":
            "9c13ae74ed6c880ba5c7e5d60435dde6b6e942d2ef738569d41ff07a2a4ff52c",
        "logs/u06_regression.jsonl":
            "fe446756afa5d7e2ca8a692113a162dd2bc650e1af516193fe3a44e2c730683d",
        "manifest.json":
            "5678130062d5958b561fe8d129423b2eeeea6f6f8d6d51a4a7990654dccd2083",
        "surveys/ratings.csv":
            "12e6c7ae7ad12f00713e553faa54b6bd26febf8674ba33fc34197dff50f89949",
        "surveys/sus.csv":
            "9d7d0843184e23f18615f820d29bff7cb8904efc6c367be8e563bf0a513d523a",
    },
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
def golden_root(tmp_path_factory):
    """The directory holding every case's tree, export and report, and the
    comparison of the three plain cases."""
    root = tmp_path_factory.mktemp("golden")
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
    _run("compare", *(root / s / f"{s}.json" for s in GOLDEN_TREES),
         "--out", root / "comparison.html")
    return root


@pytest.fixture(scope="module")
def digests(golden_root):
    out = {}
    for case in PROFILES:
        system = case.split("-")[0]
        work = golden_root / case
        if case == system:
            out[f"{case}-tree"] = {
                path.relative_to(work / "tree").as_posix(): _sha256(path)
                for path in sorted((work / "tree").rglob("*")) if path.is_file()
            }
        out[case] = {
            "export": _sha256(work / f"{case}.json"),
            "report": _sha256(work / "reports" / f"{system}.cards.html"),
        }
    out["comparison"] = _sha256(golden_root / "comparison.html")
    return out


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN[case]


@pytest.mark.parametrize("system", list(GOLDEN_TREES))
def test_golden_synth_tree(digests, system):
    assert digests[f"{system}-tree"] == GOLDEN_TREES[system]


@pytest.mark.parametrize("case", list(PROFILES))
def test_cli_render_equals_dict_api(golden_root, case, tmp_path):
    """The CLI renders from the file's bytes; the dict API from the canonical
    text of the document. For an export `analyze` wrote they are the same
    bytes, so the reports are too."""
    system = case.split("-")[0]
    export = golden_root / case / f"{case}.json"
    data = export.read_bytes()
    assert canonical_json(json.loads(data)).encode("utf-8") == data
    report = golden_root / case / "reports" / f"{system}.cards.html"
    assert report.read_bytes() == render_within_export(json.loads(data)).encode("utf-8")
    _run("render", export, "--out", tmp_path, "--log-scale")
    logged = render_within_export(json.loads(data), log_scale=True)
    assert (tmp_path / f"{system}.cards.html").read_bytes() == logged.encode("utf-8")


def test_cli_compare_equals_dict_api(golden_root):
    docs = [json.loads((golden_root / s / f"{s}.json").read_bytes()) for s in GOLDEN_TREES]
    comparison = (golden_root / "comparison.html").read_bytes()
    assert comparison == render_between(docs).encode("utf-8")


BATCH = 64  # pieces per chunk: small enough that a golden report takes many chunks


def _sink_chunks(monkeypatch, *args) -> list[str]:
    """The chunks that the CLI run ``args`` hands to the sink of its report."""
    chunks: list[str] = []
    real_write_temp = cli._write_temp

    def recorded(path, text):
        if isinstance(text, str):  # the manifest
            return real_write_temp(path, text)
        return real_write_temp(path, lambda sink: text(lambda c: (chunks.append(c), sink(c))))

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_temp", recorded)
        patch.setattr(serialize, "_FLUSH_PIECES", BATCH)
        _run(*args)
    return chunks


def _assert_streamed(chunks: list[str], pieces: list[str]) -> None:
    """The chunks are the pieces joined, and none is longer than ``BATCH``
    consecutive pieces, so the document never was one string."""
    assert "".join(chunks) == "".join(pieces)
    lengths = [len(p) for p in pieces]
    longest_batch = max(sum(lengths[i : i + BATCH]) for i in range(len(lengths)))
    assert len(chunks) > 1
    assert max(len(c) for c in chunks) <= longest_batch


@pytest.mark.parametrize("case", ["tworavens", "visus-messy"])
def test_report_reaches_its_file_in_batches(golden_root, case, tmp_path, monkeypatch):
    export = golden_root / case / f"{case}.json"
    data = export.read_bytes()
    chunks = _sink_chunks(monkeypatch, "render", export, "--out", tmp_path)
    pieces = list(render_within_parsed(load_export(data), hashlib.sha256(data).hexdigest()))
    _assert_streamed(chunks, pieces)


def test_comparison_reaches_its_file_in_batches(golden_root, tmp_path, monkeypatch):
    paths = [golden_root / case / f"{case}.json" for case in ("tworavens", "visus-messy")]
    chunks = _sink_chunks(monkeypatch, "compare", *paths, "--out", tmp_path / "cmp.html")
    data = [p.read_bytes() for p in paths]
    exports = [load_export(d) for d in data]
    order = comparison_order(exports)
    digest = hashlib.sha256(b"".join(data[i] for i in order)).hexdigest()
    pieces = list(render_between_parsed([exports[i] for i in order], digest))
    _assert_streamed(chunks, pieces)


def test_golden_visus_case_is_the_same_in_another_environment(golden_root, tmp_path):
    """synth, analyze, render and compare, each in a child process with
    another hash seed, time zone and locale, write the golden bytes."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(evalcards.__file__).parents[1]),
        PYTHONHASHSEED="12345",
        TZ="Pacific/Kiritimati",
        LC_ALL="C",
    )

    def child(*args) -> None:
        subprocess.run(
            [sys.executable, "-m", "evalcards.cli", *map(str, args)],
            env=env, check=True, capture_output=True,
        )

    (tmp_path / "taxonomy.yaml").write_text(fixture_text("visus"), encoding="utf-8")
    (tmp_path / "profile.yaml").write_text(PROFILES["visus"], encoding="utf-8")
    tree = tmp_path / "tree"
    child("synth", "--taxonomy", tmp_path / "taxonomy.yaml", "--profile", tmp_path / "profile.yaml",
          "--out", tree)
    export = tmp_path / "visus.json"
    child("analyze", "--taxonomy", tmp_path / "taxonomy.yaml", "--logs", tree / "logs",
          "--surveys", tree / "surveys", "--out", export)
    child("render", export, "--out", tmp_path / "reports")
    comparison = tmp_path / "comparison.html"
    child("compare", export, *(golden_root / s / f"{s}.json" for s in ("distil", "tworavens")),
          "--out", comparison)
    assert {
        path.relative_to(tree).as_posix(): _sha256(path)
        for path in sorted(tree.rglob("*")) if path.is_file()
    } == GOLDEN_TREES["visus"]
    assert {
        "export": _sha256(export),
        "report": _sha256(tmp_path / "reports" / "visus.cards.html"),
    } == GOLDEN["visus"]
    assert _sha256(comparison) == GOLDEN["comparison"]

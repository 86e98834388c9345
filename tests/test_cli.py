"""Subcommand behavior, exit codes, and file handling."""
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evalcards
from evalcards.cli import main, parse_duration_ms, CliError, _write_atomic
from evalcards.fixtures import fixture_text
from corruptions import CORRUPTIONS

PROFILE = (
    "archetype: linear\n"
    "n_users: 4\n"
    "tasks: [classification, regression]\n"
    "dwell_ms: {min: 2000, max: 60000}\n"
    "seed: 7\n"
)


@pytest.fixture()
def visus_config(tmp_path):
    path = tmp_path / "visus.yaml"
    path.write_text(fixture_text("visus"), encoding="utf-8")
    return path


@pytest.fixture()
def profile_file(tmp_path):
    path = tmp_path / "profile.yaml"
    path.write_text(PROFILE, encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def synth_and_analyze(tmp_path, visus_config, profile_file, out_name="export.json"):
    fixture_dir = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", fixture_dir]) == 0
    export = tmp_path / out_name
    assert (
        run(
            [
                "analyze",
                "--taxonomy", visus_config,
                "--logs", fixture_dir / "logs",
                "--surveys", fixture_dir / "surveys",
                "--out", export,
            ]
        )
        == 0
    )
    return fixture_dir, export


def visus_and_distil_exports(tmp_path, visus_config, profile_file):
    _, visus_export = synth_and_analyze(tmp_path / "visus", visus_config, profile_file, "visus.json")
    distil_config = tmp_path / "distil.yaml"
    distil_config.write_text(fixture_text("distil"), encoding="utf-8")
    _, distil_export = synth_and_analyze(tmp_path / "distil", distil_config, profile_file, "distil.json")
    return visus_export, distil_export


# --------------------------------------------------------------------------
# taxonomy
# --------------------------------------------------------------------------


def test_taxonomy_init_then_validate_unmodified_fails(tmp_path, capsys):
    config = tmp_path / "draft.yaml"
    assert run(["taxonomy", "init", config]) == 0
    assert config.exists()
    assert run(["taxonomy", "validate", config]) == 2
    assert "no action chosen" in capsys.readouterr().err


def test_taxonomy_init_refuses_overwrite(tmp_path, capsys):
    config = tmp_path / "draft.yaml"
    assert run(["taxonomy", "init", config]) == 0
    assert run(["taxonomy", "init", config]) == 2
    assert "--force" in capsys.readouterr().err
    assert run(["taxonomy", "init", config, "--force"]) == 0


def test_taxonomy_validate_visus_prints_component_count(visus_config, capsys):
    assert run(["taxonomy", "validate", visus_config]) == 0
    assert "11 terminal components" in capsys.readouterr().out


def test_taxonomy_validate_names_missing_l2_with_line_anchor(tmp_path, capsys):
    lines = [
        ln
        for ln in fixture_text("visus").splitlines()
        if not ln.startswith("augment_dataset")
    ]
    config = tmp_path / "broken.yaml"
    config.write_text("\n".join(lines), encoding="utf-8")
    assert run(["taxonomy", "validate", config]) == 2
    err = capsys.readouterr().err
    assert "augment_dataset" in err


def test_taxonomy_validate_anchors_bad_value_to_line(tmp_path, capsys):
    text = fixture_text("visus").replace("compare_models: apply", "compare_models: applyy")
    config = tmp_path / "typo.yaml"
    config.write_text(text, encoding="utf-8")
    assert run(["taxonomy", "validate", config]) == 2
    err = capsys.readouterr().err
    assert "compare_models" in err
    assert re.search(r"line \d+", err)


def test_edited_skeleton_validates(tmp_path, capsys):
    config = tmp_path / "draft.yaml"
    assert run(["taxonomy", "init", config, "--name", "demo"]) == 0
    config.write_text(config.read_text().replace("unassigned", "apply"), encoding="utf-8")
    assert run(["taxonomy", "validate", config]) == 0
    assert "demo: 9 terminal components" in capsys.readouterr().out


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------


def test_synth_writes_expected_tree(tmp_path, visus_config, profile_file):
    out = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", out]) == 0
    logs = sorted(p.name for p in (out / "logs").glob("*.jsonl"))
    assert len(logs) == 8
    assert "u01_classification.jsonl" in logs
    assert (out / "surveys" / "ratings.csv").exists()
    assert (out / "surveys" / "sus.csv").exists()
    assert (out / "manifest.json").exists()


def test_synth_refuses_nonempty_dir_without_force(tmp_path, visus_config, profile_file, capsys):
    out = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", out]) == 0
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", out]) == 2
    assert "--force" in capsys.readouterr().err


def test_synth_seed_override_changes_output(tmp_path, visus_config, profile_file):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", a]) == 0
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", b, "--seed", 99]) == 0
    assert (a / "manifest.json").read_bytes() != (b / "manifest.json").read_bytes()


def test_synth_iterative_pair_not_in_model_exits_2(tmp_path, visus_config, capsys):
    profile = tmp_path / "bad.yaml"
    profile.write_text(
        PROFILE.replace("archetype: linear", "archetype: iterative")
        + "iteration_pair: [open_dataset, summarize_models]\n"
    )
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile, "--out", tmp_path / "x"]) == 2
    assert "summarize_models" in capsys.readouterr().err


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


def test_analyze_pipeline_summary_and_export(tmp_path, visus_config, profile_file, capsys):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    out = capsys.readouterr().out
    assert "sessions=8" in out
    assert "users=4" in out
    assert "components=11" in out
    doc = json.loads(export.read_text())
    assert doc["kind"] == "evalcards-export"
    assert len(doc["descriptive"]["sessions"]) == 8


def test_analyze_empty_logs_dir_exits_2(tmp_path, visus_config, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run(["analyze", "--taxonomy", visus_config, "--logs", empty, "--out", tmp_path / "x.json"])
    assert code == 2
    assert "jsonl" in capsys.readouterr().err


def test_analyze_log_not_utf8_names_file_and_byte(tmp_path, visus_config, profile_file, capsys):
    fixture_dir = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", fixture_dir]) == 0
    log = fixture_dir / "logs" / "u01_classification.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    data = b"".join(lines * (10_000 // len(b"".join(lines)) + 1))  # past the first read chunk
    at = len(data) - len(lines[-1]) + 2
    log.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    capsys.readouterr()
    code = run(["analyze", "--taxonomy", visus_config, "--logs", fixture_dir / "logs",
                "--out", tmp_path / "x.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"  {log.name}: byte {at}: not valid UTF-8\n" in err
    assert "internal error" not in err and len(err) < 200


def test_analyze_without_surveys_marks_no_data(tmp_path, visus_config, profile_file):
    fixture_dir = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", fixture_dir]) == 0
    export = tmp_path / "export.json"
    code = run(
        ["analyze", "--taxonomy", visus_config, "--logs", fixture_dir / "logs", "--out", export]
    )
    assert code == 0
    doc = json.loads(export.read_text())
    assert all(att["no_data"] for att in doc["attitudes"].values())
    assert doc["descriptive"]["sus"] == {}
    assert len(doc["descriptive"]["missing_sus"]) == 4


def test_analyze_refuses_overwrite_without_force(tmp_path, visus_config, profile_file, capsys):
    fixture_dir, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    code = run(
        [
            "analyze",
            "--taxonomy", visus_config,
            "--logs", fixture_dir / "logs",
            "--out", export,
        ]
    )
    assert code == 2
    assert "--force" in capsys.readouterr().err


def test_analyze_bad_idle_cap_exits_2(tmp_path, visus_config, capsys):
    code = run(
        [
            "analyze",
            "--taxonomy", visus_config,
            "--logs", tmp_path,
            "--out", tmp_path / "x.json",
            "--idle-cap", "soon",
        ]
    )
    assert code == 2


SUS_CSV_HEADER = "user_id," + ",".join(f"q{i}" for i in range(1, 11)) + "\n"
RATINGS_CSV_HEADER = "user_id,comp_id,efficiency,effectiveness\n"


@pytest.mark.parametrize(
    "name, text, row",
    [
        ("ratings.csv", RATINGS_CSV_HEADER + "u01,open_dataset,3\n", 2),
        ("ratings.csv", RATINGS_CSV_HEADER + "u01,open_dataset,four,5\n", 2),
        ("ratings.csv", RATINGS_CSV_HEADER + "u01,open_dataset,9,5\n", 2),
        ("sus.csv", SUS_CSV_HEADER + "u01,3,3\n", 2),
        ("sus.csv", SUS_CSV_HEADER + "u01,3,x,3,3,3,3,3,3,3,3\n", 2),
        ("sus.csv", SUS_CSV_HEADER + "u01,3,3,3,3,9,3,3,3,3,3\n", 2),
        ("sus.csv", SUS_CSV_HEADER + "u01,3,3,3,3,3,3,3,3,3,3\n" + "u01,4,4,4,4,4,4,4,4,4,4\n", 3),
        # a stray quote opens a field that runs past the csv module's size limit
        ("ratings.csv", RATINGS_CSV_HEADER + "u01,open_dataset,3,3\n\"" + "x" * 140_000 + "\n", 3),
    ],
    ids=[
        "ratings-short", "ratings-not-int", "ratings-range",
        "sus-short", "sus-not-int", "sus-range", "sus-duplicate-user", "ratings-field-too-large",
    ],
)
def test_analyze_bad_survey_row_names_file_and_row_once(
    tmp_path, visus_config, profile_file, capsys, name, text, row
):
    fixture_dir = tmp_path / "fixture"
    assert run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", fixture_dir]) == 0
    csv_path = fixture_dir / "surveys" / name
    csv_path.write_text(text, encoding="utf-8")
    code = run(
        [
            "analyze",
            "--taxonomy", visus_config,
            "--logs", fixture_dir / "logs",
            "--surveys", fixture_dir / "surveys",
            "--out", tmp_path / "export.json",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(str(csv_path)) == 1
    assert err.count(f"row {row}") == 1
    assert err.count("row ") == 1


def test_parse_duration_ms():
    assert parse_duration_ms("10m") == 600_000
    assert parse_duration_ms("90s") == 90_000
    assert parse_duration_ms("1500ms") == 1_500
    assert parse_duration_ms("2h") == 7_200_000
    assert parse_duration_ms("off") is None
    assert parse_duration_ms("0") is None
    for bad in ("", "10", "-5s", "1.5m", "m"):
        with pytest.raises(CliError):
            parse_duration_ms(bad)


# --------------------------------------------------------------------------
# render / compare
# --------------------------------------------------------------------------


def test_render_writes_report_with_eight_sections(tmp_path, visus_config, profile_file):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    out_dir = tmp_path / "reports"
    assert run(["render", export, "--out", out_dir]) == 0
    report = out_dir / "visus.cards.html"
    assert report.exists()
    html = report.read_text()
    assert html.count('<section class="card') == 8
    manifest = json.loads((out_dir / "visus.cards.html.manifest.json").read_text())
    assert "generated_at" in manifest
    assert manifest["inputs"] == {str(export): hashlib.sha256(export.read_bytes()).hexdigest()}


def test_render_rejects_invalid_export(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "something-else"}')
    assert run(["render", bad, "--out", tmp_path / "reports"]) == 2
    assert "export" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "compare"])
def test_export_not_utf8_names_file_and_byte(tmp_path, visus_config, profile_file, capsys, command):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    other = tmp_path / "other.json"
    other.write_bytes(export.read_bytes())
    data = bytearray(export.read_bytes())
    at = data.index(b'"system_name"') + 1
    data[at] = 0xFF
    export.write_bytes(bytes(data))
    capsys.readouterr()
    args = [export, "--out", tmp_path / "reports"]
    if command == "compare":
        args = [other, export, "--out", tmp_path / "cmp.html"]
    assert run([command, *args]) == 2
    assert capsys.readouterr().err == f"error: {export}: byte {at}: not valid UTF-8\n"


@pytest.mark.parametrize("command", ["render", "compare"])
def test_export_non_finite_constant_names_file(tmp_path, visus_config, profile_file, capsys, command):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    other = tmp_path / "other.json"
    other.write_bytes(export.read_bytes())
    text = export.read_text(encoding="utf-8")
    for constant in ("NaN", "Infinity", "-Infinity"):
        export.write_text(re.sub(r"-?\d+\.\d{4}", constant, text, count=1), encoding="utf-8")
        capsys.readouterr()
        args = [export, "--out", tmp_path / "reports"]
        if command == "compare":
            args = [other, export, "--out", tmp_path / "cmp.html"]
        assert run([command, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {export}: not valid JSON ({constant} is not a JSON number)\n"


@pytest.fixture(scope="module")
def small_exports(tmp_path_factory):
    """The bytes of a valid visus export and a valid distil export."""
    tmp = tmp_path_factory.mktemp("small")
    profile = tmp / "profile.yaml"
    profile.write_text(PROFILE, encoding="utf-8")
    exports = []
    for system in ("visus", "distil"):
        config = tmp / f"{system}.yaml"
        config.write_text(fixture_text(system), encoding="utf-8")
        exports.append(synth_and_analyze(tmp / system, config, profile)[1].read_bytes())
    return exports


@pytest.mark.parametrize("command", ["render", "compare"])
@pytest.mark.parametrize("corrupt", [pytest.param(c, id=name) for name, c in CORRUPTIONS])
def test_corrupt_export_exits_2_naming_file_and_path(tmp_path, small_exports, capsys, corrupt, command):
    visus, distil = small_exports
    doc = json.loads(visus)
    planted = corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    other = tmp_path / "distil.json"
    other.write_bytes(distil)
    args = [bad, "--out", tmp_path / "reports"]
    if command == "compare":
        args = [other, bad, "--out", tmp_path / "cmp.html"]
    assert run([command, *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {planted}: ")
    assert not list(tmp_path.rglob("*.html"))


def _json_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, (*path, key))


DELETE = "<delete>"
ONE_OF_EACH_TYPE = [None, True, 7, 2.5, "x", [], {}]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_single_field_mutation_never_exits_1(small_exports, tmp_path_factory, data):
    visus, distil = small_exports
    doc = json.loads(visus)
    *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))[1:]), label="path")
    parent = doc
    for step in parents:
        parent = parent[step]
    others = [v for v in ONE_OF_EACH_TYPE if type(v) is not type(parent[key])]
    value = data.draw(st.sampled_from([DELETE, *others]), label="value")
    if value == DELETE:
        del parent[key]
    else:
        parent[key] = value
    work = tmp_path_factory.mktemp("mutated")
    bad, other = work / "bad.json", work / "distil.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    other.write_bytes(distil)
    assert run(["render", bad, "--out", work / "reports"]) in (0, 2)
    assert run(["compare", other, bad, "--out", work / "cmp.html"]) in (0, 2)


def test_compare_log_scale_is_a_usage_error(tmp_path, capsys):
    assert run(["compare", "a.json", "b.json", "--out", tmp_path / "cmp.html", "--log-scale"]) == 2
    assert "unrecognized arguments: --log-scale" in capsys.readouterr().err


def test_render_refuses_overwrite_without_force(tmp_path, visus_config, profile_file):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    out_dir = tmp_path / "reports"
    assert run(["render", export, "--out", out_dir]) == 0
    assert run(["render", export, "--out", out_dir]) == 2
    assert run(["render", export, "--out", out_dir, "--force"]) == 0


def test_compare_single_export_exits_2(tmp_path, visus_config, profile_file, capsys):
    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    assert run(["compare", export, "--out", tmp_path / "cmp.html"]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_compare_two_systems(tmp_path, visus_config, profile_file):
    visus_export, distil_export = visus_and_distil_exports(tmp_path, visus_config, profile_file)
    out = tmp_path / "cmp.html"
    assert run(["compare", visus_export, distil_export, "--out", out]) == 0
    html = out.read_text()
    assert html.count('<section class="card') == 4
    assert 'class="l2-panel"' in html


def test_compare_manifest_keys_same_named_exports_by_path(tmp_path, visus_config, profile_file):
    _, visus_export = synth_and_analyze(tmp_path / "a", visus_config, profile_file, "x.json")
    distil_config = tmp_path / "distil.yaml"
    distil_config.write_text(fixture_text("distil"), encoding="utf-8")
    _, distil_export = synth_and_analyze(tmp_path / "b", distil_config, profile_file, "x.json")
    out = tmp_path / "cmp.html"
    assert run(["compare", visus_export, distil_export, "--out", out]) == 0
    manifest = json.loads((tmp_path / "cmp.html.manifest.json").read_text())
    assert manifest["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (visus_export, distil_export)
    }


@pytest.mark.parametrize("command", ["render", "compare"])
def test_cli_parses_and_validates_each_export_once(
    tmp_path, visus_config, profile_file, monkeypatch, command
):
    import evalcards.cards as cards_mod
    import evalcards.cli as cli_mod
    import evalcards.export as export_mod
    import evalcards.serialize as serialize_mod

    visus_export, distil_export = visus_and_distil_exports(tmp_path, visus_config, profile_file)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    serializers = [(cards_mod, "canonical_json"), (serialize_mod, "canonical_json"),
                   (cli_mod, "write_canonical_json"), (serialize_mod, "write_canonical_json")]
    for mod, name in serializers:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(
        export_mod, "validate_export", counted("validate_export", export_mod.validate_export)
    )
    monkeypatch.setattr(json, "loads", counted("json.loads", json.loads))
    out = tmp_path / ("reports" if command == "render" else "cmp.html")
    assert run([command, visus_export, distil_export, "--out", out]) == 0
    assert calls == {"json.loads": 2, "validate_export": 2}


def test_render_compare_and_taxonomy_load_neither_numpy_nor_yaml(
    tmp_path, visus_config, profile_file
):
    visus_export, distil_export = visus_and_distil_exports(tmp_path, visus_config, profile_file)
    program = (
        "import sys\n"
        "from evalcards.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules, 'yaml' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(evalcards.__file__).parents[1]))
    commands = {
        "render": ["render", visus_export, "--out", tmp_path / "reports"],
        "compare": ["compare", visus_export, distil_export, "--out", tmp_path / "cmp.html"],
        "taxonomy": ["taxonomy", "validate", visus_config],
    }
    loaded = {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-c", program, *map(str, argv)],
            capture_output=True, text=True, env=env, check=True,
        )
        loaded[name] = proc.stdout.splitlines()[-1]
    # taxonomy validate parses YAML, so only numpy must stay out of it
    assert loaded == {"render": "0 False False", "compare": "0 False False",
                      "taxonomy": "0 False True"}


# --------------------------------------------------------------------------
# input doors: every bad input file ends in exit 2 and names the file once
# --------------------------------------------------------------------------

COMMANDS = {
    "analyze": ["analyze", "--taxonomy", "{w}/visus.yaml", "--logs", "{w}/tree/logs",
                "--surveys", "{w}/tree/surveys", "--out", "{w}/out.json"],
    "validate": ["taxonomy", "validate", "{w}/visus.yaml"],
    "synth": ["synth", "--taxonomy", "{w}/visus.yaml", "--profile", "{w}/profile.yaml",
              "--out", "{w}/synth"],
    "render": ["render", "{w}/export.json", "--out", "{w}/reports"],
}
# Each input kind, its file in a door tree, and the command that reads it alone.
DOORS = {
    "log": ("tree/logs/u01_classification.jsonl", "analyze"),
    "ratings": ("tree/surveys/ratings.csv", "analyze"),
    "sus": ("tree/surveys/sus.csv", "analyze"),
    "taxonomy": ("visus.yaml", "validate"),
    "profile": ("profile.yaml", "synth"),
    "export": ("export.json", "render"),
}


@pytest.fixture(scope="module")
def door_tree(tmp_path_factory):
    """A 3-user visus tree with its taxonomy, profile and export."""
    base = tmp_path_factory.mktemp("doors")
    (base / "visus.yaml").write_text(fixture_text("visus"), encoding="utf-8")
    profile = PROFILE.replace("n_users: 4", "n_users: 3").replace(", regression", "")
    (base / "profile.yaml").write_text(profile, encoding="utf-8")
    assert run_in(base, "synth") == (0, "")
    (base / "synth").rename(base / "tree")
    assert run_in(base, "analyze") == (0, "")
    (base / "out.json").rename(base / "export.json")
    return base


def run_in(work, command):
    """Run ``command`` on the files under ``work``; return its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([arg.format(w=work) for arg in COMMANDS[command]])
    return code, err.getvalue()


def door_copy(door_tree, tmp_path_factory, name):
    work = tmp_path_factory.mktemp("door")
    shutil.copytree(door_tree, work, dirs_exist_ok=True)
    return work, work / DOORS[name][0]


@pytest.mark.parametrize("door", list(DOORS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_input_door_exits_0_or_2_naming_the_file_once(door_tree, tmp_path_factory, door, data):
    work, target = door_copy(door_tree, tmp_path_factory, door)
    raw = target.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    how = data.draw(st.sampled_from(["flip", "truncate", "insert"]), label="how")
    if how == "flip":
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        raw = raw[:at] + bytes([byte]) + raw[at + 1:]
    elif how == "truncate":
        raw = raw[:at]
    else:
        raw = raw[:at] + b"\xff" + raw[at:]
    target.write_bytes(raw)
    code, err = run_in(work, DOORS[door][1])
    assert code in (0, 2), err
    if code == 2:
        # a log is named by its file name, in the list of logs that failed
        assert err.count(target.name if door == "log" else str(target)) == 1, err


def _line_of(key):
    lines = fixture_text("visus").splitlines()
    return 1 + next(i for i, text in enumerate(lines) if text.startswith(f"{key}:"))


NOT_UTF8 = None  # the probe appends 0xFF, so the message names the old file size
PROBES = [
    ("sus", lambda raw: raw + b"\xff", "analyze", NOT_UTF8),
    ("ratings", lambda raw: raw + b"\xff", "analyze", NOT_UTF8),
    ("taxonomy", lambda raw: raw + b"\xff", "validate", NOT_UTF8),
    ("taxonomy", lambda raw: raw + b"\xff", "analyze", NOT_UTF8),
    ("profile", lambda raw: raw + b"\xff", "synth", NOT_UTF8),
    ("ratings", lambda raw: raw.replace(b",open_dataset,", b",nope,", 1), "analyze",
     "row 2: rating for comp_id 'nope' which is not in model 'visus'"),
    *[
        (
            "taxonomy",
            lambda raw: raw.replace(b"compare_models: apply", b"compare_models: applyy"),
            command,
            f"no action chosen for: compare_models (line {_line_of('compare_models')}) "
            "(each entry must be one of: apply, subdivide, drop)",
        )
        for command in ("validate", "analyze", "synth")
    ],
    (
        "taxonomy",
        lambda raw: b"create:\n  - l1: model\n    l2: explain_model\n    components: [a]\n" + raw,
        "validate",
        "created level-2 key 'explain_model' collides with a reference key",
    ),
    (
        "taxonomy",
        lambda raw: raw.replace(b"augment_dataset: drop\n", b""),
        "analyze",
        "no action assigned for reference level-2 functionality: augment_dataset",
    ),
    (
        "taxonomy",
        lambda raw: raw.replace(b"see_pdp, label", b"see_pdp, labl"),
        "validate",
        f"line {_line_of('explain_model')}: explain_model: unknown component keys ['labl']",
    ),
    (
        "profile",
        lambda raw: b"archetype: linear\n]\n",
        "synth",
        "line 2, column 1: not valid YAML (expected <block end>, but found ']')",
    ),
    ("profile", lambda raw: raw.replace(b"n_users: 3", b"n_users: 0"), "synth",
     "line 2: n_users must be >= 1, got 0"),
    ("profile", lambda raw: raw.replace(b"seed: 7", b"seed: x"), "synth",
     "line 5: bad profile value: invalid literal for int() with base 10: 'x'"),
    (
        "profile",
        lambda raw: raw.replace(b"linear", b"iterative") + b"iteration_pair: [nope, see_pdp]\n",
        "synth",
        "line 6: iteration pair component(s) ['nope'] not in model 'visus'",
    ),
    (
        "taxonomy",
        lambda raw: b"1: apply\nfoo: x\nsystem_name: a\n",
        "validate",
        "line 1: unknown top-level key 1 (expected the reference level-2 keys, 'system_name', 'create')",
    ),
    # Input nested deeper than the decoders recurse.
    (
        "log",
        lambda raw: raw.replace(
            b'"timestamp"', b'"other": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000 + b', "timestamp"', 1
        ),
        "analyze",
        "line 1: not valid JSON (nested too deeply)",
    ),
    ("export", lambda raw: b"[" * 100_000 + b"]" * 100_000, "render", "not valid JSON (nested too deeply)"),
    (
        "taxonomy",
        lambda raw: raw.replace(b"system_name: visus", b"system_name: " + b"[" * 5_000 + b"]" * 5_000),
        "validate",
        "not valid YAML (nested too deeply)",
    ),
    (
        "log",
        lambda raw: b"".join([raw.splitlines(True)[1], raw.splitlines(True)[0], *raw.splitlines(True)[2:]]),
        "analyze",
        "line 2: session u01/classification has decreasing timestamps",
    ),
    # An 'other' payload is checked on either read path: the one scan of a
    # file as synth writes it, and the per-line loop once a line ends in \r\n.
    *[
        (
            "log",
            lambda raw, payload=payload, eol=eol: raw.replace(
                b'"timestamp"', b'"other": ' + payload + b', "timestamp"', 1
            ).replace(b"\n", eol),
            "analyze",
            message,
        )
        for payload, message in (
            (b'{"x": 1}', "line 1: comp_id 'open_dataset' (level-2 'open_dataset') carries an 'other' "
                          "payload; only ('specify_problem', 'explain_model') components may"),
            (b'{"x": }', "line 1: not valid JSON (Expecting value)"),
        )
        for eol in (b"\n", b"\r\n")
    ],
]


@pytest.mark.parametrize(
    "door, corrupt, command, message",
    PROBES,
    ids=[f"{door}-{command}-{i}" for i, (door, _, command, _) in enumerate(PROBES)],
)
def test_bad_input_probe_names_file_and_location(
    door_tree, tmp_path_factory, door, corrupt, command, message
):
    work, target = door_copy(door_tree, tmp_path_factory, door)
    raw = target.read_bytes()
    target.write_bytes(corrupt(raw))
    if message is NOT_UTF8:
        message = f"byte {len(raw)}: not valid UTF-8"
    # a log is named by its file name, in the list of logs that failed
    named = f"1 log file(s) failed to load:\n  {target.name}" if door == "log" else target
    assert run_in(work, command) == (2, f"error: {named}: {message}\n")


def test_render_of_a_bad_export_leaves_no_out_dir(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run(["render", bad, "--out", tmp_path / "rep"]) == 2
    assert not (tmp_path / "rep").exists()


# --------------------------------------------------------------------------
# contract details
# --------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert run(["divine"]) == 2
    capsys.readouterr()


def test_error_output_has_no_ansi_when_not_a_tty(tmp_path, visus_config, capsys, monkeypatch):
    monkeypatch.delenv("EVALCARDS_NO_COLOR", raising=False)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["analyze", "--taxonomy", visus_config, "--logs", empty, "--out", tmp_path / "o.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\x1b[" not in err


def test_internal_errors_exit_1(monkeypatch, tmp_path, visus_config, profile_file, capsys):
    import evalcards.synth as synth_mod

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    # cmd_synth imports generate_bundle when it runs, so patch it at its source
    monkeypatch.setattr(synth_mod, "generate_bundle", boom)
    code = run(["synth", "--taxonomy", visus_config, "--profile", profile_file, "--out", tmp_path / "x"])
    assert code == 1
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, fail_at):
    target = tmp_path / "report.html"
    target.write_text("old", encoding="utf-8")

    class HalfWritten(io.FileIO):
        def write(self, data):
            super().write(bytes(data[: len(data) // 2]))
            raise OSError("no space left on device")

    def refused(src, dst):
        raise OSError("no space left on device")

    if fail_at == "write":
        monkeypatch.setattr(Path, "open", lambda self, mode: HalfWritten(self, mode))
    else:
        monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(OSError):
        _write_atomic(target, "new text")
    monkeypatch.undo()
    assert target.read_text(encoding="utf-8") == "old"
    assert os.listdir(tmp_path) == ["report.html"]


def test_export_that_fails_partway_keeps_old_file_and_leaves_no_temp(
    tmp_path, visus_config, profile_file, monkeypatch, capsys
):
    import evalcards.cli as cli_mod
    import evalcards.serialize as serialize_mod

    fixture_dir, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    old = export.read_bytes()
    real_export_metrics = cli_mod.export_metrics
    real_write = cli_mod.write_canonical_json
    written = []

    def with_nan(*args):
        doc = real_export_metrics(*args)
        doc["zz"] = [{"deep": [1.0, float("nan")]}]  # sorts last: emitted after every section
        return doc

    def counted_write(doc, sink):
        real_write(doc, lambda chunk: (written.append(chunk), sink(chunk)))

    monkeypatch.setattr(cli_mod, "export_metrics", with_nan)
    monkeypatch.setattr(cli_mod, "write_canonical_json", counted_write)
    monkeypatch.setattr(serialize_mod, "_FLUSH_PIECES", 64)  # a small export in many chunks
    code = run(["analyze", "--taxonomy", visus_config, "--logs", fixture_dir / "logs",
                "--out", export, "--force"])
    assert code == 1
    assert "non-finite value" in capsys.readouterr().err
    assert len(written) > 10  # chunks reached the temporary file before the emitter raised
    assert export.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["export.json", "fixture", "profile.yaml", "visus.yaml"]


def test_report_and_manifest_are_replaced_together(
    tmp_path, visus_config, profile_file, monkeypatch, capsys
):
    import evalcards.cli as cli_mod

    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    out_dir = tmp_path / "reports"
    assert run(["render", export, "--out", out_dir, "--log-scale"]) == 0  # other bytes than the new report
    old = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(old) == 2

    def refused(*args, **kwargs):
        raise RuntimeError("manifest refused")

    monkeypatch.setattr(cli_mod.json, "dumps", refused)
    code = run(["render", export, "--out", out_dir, "--force"])
    monkeypatch.undo()
    assert code == 1
    assert "manifest refused" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old


def test_render_that_fails_on_a_later_export_leaves_out_dir_as_it_was(
    tmp_path, visus_config, profile_file, capsys
):
    visus_export, distil_export = visus_and_distil_exports(tmp_path, visus_config, profile_file)
    out_dir = tmp_path / "reports"
    assert run(["render", visus_export, distil_export, "--out", out_dir, "--log-scale"]) == 0
    old = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(old) == 4
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    for exports in ([visus_export, bad], [visus_export, distil_export, bad], [distil_export, distil_export]):
        assert run(["render", *exports, "--out", out_dir, "--force"]) == 2
        assert capsys.readouterr().out == ""  # no report is named as written
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old
    fresh = tmp_path / "fresh"
    assert run(["render", visus_export, bad, "--out", fresh]) == 2
    assert not fresh.exists()


def test_report_that_fails_partway_keeps_old_files_and_leaves_no_temp(
    tmp_path, visus_config, profile_file, monkeypatch, capsys
):
    import evalcards.cards as cards_mod
    import evalcards.cli as cli_mod
    import evalcards.serialize as serialize_mod

    _, export = synth_and_analyze(tmp_path, visus_config, profile_file)
    out_dir = tmp_path / "reports"
    assert run(["render", export, "--out", out_dir]) == 0
    old = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    real_chart = cards_mod.stacked_columns_svg
    real_write_temp = cli_mod._write_temp
    written = []

    def failing_chart(*args, **kwargs):
        yield from islice(real_chart(*args, **kwargs), 20)
        raise RuntimeError("chart failed")

    def counted_write_temp(path, text):
        return real_write_temp(
            path, lambda sink: text(lambda chunk: (written.append(chunk), sink(chunk)))
        )

    monkeypatch.setattr(cards_mod, "stacked_columns_svg", failing_chart)
    monkeypatch.setattr(cli_mod, "_write_temp", counted_write_temp)
    monkeypatch.setattr(serialize_mod, "_FLUSH_PIECES", 8)  # a small report in many chunks
    code = run(["render", export, "--out", out_dir, "--force"])
    assert code == 1
    assert "chart failed" in capsys.readouterr().err
    assert len(written) > 1  # chunks reached the temporary file before the chart raised
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == old

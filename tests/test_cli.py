"""Subcommand behavior, exit codes, and file handling."""
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
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
    ],
    ids=[
        "ratings-short", "ratings-not-int", "ratings-range",
        "sus-short", "sus-not-int", "sus-range", "sus-duplicate-user",
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

    for mod in (cards_mod, cli_mod, serialize_mod):
        monkeypatch.setattr(mod, "canonical_json", counted("canonical_json", mod.canonical_json))
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
    write_bytes = Path.write_bytes

    def half_written(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    def refused(src, dst):
        raise OSError("no space left on device")

    if fail_at == "write":
        monkeypatch.setattr(Path, "write_bytes", half_written)
    else:
        monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(OSError):
        _write_atomic(target, "new text")
    monkeypatch.undo()
    assert target.read_text(encoding="utf-8") == "old"
    assert os.listdir(tmp_path) == ["report.html"]

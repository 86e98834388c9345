"""Command-line pipeline: taxonomy, synth, analyze, render, compare.

Every stage is file-mediated (taxonomy config in, logs and surveys in,
canonical export out, reports out) with no hidden state, so each stage
can be scripted and tested on its own. Exit codes are stable: 0 success,
1 internal failure, 2 bad user input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import __version__, serialize
from .cards import comparison_order, render_between_parsed, render_within_parsed
from .errors import EvalCardsError
from .export import DEFAULT_IDLE_CAP_MS, export_metrics, load_export
from .serialize import sha256_hex, write_canonical_json
from .survey import component_attitudes, load_ratings_csv, load_sus_csv, sus_scores_by_user
from .taxonomy import ComponentModel, config_skeleton, load_config, resolution_warnings, resolve_model

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class CliError(EvalCardsError):
    pass


def _use_color(stream) -> bool:
    if os.environ.get("EVALCARDS_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _error(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color(sys.stderr) else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _warn(message: str) -> None:
    prefix = "\x1b[33mwarning:\x1b[0m" if _use_color(sys.stderr) else "warning:"
    print(f"{prefix} {message}", file=sys.stderr)


def parse_duration_ms(text: str) -> int | None:
    """Parse an idle-cap duration: '10m', '90s', '1500ms', or 'off'."""
    word = text.strip().lower()
    if word in ("off", "none", "0"):
        return None
    for suffix, factor in (("ms", 1), ("s", 1000), ("m", 60_000), ("h", 3_600_000)):
        if word.endswith(suffix):
            digits = word[: -len(suffix)]
            if digits.isdigit():
                value = int(digits) * factor
                if value > 0:
                    return value
            break
    raise CliError(
        f"bad duration {text!r}: use <integer> followed by ms/s/m/h, or 'off'"
    )


def _duration_arg(text: str) -> int | None:
    try:
        return parse_duration_ms(text)
    except CliError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _check_overwrite(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise CliError(f"{path} already exists (pass --force to overwrite)")


_Text = str | Callable[[Callable[[str], None]], object]


def _write_temp(path: Path, text: _Text) -> tuple[Path, str]:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``; return
    that file and the sha256 of the bytes.

    ``text`` is the whole text, or a function that hands it, in chunks, to
    the sink it is given. Each chunk is encoded, hashed and written in
    turn. If writing fails, even partway, the temporary file is removed.
    """
    digest = hashlib.sha256()
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as file:

            def sink(chunk: str) -> None:
                data = chunk.encode("utf-8")
                digest.update(data)
                file.write(data)

            if isinstance(text, str):
                sink(text)
            else:
                text(sink)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return temp, digest.hexdigest()


def _write_atomic(path: Path, text: _Text) -> str:
    """Write ``text`` to ``path`` as UTF-8 and return the sha256 of the bytes.

    The text goes to a temporary file in the same directory (see
    :func:`_write_temp`), which then replaces ``path``, so ``path`` holds
    either its old bytes or all of the new ones, never a part.
    """
    temp, digest = _write_temp(path, text)
    try:
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return digest


def _in_batches(pieces: Iterable[str]) -> Callable[[Callable[[str], None]], None]:
    """A text, as :func:`_write_temp` takes it, that hands its sink ``pieces``
    joined ``serialize._FLUSH_PIECES`` at a time, so that no more than one
    batch of a large document is held as one string."""

    def write(sink: Callable[[str], None]) -> None:
        rest = iter(pieces)
        while batch := list(islice(rest, serialize._FLUSH_PIECES)):
            sink("".join(batch))

    return write


@contextmanager
def _staged() -> Iterator[list[tuple[Path, Path]]]:
    """Collect ``(temporary file, target)`` pairs and replace every target
    with its temporary file once the block ends. If anything in the block
    fails, no target is replaced and every temporary file is removed."""
    staged: list[tuple[Path, Path]] = []
    try:
        yield staged
        for temp, target in staged:
            os.replace(temp, target)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)  # a no-op for each file that replaced its target


def _stage_report(
    staged: list[tuple[Path, Path]], path: Path, pieces: Iterable[str], inputs: dict[str, str], force: bool
) -> None:
    """Write a report, given as its pieces, plus its sidecar manifest (the
    only place a wall-clock timestamp is allowed; the report itself stays
    byte-deterministic) to temporary files, and add both to ``staged``.

    ``inputs`` maps each export, named as given on the command line, to the
    sha256 of its bytes.
    """
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    _check_overwrite(path, force)
    _check_overwrite(manifest_path, force)
    temp, digest = _write_temp(path, _in_batches(pieces))
    staged.append((temp, path))
    manifest = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": inputs,
        "output": {path.name: digest},
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    staged.append((_write_temp(manifest_path, text)[0], manifest_path))


def _load_model(path: str) -> ComponentModel:
    """Read and resolve the taxonomy at ``path``, and warn about what it
    resolves to. Every error names ``path`` once."""
    system_name, actions = load_config(path)
    try:
        model = resolve_model(system_name, actions)
    except EvalCardsError as exc:
        raise CliError(f"{path}: {exc}") from exc
    for warning in resolution_warnings(actions):
        _warn(warning)
    return model


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_taxonomy(args) -> int:
    path = Path(args.path)
    if args.action == "init":
        _check_overwrite(path, args.force)
        _write_atomic(path, config_skeleton(args.name))
        print(f"wrote skeleton to {path}; assign an action to every level-2 entry")
        return EXIT_OK

    model = _load_model(args.path)
    print(f"{model.system_name}: {len(model)} terminal components")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # numpy comes in with these; render, compare and taxonomy never load it
    from .metrics import compute_metric_set, descriptive
    from .telemetry import load_bundle

    model = _load_model(args.taxonomy)
    bundle = load_bundle(
        args.logs,
        model,
        sort_timestamps=args.sort_timestamps,
        allow_unknown_components=args.allow_unknown_components,
    )

    ratings, sus_responses = [], []
    if args.surveys:
        surveys = Path(args.surveys)
        ratings_path = surveys / "ratings.csv"
        sus_path = surveys / "sus.csv"
        if ratings_path.exists():
            ratings = load_ratings_csv(ratings_path, model=model)
        else:
            _warn(f"{ratings_path} not found; attitudinal sections will carry no_data")
        if sus_path.exists():
            sus_responses = load_sus_csv(sus_path)
        else:
            _warn(f"{sus_path} not found; SUS will be missing for all users")
    sus_scores = sus_scores_by_user(sus_responses)

    metric_set = compute_metric_set(
        bundle, idle_cap_ms=args.idle_cap, collapse_repeats=args.collapse_repeats
    )
    attitudes = component_attitudes(ratings, model)
    stats = descriptive(bundle, sus_scores)
    export = export_metrics(metric_set, attitudes, stats)

    out = Path(args.out)
    _check_overwrite(out, args.force)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out, lambda sink: write_canonical_json(export, sink))
    print(
        f"{model.system_name}: sessions={len(bundle)} users={len(bundle.user_ids)} "
        f"components={len(model)} -> {out}"
    )
    return EXIT_OK


def _load_export(arg: str) -> tuple[dict, bytes]:
    """Read and load one export file; return it with the file's bytes.

    The sections' digest is the sha256 of these bytes, which for an export
    that ``analyze`` wrote are its canonical text.
    """
    data = Path(arg).read_bytes()
    try:
        return load_export(data), data
    except EvalCardsError as exc:
        raise CliError(f"{arg}: {exc}") from exc


def _safe_filename(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c in "._-" else "_" for c in name).strip("._")
    return cleaned or "system"


def cmd_render(args) -> int:
    """Render every export, one parsed export at a time, into temporary
    files; replace the reports and their manifests only once the last one
    has rendered, so that a bad export leaves ``--out`` as it was."""
    out_dir = Path(args.out)
    made_dir = not out_dir.exists()
    seen: dict[str, str] = {}
    written: list[str] = []
    try:
        with _staged() as staged:
            for arg in args.exports:
                export, data = _load_export(arg)
                digest = sha256_hex(data)
                del data
                name = export["system_name"]
                if name in seen:
                    raise CliError(f"{arg}: system {name!r} already rendered from {seen[name]}")
                seen[name] = arg
                report = render_within_parsed(export, digest, log_scale=args.log_scale)
                out_dir.mkdir(parents=True, exist_ok=True)  # only once an export has loaded
                target = out_dir / f"{_safe_filename(name)}.cards.html"
                _stage_report(staged, target, report, {arg: digest}, args.force)
                written.append(f"{name}: wrote {target}")
                del export, report
    except BaseException:
        if made_dir and out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
    for line in written:
        print(line)
    return EXIT_OK


def cmd_compare(args) -> int:
    loaded = [_load_export(arg) for arg in args.exports]
    order = comparison_order([export for export, _ in loaded])
    joined = hashlib.sha256()
    for i in order:
        joined.update(loaded[i][1])
    inputs = {arg: sha256_hex(data) for arg, (_, data) in zip(args.exports, loaded)}
    exports = [loaded[i][0] for i in order]
    del loaded
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with _staged() as staged:
        _stage_report(staged, out, render_between_parsed(exports, joined.hexdigest()), inputs, args.force)
    print(f"compared {', '.join(e['system_name'] for e in exports)} -> {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import generate_bundle, load_profile, write_fixture_tree

    model = _load_model(args.taxonomy)
    profile = load_profile(args.profile, seed_override=args.seed, model=model)

    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise CliError(f"{out_dir} is not empty (pass --force to overwrite)")
    result = generate_bundle(model, profile)
    write_fixture_tree(result, out_dir)
    print(
        f"{model.system_name}: wrote {len(result.bundle)} sessions "
        f"({profile.n_users} users x {len(profile.tasks)} tasks, "
        f"archetype={profile.archetype.value}, seed={profile.seed}) under {out_dir}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evalcards",
        description=(
            "Modular, multi-faceted usage evaluation for exploratory "
            "model-building systems."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tax = sub.add_parser("taxonomy", help="create or validate a component definition")
    p_tax.add_argument("action", choices=["init", "validate"])
    p_tax.add_argument("path", help="taxonomy configuration file")
    p_tax.add_argument("--name", default="my-system", help="system name for init")
    p_tax.add_argument("--force", action="store_true", help="overwrite existing output")
    p_tax.set_defaults(func=cmd_taxonomy)

    p_an = sub.add_parser("analyze", help="ingest logs and surveys, write the metrics export")
    p_an.add_argument("--taxonomy", required=True, help="taxonomy configuration file")
    p_an.add_argument("--logs", required=True, help="directory of <user>_<task>.jsonl logs")
    p_an.add_argument("--surveys", help="directory containing ratings.csv and sus.csv")
    p_an.add_argument("--out", required=True, help="path of the export JSON to write")
    p_an.add_argument(
        "--idle-cap",
        type=_duration_arg,
        default=DEFAULT_IDLE_CAP_MS,
        metavar="DUR",
        help="truncate inter-record gaps longer than DUR (e.g. 10m, 90s; 'off' disables; default 10m)",
    )
    p_an.add_argument(
        "--collapse-repeats",
        action="store_true",
        help=(
            "collapse runs of repeated component visits before counting transitions "
            "(zeroes the matrix diagonals; linearity still counts the uncollapsed visits)"
        ),
    )
    p_an.add_argument(
        "--sort-timestamps", action="store_true", help="stably sort out-of-order records"
    )
    p_an.add_argument(
        "--allow-unknown-components",
        action="store_true",
        help="quarantine records naming unknown components instead of failing",
    )
    p_an.add_argument("--force", action="store_true", help="overwrite existing output")
    p_an.set_defaults(func=cmd_analyze)

    p_re = sub.add_parser("render", help="render within-system cards from exports")
    p_re.add_argument("exports", nargs="+", help="export JSON files")
    p_re.add_argument("--out", required=True, help="output directory for the reports")
    p_re.add_argument("--log-scale", action="store_true", help="log color scale for heatmaps")
    p_re.add_argument("--force", action="store_true", help="overwrite existing output")
    p_re.set_defaults(func=cmd_render)

    p_cmp = sub.add_parser("compare", help="render the between-system comparison")
    p_cmp.add_argument("exports", nargs="+", help="export JSON files (two or more)")
    p_cmp.add_argument("--out", required=True, help="path of the comparison HTML to write")
    p_cmp.add_argument("--force", action="store_true", help="overwrite existing output")
    p_cmp.set_defaults(func=cmd_compare)

    p_sy = sub.add_parser("synth", help="generate a synthetic fixture tree")
    p_sy.add_argument("--taxonomy", required=True, help="taxonomy configuration file")
    p_sy.add_argument("--profile", required=True, help="synthesis profile file")
    p_sy.add_argument("--out", required=True, help="output directory for logs/ and surveys/")
    p_sy.add_argument("--seed", type=int, help="override the profile's seed")
    p_sy.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    p_sy.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep that contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EvalCardsError as exc:
        _error(str(exc))
        return EXIT_USAGE
    except (FileNotFoundError, NotADirectoryError, PermissionError, IsADirectoryError) as exc:
        _error(str(exc))
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        _error(f"internal error: {exc!r}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

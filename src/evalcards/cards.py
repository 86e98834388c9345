"""Evaluation cards: static report documents rendered from the export.

A card set has four categories (descriptive results, attitudinal,
user effort, exploration pattern), each with a within-system and a
between-system section, eight sections in total. The within-system report
is rendered per export; between-system sections become available in the
comparison document produced from two or more exports.

Reports are a pure function of the machine-readable export (built, loaded
and validated by :mod:`evalcards.export`): every number a chart or table
shows is taken from the export document, exactly as its canonical bytes
write it, so re-rendering from a saved export reproduces the report byte
for byte. Generation time never enters the document body; it belongs in a
sidecar manifest.
"""
from __future__ import annotations

from html import escape
from typing import Iterable, Iterator, Mapping, Sequence

from .charts import (
    ChartRow,
    bars_svg,
    box_strip_svg,
    component_color,
    heatmap_svg,
    html_table,
    stacked_columns_svg,
)
from .errors import EvalCardsError
from .export import EXPORT_SCHEMA_VERSION, load_export

# ``bench/layers.py`` still reaches these two through ``cards``; the import
# can go when the benchmark imports them from ``export``.
from .export import export_metrics, validate_export  # noqa: F401
from .serialize import canonical_json, fmt_num, sha256_hex
from .survey import BoxStats
from .taxonomy import ComponentModel, align_models

__all__ = [
    "CardsError",
    "FewerThanTwoSystems",
    "render_within_export",
    "render_within_parsed",
    "comparison_order",
    "render_between",
    "render_between_parsed",
]

CATEGORY_TITLES = {
    "descriptive": "Descriptive results",
    "attitudinal": "Attitudinal",
    "effort": "Behavioral: user effort",
    "exploration": "Behavioral: exploration pattern",
}
CATEGORIES = tuple(CATEGORY_TITLES)


class CardsError(EvalCardsError):
    pass


class FewerThanTwoSystems(CardsError):
    pass


# --------------------------------------------------------------------------
# Shared HTML scaffolding
# --------------------------------------------------------------------------

_CSS = """
body{font-family:system-ui,-apple-system,'Segoe UI',sans-serif;margin:24px auto;
     max-width:1150px;padding:0 16px;color:#1a1a1a;background:#fff}
header h1{font-size:22px;margin-bottom:2px}
header p.meta{color:#666;font-size:12px;margin-top:0}
section.card{border:1px solid #d8d8d8;border-radius:8px;padding:12px 18px 16px;margin:16px 0}
section.card h2{font-size:15px;margin:2px 0 10px;border-bottom:1px solid #eee;padding-bottom:6px}
section.card.unavailable{background:#fafafa;color:#888;border-style:dashed}
table.stats{border-collapse:collapse;font-size:12px;margin:8px 12px 8px 0;display:inline-table;
            vertical-align:top}
table.stats caption{font-size:11px;color:#555;text-align:left;padding-bottom:3px}
table.stats th,table.stats td{border:1px solid #e2e2e2;padding:3px 8px;text-align:right}
table.stats th:first-child,table.stats td:first-child{text-align:left}
table.stats thead th{background:#f5f5f5}
figure{display:inline-block;vertical-align:top;margin:6px 18px 6px 0}
figure figcaption{font-size:11px;color:#555;margin-bottom:3px}
.legend{font-size:11px;color:#444;margin:6px 0}
.legend .swatch{display:inline-block;width:10px;height:10px;border-radius:2px;
                margin:0 4px 0 10px;vertical-align:baseline}
.note{font-size:11px;color:#777;margin:6px 0}
.l2-panel{border-top:1px dashed #ccc;padding:8px 0;margin-top:8px}
.l2-panel h3{font-size:13px;margin:4px 0}
"""


def _document(title: str, meta: str, sections: Iterable[Iterable[str]]) -> Iterator[str]:
    """The document's pieces, in order: the head, then each section's
    pieces, one section at a time."""
    yield "\n".join(
        [
            "<!doctype html>",
            '<html lang="en"><head><meta charset="utf-8"/>',
            f"<title>{escape(title)}</title>",
            f"<style>{_CSS}</style>",
            "</head><body>",
            f"<header><h1>{escape(title)}</h1><p class=\"meta\">{escape(meta)}</p></header>",
        ]
    )
    for section in sections:
        yield "\n"
        yield from section
    yield "\n</body></html>"


def _section(
    category: str,
    scope: str,
    body: Iterable[str],
    *,
    unavailable: bool = False,
    digest: str = "",
    options: str = "",
) -> Iterator[str]:
    classes = "card unavailable" if unavailable else "card"
    title = f"{CATEGORY_TITLES[category]} \u2014 {scope}-system"
    metadata = ""
    if digest:
        metadata += f' data-inputs-digest="sha256:{digest}"'
    if options:
        metadata += f' data-options="{escape(options)}"'
    yield (
        f'<section class="{classes}" id="{category}-{scope}" '
        f'data-category="{category}" data-scope="{scope}"{metadata}>'
        f"<h2>{escape(title)}</h2>"
    )
    yield from body
    yield "</section>"


def _figure(body: Iterable[str], caption: str = "", attrs: str = "") -> Iterator[str]:
    cap = f"<figcaption>{escape(caption)}</figcaption>" if caption else ""
    open_tag = f"<figure {attrs}>" if attrs else "<figure>"
    yield f"{open_tag}{cap}"
    yield from body
    yield "</figure>"


def _box_from(doc: Mapping | None) -> BoxStats | None:
    return BoxStats.from_dict(doc) if doc else None


def _options_note(options: Mapping) -> str:
    cap = options.get("idle_cap_ms")
    cap_text = f"{cap} ms" if cap is not None else "off"
    collapse = "on" if options.get("collapse_repeats") else "off"
    return f"idle cap: {cap_text} · collapse repeated visits: {collapse}"


# --------------------------------------------------------------------------
# Within-system sections
# --------------------------------------------------------------------------


def _labels(export: Mapping) -> dict[str, str]:
    return {c["comp_id"]: c["label"] for c in export["model"]["components"]}


def _sec_descriptive_within(export: Mapping) -> Iterator[str]:
    descriptive = export["descriptive"]
    rows = descriptive["sessions"]
    sus = descriptive["sus"]
    n_users = len({r["user_id"] for r in rows})
    overview = html_table(
        ["system", "sessions", "users", "components", "tasks"],
        [
            [
                export["system_name"],
                len(rows),
                n_users,
                len(export["model"]["components"]),
                ", ".join(sorted({r["task_id"] for r in rows})),
            ]
        ],
        caption="Overview",
    )
    summary_rows = []
    for key, label in (
        ("completion_ms", "task completion (ms)"),
        ("steps", "interaction steps"),
        ("sus", "SUS score"),
    ):
        box = descriptive["summary"][key]
        if box is None:
            summary_rows.append([label, 0, "-", "-", "-", "-", "-"])
        else:
            summary_rows.append(
                [
                    label,
                    box["n"],
                    box["min"],
                    box["lower_hinge"],
                    box["median"],
                    box["upper_hinge"],
                    box["max"],
                ]
            )
    yield overview
    yield html_table(
        ["metric", "n", "min", "lower hinge", "median", "upper hinge", "max"],
        summary_rows,
        caption="Distributions",
    )
    completion_points = tuple(float(r["completion_ms"]) for r in rows)
    steps_points = tuple(float(r["steps"]) for r in rows)
    yield from _figure(
        box_strip_svg(
            [
                ChartRow(
                    "completion (ms)",
                    _box_from(descriptive["summary"]["completion_ms"]),
                    completion_points,
                )
            ],
            x_label="milliseconds",
        ),
        caption=f"Task-completion time · n = {len(rows)}",
    )
    yield from _figure(
        box_strip_svg(
            [ChartRow("steps", _box_from(descriptive["summary"]["steps"]), steps_points)],
            x_label="interaction steps",
        ),
        caption=f"Interaction steps · n = {len(rows)}",
    )
    sus_points = tuple(sus[u] for u in sorted(sus))
    sus_row = ChartRow("SUS", _box_from(descriptive["summary"]["sus"]), sus_points)
    yield from _figure(
        box_strip_svg([sus_row], domain=(0.0, 100.0), x_label="SUS score"),
        caption=f"Per-user usability · n = {len(sus_points)}",
    )
    missing = descriptive["missing_sus"]
    if missing:
        yield f'<p class="note">users without a SUS response: {escape(", ".join(missing))}</p>'


def _attitude_rows(export: Mapping, which: str) -> list[ChartRow]:
    labels = _labels(export)
    rows = []
    for comp in export["model"]["components"]:
        att = export["attitudes"][comp["comp_id"]]
        box = _box_from(att[which])
        rows.append(ChartRow(labels[comp["comp_id"]], box, note="" if box else "no data"))
    return rows


def _sec_attitudinal_within(export: Mapping) -> Iterator[str]:
    eff = box_strip_svg(
        _attitude_rows(export, "efficiency"), domain=(1.0, 5.0), x_label="1 = very hard, 5 = very easy"
    )
    eft = box_strip_svg(
        _attitude_rows(export, "effectiveness"), domain=(1.0, 5.0), x_label="1 = very hard, 5 = very easy"
    )
    yield from _figure(eff, caption="Perceived efficiency")
    yield from _figure(eft, caption="Perceived effectiveness")
    no_data = [
        comp_id for comp_id, att in sorted(export["attitudes"].items()) if att["no_data"]
    ]
    if no_data:
        yield f'<p class="note">components with no ratings: {escape(", ".join(no_data))}</p>'


def _sec_effort_within(export: Mapping) -> Iterator[str]:
    labels = _labels(export)
    order = [c["comp_id"] for c in export["model"]["components"]]
    effort = export["effort"]

    strip_rows = []
    for comp in order:
        points = tuple(float(row["share"][comp]) for row in effort["per_session"])
        strip_rows.append(ChartRow(labels[comp], _box_from(effort["share_box"][comp]), points))
    yield from _figure(
        box_strip_svg(strip_rows, domain=(0.0, 1.0), x_label="share of attributed session time"),
        caption=f"Relative time per component · n = {len(effort['per_session'])} sessions",
    )

    # each column's segments are read once, lazily: a list of (comp, share)
    # pairs per session would all be held while the chart is written
    columns = [
        (f"{row['user_id']}/{row['task_id']}", zip(order, map(float, map(row["share"].__getitem__, order))))
        for row in effort["per_session"]
    ]
    yield from _figure(
        stacked_columns_svg(columns, order), caption="Each session's allocation of time"
    )
    legend = "".join(
        f'<span class="swatch" style="background:{component_color(i)}"></span>{escape(labels[comp])}'
        for i, comp in enumerate(order)
    )
    yield f'<div class="legend">{legend}</div>'
    yield html_table(
        ["component", "total (ms)", "visits", "share of total"],
        [
            [labels[comp], effort["totals_ms"][comp], effort["visit_counts"][comp], effort["share_totals"][comp]]
            for comp in order
        ],
        caption="Totals across all sessions (zero-use components included)",
    )
    yield f'<p class="note">{escape(_options_note(export["options"]))}</p>'


def _sec_exploration_within(export: Mapping, *, log_scale: bool) -> Iterator[str]:
    l3 = export["transitions"]["l3"]
    yield from _figure(
        [heatmap_svg(l3["order"], l3["counts"], log_scale=log_scale)],
        caption="Component-level from-to transitions",
    )
    linearity = export["linearity"]
    rows = [
        [row["user_id"], row["task_id"], row["value"], row["forward"], row["backward"], row["self"]]
        for row in linearity["per_session"]
    ]
    pooled = linearity["pooled"]
    rows.append(["all sessions", "", pooled["value"], pooled["forward"], pooled["backward"], pooled["self"]])
    yield html_table(
        ["user", "task", "linearity", "forward", "backward", "self"],
        rows,
        caption="Usage linearity (1 = strictly staged, 0 = fully backward)",
    )
    yield f'<p class="note">{escape(_options_note(export["options"]))}</p>'


def _between_placeholder(category: str) -> Iterator[str]:
    body = (
        '<p class="note">Not available from a single system’s export. '
        "Run the compare subcommand with two or more exports to fill this section.</p>"
    )
    return _section(category, "between", [body], unavailable=True)


def render_within_export(export: Mapping, *, log_scale: bool = False) -> str:
    """Render the within-system card set from an export document alone.

    The document is loaded from its canonical bytes, as a file would be:
    the digest covers those bytes, and every figure is read back from them.
    """
    data = canonical_json(export).encode()
    digest = sha256_hex(data)
    export = load_export(data)
    del data  # keep the bytes out of the render's peak memory
    return "".join(render_within_parsed(export, digest, log_scale=log_scale))


def render_within_parsed(export: Mapping, digest: str, *, log_scale: bool = False) -> Iterator[str]:
    """Render the within-system card set from an export as
    :func:`~evalcards.export.load_export` returns it; ``digest`` is the
    sha256 of the bytes it was loaded from.

    The report comes as pieces in document order, and each section is
    built only as its pieces are taken, so the whole report is never held
    at once; joined, the pieces are the report. For an export file that
    ``analyze`` wrote, the bytes are the file's, so this gives the same
    report as :func:`render_within_export` without serializing the
    document again.
    """
    options = _options_note(export["options"])
    sections = [
        _sec_descriptive_within(export),
        _sec_attitudinal_within(export),
        _sec_effort_within(export),
        _sec_exploration_within(export, log_scale=log_scale),
    ]
    body = [
        _section(category, "within", section_body, digest=digest, options=options)
        for category, section_body in zip(CATEGORIES, sections)
    ]
    body += [_between_placeholder(category) for category in CATEGORIES]
    n_sessions = len(export["descriptive"]["sessions"])
    meta = (
        f"system: {export['system_name']} · sessions: {n_sessions} · "
        f"components: {len(export['model']['components'])} · "
        f"{_options_note(export['options'])} · schema v{EXPORT_SCHEMA_VERSION}"
    )
    return _document(f"Evaluation cards: {export['system_name']}", meta, body)


# --------------------------------------------------------------------------
# Between-system sections
# --------------------------------------------------------------------------


def _system_color(i: int) -> str:
    return component_color(2 * i)  # skip adjacent light/dark pairs


def _sec_descriptive_between(exports: Sequence[Mapping]) -> Iterator[str]:
    overview_rows = []
    sus_rows, completion_rows, steps_rows = [], [], []
    for export in exports:
        descriptive = export["descriptive"]
        rows = descriptive["sessions"]
        name = export["system_name"]
        overview_rows.append(
            [
                name,
                len(rows),
                len({r["user_id"] for r in rows}),
                len(export["model"]["components"]),
                len(descriptive["missing_sus"]),
            ]
        )
        sus_points = tuple(descriptive["sus"][u] for u in sorted(descriptive["sus"]))
        sus_rows.append(ChartRow(name, _box_from(descriptive["summary"]["sus"]), sus_points))
        completion_rows.append(
            ChartRow(
                name,
                _box_from(descriptive["summary"]["completion_ms"]),
                tuple(float(r["completion_ms"]) for r in rows),
            )
        )
        steps_rows.append(
            ChartRow(
                name,
                _box_from(descriptive["summary"]["steps"]),
                tuple(float(r["steps"]) for r in rows),
            )
        )
    yield html_table(
        ["system", "sessions", "users", "components", "users w/o SUS"],
        overview_rows,
        caption="Populations",
    )
    yield from _figure(
        box_strip_svg(sus_rows, domain=(0.0, 100.0), x_label="SUS score"),
        caption="SUS distributions",
    )
    yield from _figure(box_strip_svg(completion_rows, x_label="completion (ms)"), caption="Task completion")
    yield from _figure(box_strip_svg(steps_rows, x_label="steps"), caption="Interaction steps")


def _l2_panels(exports, alignment, panel_body) -> Iterator[str]:
    """One panel per aligned reference level-2 key; ``panel_body`` gives
    the pieces of a row's panel."""
    for row in alignment.rows:
        yield f'<div class="l2-panel" data-l2="{escape(row.l2_id)}"><h3>{escape(row.l2_id)}</h3>'
        yield from panel_body(row)
        absent = [e["system_name"] for e in exports if e["system_name"] not in row.systems]
        if absent:
            yield f'<p class="note">not present in: {escape(", ".join(absent))}</p>'
        yield "</div>"


def _sec_attitudinal_between(exports: Sequence[Mapping], alignment) -> Iterator[str]:
    def panel(row):
        for export in exports:
            name = export["system_name"]
            if name not in row.systems:
                continue
            labels = _labels(export)
            chart_rows = []
            for comp_id in row.systems[name]:
                att = export["attitudes"][comp_id]
                for which in ("efficiency", "effectiveness"):
                    box = _box_from(att[which])
                    chart_rows.append(
                        ChartRow(
                            f"{labels[comp_id]} · {which}", box, note="" if box else "no data"
                        )
                    )
            yield from _figure(
                box_strip_svg(chart_rows, domain=(1.0, 5.0)),
                caption=name,
                attrs=f'class="system-panel" data-system="{escape(name)}"',
            )

    return _l2_panels(exports, alignment, panel)


def _sec_effort_between(exports: Sequence[Mapping], alignment) -> Iterator[str]:
    by_name = {export["system_name"]: export for export in exports}
    colors = {name: _system_color(i) for i, name in enumerate(sorted(by_name))}

    l2_share = {}
    for name, export in by_name.items():
        totals = export["effort"]["totals_ms"]
        l2_of = {c["comp_id"]: c["l2_id"] for c in export["model"]["components"]}
        grand = sum(totals.values())
        shares: dict[str, float] = {}
        for comp, ms in totals.items():
            shares[l2_of[comp]] = shares.get(l2_of[comp], 0.0) + ms
        l2_share[name] = {
            l2: (ms / grand if grand else 0.0) for l2, ms in shares.items()
        }

    def panel(row):
        bars = [
            (name, round(l2_share[name].get(row.l2_id, 0.0), 4), colors[name])
            for name in sorted(row.systems)
        ]
        return _figure([bars_svg(bars, domain=(0.0, 1.0))])

    yield '<p class="note">share of each system’s total attributed time spent in the level-2 functionality</p>'
    yield from _l2_panels(exports, alignment, panel)
    residue_bits = []
    for name in sorted(by_name):
        residue = alignment.unaligned.get(name, ())
        if residue:
            listing = "; ".join(f"{l2} ({', '.join(comps)})" for l2, comps in residue)
            residue_bits.append(f"{name}: {listing}")
    if residue_bits:
        yield (
            f'<p class="note">created level-2 functionality outside the shared hierarchy '
            f"\u2014 {escape(' | '.join(residue_bits))}</p>"
        )


def _sec_exploration_between(exports: Sequence[Mapping], alignment) -> Iterator[str]:
    axis = [row.l2_id for row in alignment.rows]
    for export in exports:
        name = export["system_name"]
        matrix = export["transitions"]["l2"]
        pos = {l2: i for i, l2 in enumerate(matrix["order"])}
        projected = [
            [
                matrix["counts"][pos[a]][pos[b]] if a in pos and b in pos else 0
                for b in axis
            ]
            for a in axis
        ]
        absent = {l2 for l2 in axis if l2 not in pos}
        pooled = export["linearity"]["pooled"]
        caption = f"{name} · pooled linearity {fmt_num(pooled['value'])}"
        yield from _figure(
            [heatmap_svg(axis, projected, absent=absent)],
            caption=caption,
            attrs=f'class="system-heatmap" data-system="{escape(name)}"',
        )
    yield (
        '<p class="note">shared axis: reference level-2 functionality, in reference order. '
        "Greyed labels are absent from that system; created level-2 keys are excluded here "
        "(see the effort section for the residue).</p>"
    )


def comparison_order(exports: Sequence[Mapping]) -> list[int]:
    """Positions of validated ``exports`` in system-name order, the order in
    which a comparison shows them and hashes their bytes."""
    if len(exports) < 2:
        raise FewerThanTwoSystems(f"comparison needs at least 2 exports, got {len(exports)}")
    order = sorted(range(len(exports)), key=lambda i: exports[i]["system_name"])
    names = [exports[i]["system_name"] for i in order]
    if len(set(names)) != len(names):
        raise CardsError(f"duplicate system names in comparison: {names}")
    return order


def render_between(exports: Sequence[Mapping]) -> str:
    """Render the comparative card document from two or more exports, each
    loaded from its canonical bytes as in :func:`render_within_export`."""
    data = [canonical_json(export).encode() for export in exports]
    loaded = [load_export(d) for d in data]
    order = comparison_order(loaded)
    digest = sha256_hex(b"".join(data[i] for i in order))
    del data
    return "".join(render_between_parsed([loaded[i] for i in order], digest))


def render_between_parsed(exports: Sequence[Mapping], digest: str) -> Iterator[str]:
    """Render the comparison from loaded exports in :func:`comparison_order`;
    ``digest`` is the sha256 of their bytes joined in that order. The
    comparison comes as pieces, as :func:`render_within_parsed` gives a
    report."""
    names = [e["system_name"] for e in exports]
    models = [ComponentModel.from_dict(export["model"]) for export in exports]
    alignment = align_models(models)

    body = [
        _section("descriptive", "between", _sec_descriptive_between(exports), digest=digest),
        _section("attitudinal", "between", _sec_attitudinal_between(exports, alignment), digest=digest),
        _section("effort", "between", _sec_effort_between(exports, alignment), digest=digest),
        _section("exploration", "between", _sec_exploration_between(exports, alignment), digest=digest),
    ]
    meta = (
        f"systems: {', '.join(names)} · aligned level-2 rows: {len(alignment.rows)} "
        f"· schema v{EXPORT_SCHEMA_VERSION}"
    )
    return _document("Evaluation cards: between-system comparison", meta, body)

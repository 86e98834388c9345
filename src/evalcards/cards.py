"""Evaluation cards: static report documents and the metrics export.

A card set has four categories (descriptive results, attitudinal,
user effort, exploration pattern), each with a within-system and a
between-system section, eight sections in total. The within-system report
is rendered per export; between-system sections become available in the
comparison document produced from two or more exports.

Reports are a pure function of the machine-readable export: every number a
chart or table shows is taken from the export document (quantized exactly
as the canonical serializer writes it), so re-rendering from a saved
export reproduces the report byte for byte. Generation time never enters
the document body; it belongs in a sidecar manifest.
"""
from __future__ import annotations

import json
from html import escape
from typing import TYPE_CHECKING, Mapping, Sequence

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
from .serialize import canonical_json, fmt_num, sha256_hex
from .survey import BoxStats, ComponentAttitude, likert_box
from .taxonomy import ComponentModel, align_models

if TYPE_CHECKING:  # annotations only: rendering an export never loads numpy
    from .metrics import DescriptiveStats, MetricSet

__all__ = [
    "EXPORT_KIND",
    "EXPORT_SCHEMA_VERSION",
    "CardsError",
    "ModelMismatch",
    "FewerThanTwoSystems",
    "ExportSchemaError",
    "export_metrics",
    "validate_export",
    "render_within",
    "render_within_export",
    "render_within_parsed",
    "comparison_order",
    "render_between",
    "render_between_parsed",
]

EXPORT_KIND = "evalcards-export"
EXPORT_SCHEMA_VERSION = 1

# The export's default ``options.idle_cap_ms``. It lives here rather than in
# ``metrics`` so that the CLI can offer it without importing numpy.
DEFAULT_IDLE_CAP_MS = 10 * 60 * 1000

CATEGORY_TITLES = {
    "descriptive": "Descriptive results",
    "attitudinal": "Attitudinal",
    "effort": "Behavioral: user effort",
    "exploration": "Behavioral: exploration pattern",
}
CATEGORIES = tuple(CATEGORY_TITLES)


class CardsError(EvalCardsError):
    pass


class ModelMismatch(CardsError):
    pass


class FewerThanTwoSystems(CardsError):
    pass


class ExportSchemaError(CardsError):
    pass


# --------------------------------------------------------------------------
# Export document
# --------------------------------------------------------------------------


def _box_or_none(values: Sequence[float]) -> dict | None:
    return likert_box(values).to_dict() if values else None


def export_metrics(
    metric_set: MetricSet,
    attitudes: Mapping[str, ComponentAttitude],
    descriptive: DescriptiveStats,
) -> dict:
    """Assemble the canonical export: every chartable number in one document."""
    model = metric_set.model
    effort = metric_set.effort

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


def _require(doc: Mapping, key: str, kind: type, where: str):
    if key not in doc:
        raise ExportSchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ExportSchemaError(f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def validate_export(doc: Mapping) -> None:
    """Structural check of an export document; raises :class:`ExportSchemaError`."""
    if not isinstance(doc, Mapping):
        raise ExportSchemaError("export must be a JSON object")
    if doc.get("kind") != EXPORT_KIND:
        raise ExportSchemaError(f"not an evalcards export (kind={doc.get('kind')!r})")
    if doc.get("schema_version") != EXPORT_SCHEMA_VERSION:
        raise ExportSchemaError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"this build reads version {EXPORT_SCHEMA_VERSION}"
        )
    _require(doc, "system_name", str, "export")
    _require(doc, "options", Mapping, "export")
    model_doc = _require(doc, "model", Mapping, "export")
    try:
        model = ComponentModel.from_dict(model_doc)
    except EvalCardsError as exc:
        raise ExportSchemaError(f"export.model: {exc}") from exc
    comp_ids = set(model.comp_ids)

    descriptive = _require(doc, "descriptive", Mapping, "export")
    _require(descriptive, "sessions", list, "export.descriptive")
    _require(descriptive, "sus", Mapping, "export.descriptive")
    _require(descriptive, "missing_sus", list, "export.descriptive")
    for i, row in enumerate(descriptive["sessions"]):
        for key in ("user_id", "task_id", "completion_ms", "steps"):
            if key not in row:
                raise ExportSchemaError(f"export.descriptive.sessions[{i}]: missing {key!r}")

    attitudes = _require(doc, "attitudes", Mapping, "export")
    if set(attitudes) != comp_ids:
        raise ExportSchemaError(
            "export.attitudes keys do not match the model's terminal components"
        )
    effort = _require(doc, "effort", Mapping, "export")
    for key in ("totals_ms", "visit_counts", "share_totals", "share_box"):
        table = _require(effort, key, Mapping, "export.effort")
        if set(table) != comp_ids:
            raise ExportSchemaError(f"export.effort.{key} keys do not match the model")
    _require(effort, "per_session", list, "export.effort")

    transitions = _require(doc, "transitions", Mapping, "export")
    for level, expected in (("l3", list(model.comp_ids)), ("l2", list(model.l2_order))):
        matrix = _require(transitions, level, Mapping, "export.transitions")
        order = _require(matrix, "order", list, f"export.transitions.{level}")
        counts = _require(matrix, "counts", list, f"export.transitions.{level}")
        if order != expected:
            raise ExportSchemaError(f"export.transitions.{level}.order does not match the model")
        n = len(order)
        if len(counts) != n or any(len(row) != n for row in counts):
            raise ExportSchemaError(f"export.transitions.{level}.counts is not {n}x{n}")
        if any(c < 0 for row in counts for c in row):
            raise ExportSchemaError(f"export.transitions.{level}.counts has negative cells")

    linearity = _require(doc, "linearity", Mapping, "export")
    _require(linearity, "per_session", list, "export.linearity")
    pooled = _require(linearity, "pooled", Mapping, "export.linearity")
    for key in ("value", "forward", "backward", "self"):
        if key not in pooled:
            raise ExportSchemaError(f"export.linearity.pooled: missing {key!r}")


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


def _document(title: str, meta: str, sections: Sequence[str]) -> str:
    parts = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{escape(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<header><h1>{escape(title)}</h1><p class=\"meta\">{escape(meta)}</p></header>",
        *sections,
        "</body></html>",
    ]
    return "\n".join(parts)


def _section(
    category: str,
    scope: str,
    body: str,
    *,
    unavailable: bool = False,
    digest: str = "",
    options: str = "",
) -> str:
    classes = "card unavailable" if unavailable else "card"
    title = f"{CATEGORY_TITLES[category]} \u2014 {scope}-system"
    metadata = ""
    if digest:
        metadata += f' data-inputs-digest="sha256:{digest}"'
    if options:
        metadata += f' data-options="{escape(options)}"'
    return (
        f'<section class="{classes}" id="{category}-{scope}" '
        f'data-category="{category}" data-scope="{scope}"{metadata}>'
        f"<h2>{escape(title)}</h2>{body}</section>"
    )


def _figure(body: str, caption: str = "", attrs: str = "") -> str:
    cap = f"<figcaption>{escape(caption)}</figcaption>" if caption else ""
    open_tag = f"<figure {attrs}>" if attrs else "<figure>"
    return f"{open_tag}{cap}{body}</figure>"


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


def _sec_descriptive_within(export: Mapping) -> str:
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
    summary = html_table(
        ["metric", "n", "min", "lower hinge", "median", "upper hinge", "max"],
        summary_rows,
        caption="Distributions",
    )
    charts = []
    completion_points = tuple(float(r["completion_ms"]) for r in rows)
    steps_points = tuple(float(r["steps"]) for r in rows)
    charts.append(
        _figure(
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
    )
    charts.append(
        _figure(
            box_strip_svg(
                [ChartRow("steps", _box_from(descriptive["summary"]["steps"]), steps_points)],
                x_label="interaction steps",
            ),
            caption=f"Interaction steps · n = {len(rows)}",
        )
    )
    sus_points = tuple(sus[u] for u in sorted(sus))
    sus_row = ChartRow("SUS", _box_from(descriptive["summary"]["sus"]), sus_points)
    charts.append(
        _figure(
            box_strip_svg([sus_row], domain=(0.0, 100.0), x_label="SUS score"),
            caption=f"Per-user usability · n = {len(sus_points)}",
        )
    )
    missing = descriptive["missing_sus"]
    missing_note = (
        f'<p class="note">users without a SUS response: {escape(", ".join(missing))}</p>'
        if missing
        else ""
    )
    return overview + summary + "".join(charts) + missing_note


def _attitude_rows(export: Mapping, which: str) -> list[ChartRow]:
    labels = _labels(export)
    rows = []
    for comp in export["model"]["components"]:
        att = export["attitudes"][comp["comp_id"]]
        box = _box_from(att[which])
        rows.append(ChartRow(labels[comp["comp_id"]], box, note="" if box else "no data"))
    return rows


def _sec_attitudinal_within(export: Mapping) -> str:
    eff = box_strip_svg(
        _attitude_rows(export, "efficiency"), domain=(1.0, 5.0), x_label="1 = very hard, 5 = very easy"
    )
    eft = box_strip_svg(
        _attitude_rows(export, "effectiveness"), domain=(1.0, 5.0), x_label="1 = very hard, 5 = very easy"
    )
    no_data = [
        comp_id for comp_id, att in sorted(export["attitudes"].items()) if att["no_data"]
    ]
    note = (
        f'<p class="note">components with no ratings: {escape(", ".join(no_data))}</p>'
        if no_data
        else ""
    )
    return (
        _figure(eff, caption="Perceived efficiency")
        + _figure(eft, caption="Perceived effectiveness")
        + note
    )


def _sec_effort_within(export: Mapping) -> str:
    labels = _labels(export)
    order = [c["comp_id"] for c in export["model"]["components"]]
    effort = export["effort"]

    strip_rows = []
    for comp in order:
        points = tuple(float(row["share"][comp]) for row in effort["per_session"])
        strip_rows.append(ChartRow(labels[comp], _box_from(effort["share_box"][comp]), points))
    shares_chart = _figure(
        box_strip_svg(strip_rows, domain=(0.0, 1.0), x_label="share of attributed session time"),
        caption=f"Relative time per component · n = {len(effort['per_session'])} sessions",
    )

    columns = [
        (
            f"{row['user_id']}/{row['task_id']}",
            [(comp, float(row["share"][comp])) for comp in order],
        )
        for row in effort["per_session"]
    ]
    stacked = _figure(
        stacked_columns_svg(columns, order), caption="Each session's allocation of time"
    )
    legend = "".join(
        f'<span class="swatch" style="background:{component_color(i)}"></span>{escape(labels[comp])}'
        for i, comp in enumerate(order)
    )
    totals = html_table(
        ["component", "total (ms)", "visits", "share of total"],
        [
            [labels[comp], effort["totals_ms"][comp], effort["visit_counts"][comp], effort["share_totals"][comp]]
            for comp in order
        ],
        caption="Totals across all sessions (zero-use components included)",
    )
    note = f'<p class="note">{escape(_options_note(export["options"]))}</p>'
    return shares_chart + stacked + f'<div class="legend">{legend}</div>' + totals + note


def _sec_exploration_within(export: Mapping, *, log_scale: bool) -> str:
    l3 = export["transitions"]["l3"]
    heat = _figure(
        heatmap_svg(l3["order"], l3["counts"], log_scale=log_scale),
        caption="Component-level from-to transitions",
    )
    linearity = export["linearity"]
    rows = [
        [row["user_id"], row["task_id"], row["value"], row["forward"], row["backward"], row["self"]]
        for row in linearity["per_session"]
    ]
    pooled = linearity["pooled"]
    rows.append(["all sessions", "", pooled["value"], pooled["forward"], pooled["backward"], pooled["self"]])
    table = html_table(
        ["user", "task", "linearity", "forward", "backward", "self"],
        rows,
        caption="Usage linearity (1 = strictly staged, 0 = fully backward)",
    )
    note = f'<p class="note">{escape(_options_note(export["options"]))}</p>'
    return heat + table + note


def _between_placeholder(category: str) -> str:
    body = (
        '<p class="note">Not available from a single system’s export. '
        "Run the compare subcommand with two or more exports to fill this section.</p>"
    )
    return _section(category, "between", body, unavailable=True)


def render_within(
    model: ComponentModel,
    metric_set: MetricSet,
    attitudes: Mapping[str, ComponentAttitude],
    descriptive: DescriptiveStats,
    *,
    log_scale: bool = False,
) -> str:
    """Render one system's card set (all eight sections) to HTML.

    All inputs must derive from the same model and the same bundle.
    """
    if metric_set.model != model:
        raise ModelMismatch(
            f"metrics were computed for {metric_set.model.system_name!r}, "
            f"not {model.system_name!r}"
        )
    if set(attitudes) != set(model.comp_ids):
        raise ModelMismatch("attitudes do not cover the model's terminal components")
    metric_keys = {(r.user_id, r.task_id) for r in metric_set.effort.per_session}
    descriptive_keys = {(r.user_id, r.task_id) for r in descriptive.rows}
    if metric_keys != descriptive_keys:
        raise ModelMismatch("behavioral metrics and descriptive stats cover different sessions")
    return render_within_export(
        export_metrics(metric_set, attitudes, descriptive), log_scale=log_scale
    )


def render_within_export(export: Mapping, *, log_scale: bool = False) -> str:
    """Render the within-system card set from an export document alone."""
    validate_export(export)
    # Serialize once: the digest covers these bytes, and rendering reads
    # them back, so every figure is the export file's, digit for digit.
    text = canonical_json(dict(export))
    digest = sha256_hex(text)
    export = json.loads(text)
    del text  # keep the text out of the render's peak memory
    return render_within_parsed(export, digest, log_scale=log_scale)


def render_within_parsed(export: Mapping, digest: str, *, log_scale: bool = False) -> str:
    """Render the within-system card set from a validated export as parsed
    from its canonical bytes; ``digest`` is the sha256 of those bytes.

    For an export file that ``analyze`` wrote, the bytes are the file's, so
    this gives the same report as :func:`render_within_export` without
    serializing the document again.
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


def _sec_descriptive_between(exports: Sequence[Mapping]) -> str:
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
    overview = html_table(
        ["system", "sessions", "users", "components", "users w/o SUS"],
        overview_rows,
        caption="Populations",
    )
    charts = (
        _figure(
            box_strip_svg(sus_rows, domain=(0.0, 100.0), x_label="SUS score"),
            caption="SUS distributions",
        )
        + _figure(box_strip_svg(completion_rows, x_label="completion (ms)"), caption="Task completion")
        + _figure(box_strip_svg(steps_rows, x_label="steps"), caption="Interaction steps")
    )
    return overview + charts


def _l2_panels(exports, alignment, panel_body) -> str:
    """One panel per aligned reference level-2 key."""
    panels = []
    for row in alignment.rows:
        body = panel_body(row)
        absent = [e["system_name"] for e in exports if e["system_name"] not in row.systems]
        if absent:
            body += (
                f'<p class="note">not present in: {escape(", ".join(absent))}</p>'
            )
        panels.append(
            f'<div class="l2-panel" data-l2="{escape(row.l2_id)}">'
            f"<h3>{escape(row.l2_id)}</h3>{body}</div>"
        )
    return "".join(panels)


def _sec_attitudinal_between(exports: Sequence[Mapping], alignment) -> str:
    def panel(row):
        figures = []
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
            figures.append(
                _figure(
                    box_strip_svg(chart_rows, domain=(1.0, 5.0)),
                    caption=name,
                    attrs=f'class="system-panel" data-system="{escape(name)}"',
                )
            )
        return "".join(figures)

    return _l2_panels(exports, alignment, panel)


def _sec_effort_between(exports: Sequence[Mapping], alignment) -> str:
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
        return _figure(bars_svg(bars, domain=(0.0, 1.0)))

    panels = _l2_panels(exports, alignment, panel)
    residue_bits = []
    for name in sorted(by_name):
        residue = alignment.unaligned.get(name, ())
        if residue:
            listing = "; ".join(f"{l2} ({', '.join(comps)})" for l2, comps in residue)
            residue_bits.append(f"{name}: {listing}")
    residue_note = (
        f'<p class="note">created level-2 functionality outside the shared hierarchy '
        f"\u2014 {escape(' | '.join(residue_bits))}</p>"
        if residue_bits
        else ""
    )
    intro = '<p class="note">share of each system’s total attributed time spent in the level-2 functionality</p>'
    return intro + panels + residue_note


def _sec_exploration_between(exports: Sequence[Mapping], alignment) -> str:
    axis = [row.l2_id for row in alignment.rows]
    figures = []
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
        figures.append(
            _figure(
                heatmap_svg(axis, projected, absent=absent),
                caption=caption,
                attrs=f'class="system-heatmap" data-system="{escape(name)}"',
            )
        )
    note = (
        '<p class="note">shared axis: reference level-2 functionality, in reference order. '
        "Greyed labels are absent from that system; created level-2 keys are excluded here "
        "(see the effort section for the residue).</p>"
    )
    return "".join(figures) + note


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


def render_between(exports: Sequence[Mapping], *, log_scale: bool = False) -> str:
    """Render the comparative card document from two or more exports."""
    for export in exports:
        validate_export(export)
    # Serialize once per export, as in render_within_export.
    texts = [canonical_json(dict(exports[i])) for i in comparison_order(exports)]
    digest = sha256_hex("".join(texts))
    exports = [json.loads(text) for text in texts]
    del texts
    return render_between_parsed(exports, digest, log_scale=log_scale)


def render_between_parsed(
    exports: Sequence[Mapping], digest: str, *, log_scale: bool = False
) -> str:
    """Render the comparison from validated exports, each parsed from its
    canonical bytes, in :func:`comparison_order`; ``digest`` is the sha256
    of those bytes joined in that order."""
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

"""Inline-SVG chart primitives for the evaluation cards.

Everything here is a pure function from numbers to markup: fixed float
formatting, no randomness, no external assets, so identical inputs yield
byte-identical charts. Numeric labels are rendered with
:func:`~evalcards.serialize.fmt_num` so every visible number parses back to
the exact export value it came from. The two charts that draw one mark per
session, :func:`box_strip_svg` and :func:`stacked_columns_svg`, yield their
markup one piece per mark; joined, the pieces are the chart. Each builds
the constant text of its marks once per chart, row or column, and memoizes
by value: a strip row keeps each point's whole mark, so a repeated value
yields the same string, and the stacked chart keeps each share's
``fmt_num`` text. Equal values (``0.0`` and ``-0.0``, ``1`` and ``1.0``)
render alike, so they share an entry. ``fmt_num`` writes only ``[-0-9.]``,
which ``escape`` would leave as it is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from typing import Iterable, Iterator, Sequence

from .survey import BoxStats
from .serialize import fmt_num

__all__ = ["ChartRow", "box_strip_svg", "heatmap_svg", "stacked_columns_svg", "bars_svg", "html_table", "component_color"]

# tab20 categorical palette; component i uses PALETTE[i % 20]
PALETTE = (
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c", "#98df8a",
    "#d62728", "#ff9896", "#9467bd", "#c5b0d5", "#8c564b", "#c49c94",
    "#e377c2", "#f7b6d2", "#7f7f7f", "#c7c7c7", "#bcbd22", "#dbdb8d",
    "#17becf", "#9edae5",
)

_HEAT_LOW = (222, 235, 247)
_HEAT_HIGH = (8, 48, 107)
EMPTY_CELL = "#f2f2f2"  # zero cells get a distinct tone, outside the ramp

GUTTER = 190
ROW_H = 26
PLOT_W = 430


def component_color(index: int) -> str:
    return PALETTE[index % len(PALETTE)]


def _x(value: float) -> str:
    return f"{value:.2f}"


def _scale(lo: float, hi: float, left: float, width: float):
    span = hi - lo if hi > lo else 1.0

    def to_px(value: float) -> float:
        return left + (value - lo) / span * width

    return to_px


@dataclass(frozen=True)
class ChartRow:
    """One row of a box/strip chart; ``box=None`` renders as no-data."""

    label: str
    box: BoxStats | None = None
    points: tuple[float, ...] = ()
    note: str = ""


def _box_title(label: str, box: BoxStats) -> str:
    return (
        f"{label}: n={box.n} min={fmt_num(box.minimum)} "
        f"lower={fmt_num(box.lower_hinge)} median={fmt_num(box.median)} "
        f"upper={fmt_num(box.upper_hinge)} max={fmt_num(box.maximum)}"
    )


def box_strip_svg(
    rows: Sequence[ChartRow],
    *,
    domain: tuple[float, float] | None = None,
    x_label: str = "",
    ticks: int = 5,
) -> Iterator[str]:
    """Horizontal box-and-whisker rows with optional raw-point strips,
    yielded mark by mark: a strip holds one point per session."""
    lo, hi = domain if domain else _auto_domain(rows)
    to_px = _scale(lo, hi, GUTTER, PLOT_W)
    height = len(rows) * ROW_H + 34
    width = GUTTER + PLOT_W + 20

    yield (
        f'<svg class="chart box-strip" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
    )
    axis_y = len(rows) * ROW_H + 6
    for t in range(ticks):
        value = lo + (hi - lo) * t / (ticks - 1)
        px = to_px(value)
        yield (
            f'<line x1="{_x(px)}" y1="0" x2="{_x(px)}" y2="{axis_y}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
            f'<text x="{_x(px)}" y="{axis_y + 12}" font-size="10" fill="#666" '
            f'text-anchor="middle">{fmt_num(round(value, 4))}</text>'
        )
    if x_label:
        yield (
            f'<text x="{_x(GUTTER + PLOT_W / 2)}" y="{height - 4}" font-size="10" '
            f'fill="#444" text-anchor="middle">{escape(x_label)}</text>'
        )

    for i, row in enumerate(rows):
        cy = i * ROW_H + ROW_H / 2
        label_fill = "#999" if row.box is None and not row.points else "#222"
        yield (
            f'<text x="{GUTTER - 8}" y="{_x(cy + 3.5)}" font-size="11" fill="{label_fill}" '
            f'text-anchor="end">{escape(row.label)}</text>'
        )
        if row.box is None and not row.points:
            note = row.note or "no data"
            yield (
                f'<text x="{GUTTER + 4}" y="{_x(cy + 3.5)}" font-size="10" '
                f'fill="#999" font-style="italic">{escape(note)}</text>'
            )
            continue
        tail = f'" cy="{_x(cy)}" r="2.4" fill="#4c78a8" fill-opacity="0.35"><title>'
        marks: dict[float, str] = {}
        for value in row.points:
            if (mark := marks.get(value)) is None:
                mark = marks[value] = f'<circle cx="{_x(to_px(value))}{tail}{fmt_num(value)}</title></circle>'
            yield mark
        box = row.box
        if box is not None:
            half = ROW_H / 2 - 5
            x_lo, x_hi = to_px(box.lower_hinge), to_px(box.upper_hinge)
            x_med = to_px(box.median)
            x_wl, x_wh = to_px(box.whisker_low), to_px(box.whisker_high)
            yield "<g>"
            yield f"<title>{escape(_box_title(row.label, box))}</title>"
            yield (
                f'<line x1="{_x(x_wl)}" y1="{_x(cy)}" x2="{_x(x_lo)}" y2="{_x(cy)}" stroke="#333"/>'
                f'<line x1="{_x(x_hi)}" y1="{_x(cy)}" x2="{_x(x_wh)}" y2="{_x(cy)}" stroke="#333"/>'
                f'<line x1="{_x(x_wl)}" y1="{_x(cy - 4)}" x2="{_x(x_wl)}" y2="{_x(cy + 4)}" stroke="#333"/>'
                f'<line x1="{_x(x_wh)}" y1="{_x(cy - 4)}" x2="{_x(x_wh)}" y2="{_x(cy + 4)}" stroke="#333"/>'
                f'<rect x="{_x(x_lo)}" y="{_x(cy - half)}" width="{_x(max(x_hi - x_lo, 0.5))}" '
                f'height="{_x(2 * half)}" fill="#9ecae1" fill-opacity="0.75" stroke="#333"/>'
                f'<line x1="{_x(x_med)}" y1="{_x(cy - half)}" x2="{_x(x_med)}" y2="{_x(cy + half)}" '
                f'stroke="#08306b" stroke-width="2"/>'
            )
            for value in box.outliers:
                yield (
                    f'<circle cx="{_x(to_px(value))}" cy="{_x(cy)}" r="2.8" fill="none" '
                    f'stroke="#d62728"><title>{fmt_num(value)}</title></circle>'
                )
            yield "</g>"
        if row.note and (row.box is not None or row.points):
            yield (
                f'<text x="{GUTTER + PLOT_W + 4}" y="{_x(cy + 3.5)}" font-size="9" '
                f'fill="#777">{escape(row.note)}</text>'
            )
    yield "</svg>"


def _auto_domain(rows: Sequence[ChartRow]) -> tuple[float, float]:
    values = []
    for row in rows:
        values.extend(row.points)
        if row.box is not None:
            values.extend([row.box.minimum, row.box.maximum])
    if not values:
        return (0.0, 1.0)
    hi = max(values)
    lo = min(0.0, min(values))
    if hi <= lo:
        hi = lo + 1.0
    return (lo, hi)


def _heat_color(count: int, max_count: int, log_scale: bool) -> str:
    if count <= 0:
        return EMPTY_CELL
    if log_scale:  # heatmap_svg's max_count is the largest count, so it is > 0 here
        t = math.log1p(count) / math.log1p(max_count)
    else:
        t = count / max_count
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(_HEAT_LOW, _HEAT_HIGH))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def heatmap_svg(
    labels: Sequence[str],
    counts: Sequence[Sequence[int]],
    *,
    log_scale: bool = False,
    absent: frozenset[str] | set[str] = frozenset(),
    cell: int = 30,
) -> str:
    """From-to heatmap: rows are sources, columns destinations.

    The color ramp is monotone in the cell count (optionally in its log);
    zero cells use a distinct empty tone. Labels in ``absent`` are greyed,
    for shared-axis comparisons where a system lacks a unit.
    """
    n = len(labels)
    max_count = max((c for row in counts for c in row), default=0)
    longest = max((len(label) for label in labels), default=0)
    # margins sized so rotated column labels and row labels never clip
    top = 28 + round(longest * 4.3)
    left = 16 + round(longest * 5.3)
    width = left + n * cell + 10
    height = top + n * cell + 14
    parts = [
        f'<svg class="chart heatmap" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
    ]
    for j, label in enumerate(labels):
        x = left + j * cell + cell / 2
        fill = "#bbb" if label in absent else "#222"
        parts.append(
            f'<text x="{_x(x)}" y="{top - 6}" font-size="10" fill="{fill}" text-anchor="start" '
            f'transform="rotate(-55 {_x(x)} {top - 6})">{escape(label)}</text>'
        )
    for i, label in enumerate(labels):
        y = top + i * cell + cell / 2
        fill = "#bbb" if label in absent else "#222"
        parts.append(
            f'<text x="{left - 6}" y="{_x(y + 3.5)}" font-size="10" fill="{fill}" '
            f'text-anchor="end">{escape(label)}</text>'
        )
    for i in range(n):
        for j in range(n):
            count = int(counts[i][j])
            x = left + j * cell
            y = top + i * cell
            color = _heat_color(count, max_count, log_scale)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}" '
                f'stroke="#ffffff" stroke-width="1">'
                f"<title>{escape(labels[i])} → {escape(labels[j])}: {count}</title></rect>"
            )
            if count > 0:
                t = (math.log1p(count) / math.log1p(max_count)) if log_scale else count / max_count
                text_fill = "#ffffff" if t > 0.55 else "#1a1a1a"
                parts.append(
                    f'<text x="{_x(x + cell / 2)}" y="{_x(y + cell / 2 + 3.5)}" font-size="9" '
                    f'fill="{text_fill}" text-anchor="middle">{count}</text>'
                )
    scale_note = "log color scale" if log_scale else "linear color scale"
    parts.append(
        f'<text x="{left}" y="{height - 3}" font-size="9" fill="#777">'
        f"rows: from, columns: to · {scale_note} · max {max_count}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def stacked_columns_svg(
    columns: Sequence[tuple[str, Iterable[tuple[str, float]]]],
    comp_order: Sequence[str],
    *,
    height: int = 200,
    col_w: int | None = None,
) -> Iterator[str]:
    """One stacked column per session: each user's allocation of time
    shares, yielded mark by mark. Each column's segments are iterated once."""
    if col_w is None:
        # keep large bundles on one screen; tooltips carry the detail
        col_w = max(12, min(26, round(1000 / max(len(columns), 1))))
    # the text around a segment's label: the fill, then the component
    fills = {comp: f'" fill="{component_color(i)}"><title>' for i, comp in enumerate(comp_order)}
    names = {comp: f" · {escape(comp)}: " for comp in comp_order}
    nums: dict[float, str] = {}
    left, bottom, top = 30, 58, 8
    width = left + len(columns) * col_w + 10
    total_h = height + top + bottom
    yield (
        f'<svg class="chart stacked" viewBox="0 0 {width} {total_h}" '
        f'width="{width}" height="{total_h}" role="img">'
    )
    for t in (0.0, 0.5, 1.0):
        y = top + height * (1 - t)
        yield (
            f'<line x1="{left}" y1="{_x(y)}" x2="{width - 8}" y2="{_x(y)}" stroke="#eee"/>'
            f'<text x="{left - 4}" y="{_x(y + 3)}" font-size="9" fill="#666" '
            f'text-anchor="end">{fmt_num(t)}</text>'
        )
    label_every = max(1, (len(columns) + 39) // 40)  # avoid overlap on wide bundles
    seg_w = col_w - 6
    for k, (label, segments) in enumerate(columns):
        x = left + k * col_w + 3
        y = top + height
        label = escape(label)
        for comp, share in segments:
            if share <= 0:
                continue
            seg_h = height * share
            y -= seg_h
            if (num := nums.get(share)) is None:
                num = nums[share] = fmt_num(share)
            yield (
                f'<rect x="{x}" y="{y:.2f}" width="{seg_w}" height="{seg_h:.2f}'
                f'{fills[comp]}{label}{names[comp]}{num}</title></rect>'
            )
        if k % label_every == 0:
            cx = x + seg_w / 2
            yield (
                f'<text x="{_x(cx)}" y="{top + height + 10}" font-size="8.5" fill="#444" '
                f'text-anchor="end" transform="rotate(-55 {_x(cx)} {top + height + 10})">'
                f"{label}</text>"
            )
    yield "</svg>"


def bars_svg(rows: Sequence[tuple[str, float, str]], *, domain: tuple[float, float] = (0.0, 1.0)) -> str:
    """Horizontal labeled bars; each row is (label, value, css color)."""
    lo, hi = domain
    to_px = _scale(lo, hi, GUTTER, PLOT_W)
    height = len(rows) * ROW_H + 10
    width = GUTTER + PLOT_W + 70
    parts = [
        f'<svg class="chart bars" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for i, (label, value, color) in enumerate(rows):
        y = i * ROW_H + 4
        bar_w = max(to_px(value) - GUTTER, 0.0)
        parts.append(
            f'<text x="{GUTTER - 8}" y="{y + 13}" font-size="11" fill="#222" '
            f'text-anchor="end">{escape(label)}</text>'
            f'<rect x="{GUTTER}" y="{y}" width="{_x(bar_w)}" height="{ROW_H - 9}" fill="{color}"/>'
            f'<text x="{_x(GUTTER + bar_w + 5)}" y="{y + 13}" font-size="10" '
            f'fill="#333">{fmt_num(value)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def html_table(headers: Sequence[str], rows: Sequence[Sequence[object]], *, caption: str = "") -> str:
    """Plain static table; numeric cells are formatted exactly."""
    parts = ['<table class="stats">']
    if caption:
        parts.append(f"<caption>{escape(caption)}</caption>")
    parts.append("<thead><tr>")
    for header in headers:
        parts.append(f"<th>{escape(str(header))}</th>")
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append("<tr>")
        for value in row:
            if isinstance(value, bool):
                text = "yes" if value else "no"
            elif isinstance(value, (int, float)):
                text = fmt_num(value)
            else:
                text = escape(str(value))
            parts.append(f"<td>{text}</td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)

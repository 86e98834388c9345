"""SVG primitive behavior: scales, tones, and exact labels."""
import re
import xml.etree.ElementTree as ET
from html import escape

from hypothesis import example, given
from hypothesis import strategies as st

from evalcards.charts import (
    EMPTY_CELL,
    GUTTER,
    PLOT_W,
    ROW_H,
    ChartRow,
    _auto_domain,
    _box_title,
    _scale,
    _x,
    bars_svg,
    box_strip_svg,
    component_color,
    heatmap_svg,
    html_table,
    stacked_columns_svg,
    _heat_color,
)
from evalcards.serialize import fmt_num
from evalcards.survey import likert_box


def luminance(color: str) -> int:
    return sum(int(color[i : i + 2], 16) for i in (1, 3, 5))


def test_heat_color_monotone_in_count():
    shades = [_heat_color(c, 100, log_scale=False) for c in range(1, 101)]
    lums = [luminance(s) for s in shades]
    assert all(b <= a for a, b in zip(lums, lums[1:]))
    log_shades = [_heat_color(c, 100, log_scale=True) for c in range(1, 101)]
    log_lums = [luminance(s) for s in log_shades]
    assert all(b <= a for a, b in zip(log_lums, log_lums[1:]))


def test_zero_cells_get_distinct_tone():
    assert _heat_color(0, 100, log_scale=False) == EMPTY_CELL
    ramp = {_heat_color(c, 100, log_scale=False) for c in range(1, 101)}
    assert EMPTY_CELL not in ramp


def test_heatmap_svg_cells_and_titles():
    svg = heatmap_svg(["a", "b"], [[0, 3], [1, 0]])
    ET.fromstring(svg)
    assert "a → b: 3</title>" in svg
    assert "b → a: 1</title>" in svg
    assert svg.count(EMPTY_CELL) == 2  # the two zero cells


def test_heatmap_absent_labels_greyed():
    svg = heatmap_svg(["a", "b"], [[0, 0], [0, 0]], absent={"b"})
    assert 'fill="#bbb"' in svg


def test_box_strip_renders_strip_box_and_outliers():
    box = likert_box([3, 3, 3, 3, 5])
    svg = "".join(box_strip_svg([ChartRow("comp", box, (3.0, 3.0, 5.0))], domain=(1.0, 5.0)))
    ET.fromstring(svg)
    assert svg.count("<circle") == 3 + len(box.outliers)
    assert "median=3" in svg


def test_box_strip_no_data_row():
    svg = "".join(box_strip_svg([ChartRow("quiet", None)], domain=(1.0, 5.0)))
    assert "no data" in svg
    assert "<rect" not in svg


def test_bars_show_exact_values():
    svg = bars_svg([("x", 0.5, "#123456"), ("y", 0.3333, "#654321")])
    ET.fromstring(svg)
    assert ">0.5</text>" in svg
    assert ">0.3333</text>" in svg


def test_stacked_columns_segments_and_tooltips():
    svg = "".join(
        stacked_columns_svg(
            [("u1/c", [("a", 0.25), ("b", 0.75)]), ("u2/c", [("a", 1.0), ("b", 0.0)])],
            ["a", "b"],
        )
    )
    ET.fromstring(svg)
    assert "u1/c · a: 0.25</title>" in svg
    assert "u2/c · a: 1</title>" in svg
    # zero-share segments are skipped entirely
    assert "u2/c · b" not in svg


def test_html_table_formats_values():
    table = html_table(["k", "v"], [["steps", 42], ["share", 0.5], ["flag", True]])
    assert "<td>42</td>" in table
    assert "<td>0.5</td>" in table
    assert "<td>yes</td>" in table


def test_chart_output_is_deterministic():
    rows = [ChartRow("r", likert_box([1, 2, 3, 4, 5]), (1.0, 5.0))]
    assert "".join(box_strip_svg(rows)) == "".join(box_strip_svg(rows))
    matrix = [[1, 2], [3, 4]]
    assert heatmap_svg(["a", "b"], matrix) == heatmap_svg(["a", "b"], matrix)


# --------------------------------------------------------------------------
# The per-session charts against a per-mark reference
# --------------------------------------------------------------------------


def reference_box_strip(rows, *, domain=None, x_label="", ticks=5):
    """box_strip_svg as one f-string per mark, each value formatted and
    escaped where it is written."""
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
            f'text-anchor="middle">{escape(fmt_num(round(value, 4)))}</text>'
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
        for value in row.points:
            yield (
                f'<circle cx="{_x(to_px(value))}" cy="{_x(cy)}" r="2.4" '
                f'fill="#4c78a8" fill-opacity="0.35"><title>{escape(fmt_num(value))}</title></circle>'
            )
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
                    f'stroke="#d62728"><title>{escape(fmt_num(value))}</title></circle>'
                )
            yield "</g>"
        if row.note and (row.box is not None or row.points):
            yield (
                f'<text x="{GUTTER + PLOT_W + 4}" y="{_x(cy + 3.5)}" font-size="9" '
                f'fill="#777">{escape(row.note)}</text>'
            )
    yield "</svg>"


def reference_stacked_columns(columns, comp_order, *, height=200, col_w=None):
    """stacked_columns_svg as one f-string per mark."""
    if col_w is None:
        col_w = max(12, min(26, round(1000 / max(len(columns), 1))))
    color = {comp: component_color(i) for i, comp in enumerate(comp_order)}
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
    label_every = max(1, (len(columns) + 39) // 40)
    for k, (label, segments) in enumerate(columns):
        x = left + k * col_w + 3
        y = top + height
        for comp, share in segments:
            if share <= 0:
                continue
            seg_h = height * share
            y -= seg_h
            yield (
                f'<rect x="{x}" y="{_x(y)}" width="{col_w - 6}" height="{_x(seg_h)}" '
                f'fill="{color[comp]}"><title>{escape(label)} · {escape(comp)}: '
                f"{escape(fmt_num(share))}</title></rect>"
            )
        if k % label_every == 0:
            cx = x + (col_w - 6) / 2
            yield (
                f'<text x="{_x(cx)}" y="{top + height + 10}" font-size="8.5" fill="#444" '
                f'text-anchor="end" transform="rotate(-55 {_x(cx)} {top + height + 10})">'
                f"{escape(label)}</text>"
            )
    yield "</svg>"


# Few distinct values, so that they repeat; equal values of two spellings
# (0.0 and -0.0, 1 and 1.0); and shares at or below zero, which are skipped.
_VALUES = st.sampled_from([0.0, -0.0, 1, 1.0, 0.5, 0.25, 1 / 3, 0.0001, 0.99995, 2.5, 4])
_SHARES = _VALUES | st.sampled_from([-0.0, -0.25, -1])
_TEXT = st.text(st.sampled_from("ab &<>\"'·é"), max_size=5)


@st.composite
def chart_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        points = tuple(draw(st.lists(_VALUES, max_size=12)))
        box = likert_box(points) if points and draw(st.booleans()) else None
        rows.append(ChartRow(draw(_TEXT), box, points, draw(_TEXT)))
    return rows


@given(chart_rows(), st.sampled_from([None, (0.0, 1.0), (-0.0, 5.0), (1.0, 5.0)]), _TEXT)
@example([ChartRow("a&b", None, (0.0, -0.0, 1, 1.0, 0.0, 1))], (0.0, 1.0), "<x>")
def test_box_strip_equals_the_per_mark_reference(rows, domain, x_label):
    assert list(box_strip_svg(rows, domain=domain, x_label=x_label)) == list(
        reference_box_strip(rows, domain=domain, x_label=x_label)
    )


@st.composite
def stacked_columns(draw):
    comp_order = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    columns = [
        (draw(_TEXT), [(comp, draw(_SHARES)) for comp in comp_order])
        for _ in range(draw(st.integers(0, 6)))
    ]
    return columns, comp_order


@given(stacked_columns(), st.sampled_from([None, 12, 26]))
@example(([("u&1/<t>", [("c\"'", 1), ("d", 1.0), ("e", 0.0), ("f", -0.0)])], ["c\"'", "d", "e", "f"]), None)
def test_stacked_columns_equal_the_per_mark_reference(drawn, col_w):
    columns, comp_order = drawn
    assert list(stacked_columns_svg(columns, comp_order, col_w=col_w)) == list(
        reference_stacked_columns(columns, comp_order, col_w=col_w)
    )

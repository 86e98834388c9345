"""SVG primitive behavior: scales, tones, and exact labels."""
import re
import xml.etree.ElementTree as ET

from evalcards.charts import (
    EMPTY_CELL,
    ChartRow,
    bars_svg,
    box_strip_svg,
    heatmap_svg,
    html_table,
    stacked_columns_svg,
    _heat_color,
)
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

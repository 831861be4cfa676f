"""SVG line plots: the axis range of a constant series."""

import re

import pytest

from heatext.svgplot import line_plot_svg


def _y_tick_labels(path):
    """The y-axis tick labels, the only right-anchored text of the plot."""
    with open(path) as fh:
        return [float(v) for v in re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', fh.read())]


@pytest.mark.parametrize("level", [-1.0, -1e-3, 0.0, 2.5])
def test_constant_series_gets_y_ticks(tmp_path, level):
    # the y range is widened upward by 0.1 |level| + 1e-12, so it is never
    # empty or inverted, and ticks fall inside it whatever the sign
    path = line_plot_svg(str(tmp_path / "c.svg"), [([1, 2, 3], [level] * 3, "c")])
    ticks = _y_tick_labels(path)
    assert ticks
    assert all(level <= v <= level + 0.1 * abs(level) + 1e-12 for v in ticks)

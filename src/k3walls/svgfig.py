"""Deterministic SVG rendering of wall diagrams in the upper half plane.

The picture is a fixed 800x480 canvas.  Semicircular walls become
elliptical arcs because the x and y axes carry independent scales; the
arc is emitted as "M x1 y A rx ry 0 0 1 x2 y" which bulges upward in
screen coordinates (the y axis points down, so sweep flag 1 walks the
ellipse counterclockwise in user space).  Everything is clipped to the
plot rectangle.  No timestamps, ids or randomness: equal inputs give
byte-identical files.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .report import _ratio_str, frac_str, vector_str

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 60
MARGIN_RIGHT = 180
MARGIN_TOP = 34
MARGIN_BOTTOM = 44
MAX_TICK_STEPS = 20

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
)


def _wall_extent(wall: dict, marker_sq: tuple[int, int]) -> tuple[float, float, float] | None:
    """(x lo, x hi, top y) in plane coordinates of a wall that reaches above
    the marker line, else None.  Vertical lines always reach; semicircles
    need radius^2 > marker^2, marker_sq = (num, den) (exact
    cross-multiplication; both denominators are positive).  A payload
    rational becomes the float num / den, which is correctly rounded."""
    curve = wall["curve"]
    if curve is None:
        return None
    if curve["kind"] == "vertical_line":
        x0 = curve["x0"]["num"] / curve["x0"]["den"]
        return x0, x0, 0.0
    rho_sq = curve["radius_sq"]
    if rho_sq["num"] * marker_sq[1] > marker_sq[0] * rho_sq["den"]:
        center = curve["center"]["num"] / curve["center"]["den"]
        radius = math.sqrt(rho_sq["num"] / rho_sq["den"])
        return center - radius, center + radius, radius
    return None


def _fitted_ranges(extents: list, y_marker: float) -> tuple[tuple[float, float], tuple[float, float]]:
    xs = [0.0, *(x for lo, hi, _ in extents for x in (lo, hi))]
    top = max(1.0, y_marker, *(peak for _, _, peak in extents))
    if len(xs) == 1:
        xs = [-2.0, 2.0]
    pad = max(0.5, 0.05 * (max(xs) - min(xs)))
    return (min(xs) - pad, max(xs) + pad), (0.0, top + 0.5)


def _legend_label(wall: dict) -> str:
    gamma, curve = wall["gamma"], wall["curve"]
    if gamma is not None:
        return f"gamma = {_ratio_str(gamma['num'], gamma['den'])}"
    if curve is not None and curve["kind"] == "semicircle":
        rho_sq = curve["radius_sq"]
        return f"r^2 = {_ratio_str(rho_sq['num'], rho_sq['den'])}"
    return "wall"


def render_figure(
    payload: dict,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
    y_marker: Fraction = Fraction(1),
    precision: int = 6,
) -> str:
    marker = float(y_marker)
    marker_sq = (y_marker * y_marker).as_integer_ratio()
    drawn = [(wall, extent) for wall in payload["walls"] if (extent := _wall_extent(wall, marker_sq)) is not None]
    auto_x, auto_y = _fitted_ranges([extent for _, extent in drawn], marker)
    x0, x1 = x_range or auto_x
    y0, y1 = y_range or auto_y
    if not (x1 > x0 and y1 > y0):
        raise ValueError("figure ranges must be increasing intervals")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError("figure ranges must have a finite width")
    # every value written is an int, an int margin plus a float, or a
    # product of non-negative floats, so none is -0.0
    num = f"%.{precision}f"
    fmt = num.__mod__
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    sx = plot_w / (x1 - x0)
    sy = plot_h / (y1 - y0)

    def px(x: float) -> str:
        return fmt(MARGIN_LEFT + (x - x0) * sx)

    def py(y: float) -> str:
        return fmt(MARGIN_TOP + (y1 - y) * sy)

    title = f"Walls for v = {vector_str(payload['vector'])}, d = {payload['surface']['d']}"
    left, right = px(x0), px(x1)
    top, bottom = py(y1), py(y0)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
    out.append(
        f'<clipPath id="plot"><rect x="{left}" y="{top}" width="{fmt(plot_w)}" '
        f'height="{fmt(plot_h)}"/></clipPath>'
    )
    out.append(
        f'<text x="{fmt(MARGIN_LEFT)}" y="{fmt(MARGIN_TOP - 12)}" font-family="monospace" '
        f'font-size="14" fill="#000000">{title}</text>'
    )
    out.append(
        f'<rect x="{left}" y="{top}" width="{fmt(plot_w)}" height="{fmt(plot_h)}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )

    # ticks along the x axis at the smallest step 1, 2, 5 x 10^k (k < 309
    # covers every finite float width) leaving at most MAX_TICK_STEPS steps
    width = x1 - x0
    step = next(s for k in range(309) for s in (10**k, 2 * 10**k, 5 * 10**k) if width <= MAX_TICK_STEPS * s)
    # one format per tick, its x written by px and the tick (an int) by %d
    mark = (f'<line x1="%s" y1="{bottom}" x2="%s" y2="{fmt(float(bottom) + 5)}" stroke="#000000" stroke-width="1"/>\n'
            f'<text x="%s" y="{fmt(float(bottom) + 18)}" font-family="monospace" font-size="11" '
            f'text-anchor="middle" fill="#000000">%d</text>')
    for tick in (i * step for i in range(math.ceil(x0 / step), math.floor(x1 / step) + 1)):
        tx = px(tick)
        out.append(mark % (tx, tx, tx, tick))
    out.append(
        f'<text x="{right}" y="{fmt(float(bottom) + 34)}" font-family="monospace" font-size="12" '
        f'text-anchor="end" fill="#000000">x</text>'
    )

    # dashed horizontal marker, usually the y = 1 geometricity line
    if y0 < marker < y1:
        my = py(marker)
        out.append(
            f'<line x1="{left}" y1="{my}" x2="{right}" y2="{my}" stroke="#888888" '
            f'stroke-width="1" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{fmt(float(right) + 6)}" y="{my}" font-family="monospace" font-size="11" '
            f'dominant-baseline="middle" fill="#555555">y = {frac_str(y_marker)}</text>'
        )

    # one arc or line per wall that reaches into the x window, and one
    # swatch per drawn wall in the legend in the right margin, each one
    # format whose numbers are written as fmt writes them; a swatch's y
    # is an int, which %d and precision zeros write as fmt would
    line = (f'<line x1="{num}" y1="{bottom}" x2="{num}" y2="{top}" stroke="%s" '
            f'stroke-width="1.5" stroke-dasharray="2,3" clip-path="url(#plot)"/>')
    arc = (f'<path d="M {num} {bottom} A {num} {num} 0 0 1 {num} {bottom}" '
           f'fill="none" stroke="%s" stroke-width="1.5" clip-path="url(#plot)"/>')
    lx = WIDTH - MARGIN_RIGHT + 14
    whole = f"%d.{'0' * precision}" if precision else "%d"
    swatch = (f'<line x1="{fmt(lx)}" y1="{whole}" x2="{fmt(lx + 22)}" y2="{whole}" stroke="%s" stroke-width="2"/>\n'
              f'<text x="{fmt(lx + 28)}" y="{whole}" font-family="monospace" font-size="11" fill="#000000">%s</text>')
    legend: list[str] = []
    for wall, (lo, hi, _) in drawn:
        if hi < x0 or lo > x1:
            continue
        color = PALETTE[len(legend) % len(PALETTE)]
        x_lo = MARGIN_LEFT + (lo - x0) * sx  # px's map, kept a float for the formats above
        if wall["curve"]["kind"] == "vertical_line":
            out.append(line % (x_lo, x_lo, color))
        else:
            radius = (hi - lo) / 2.0
            out.append(arc % (x_lo, radius * sx, radius * sy, MARGIN_LEFT + (hi - x0) * sx, color))
        ly = MARGIN_TOP + 10 + 18 * len(legend)
        legend.append(swatch % (ly, ly, color, ly + 4, _legend_label(wall)))
    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"

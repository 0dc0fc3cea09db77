"""Deterministic static SVG figures: region outlines, orbits, heat shading.

Output is fixed-format text with no timestamps and no randomness, so the
same inputs always produce byte-identical files.  Coordinates use the
plane section (x1 horizontal, x0 vertical, time pointing up).
"""

from __future__ import annotations

import math

from .errors import OutOfRange

_W = 640
_H = 640
_MARGIN = 40.0
_PAD_FRACTION = 0.08


def _bounds(point_groups):
    xs = [p[0] for group in point_groups for p in group]
    ys = [p[1] for group in point_groups for p in group]
    if not xs:
        xs = [-1.0, 1.0]
        ys = [-1.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = _PAD_FRACTION * span
    return x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad


class _Frame:
    """World (x1, x0) to pixel mapping, isotropic, centered on the canvas."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.scale = min((_W - 2 * _MARGIN) / (x_hi - x_lo),
                         (_H - 2 * _MARGIN) / (y_hi - y_lo))
        self.x_mid = 0.5 * (x_lo + x_hi)
        self.y_mid = 0.5 * (y_lo + y_hi)
        # Float subtraction and addition overflow to inf without raising,
        # which would collapse the figure to a point or print inf.
        if not (self.scale > 0.0 and math.isfinite(self.x_mid) and math.isfinite(self.y_mid)):
            raise OutOfRange("the figure's extent exceeds the float range")
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def to_px(self, x1, x0):
        px = 0.5 * _W + (x1 - self.x_mid) * self.scale
        py = 0.5 * _H - (x0 - self.y_mid) * self.scale
        return px, py

    def points_attr(self, pts):
        return " ".join("%.4f,%.4f" % self.to_px(x1, x0) for x1, x0 in pts)


def _shade_color(value):
    v = min(max(value, 0.0), 1.0)
    g = int(round(255.0 * v))
    return f"rgb(255,{g},{g})"


def render_figure(outline, closed, orbits, hyperbola_w=None, shade=()):
    """Assemble the SVG document.

    outline: list of (x1, x0) vertices; closed draws a polygon, open a
    polyline.  orbits: list of point lists.  hyperbola_w: if set, overlay
    the right branch of x1^2 - x0^2 = w^2, dashed, clipped to the frame.
    shade: list of (quad, value) pairs painted under everything else.
    """
    groups = [outline] + list(orbits) + [quad for quad, _ in shade]
    frame = _Frame(*_bounds(groups))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for quad, value in shade:
        parts.append(f'<polygon points="{frame.points_attr(quad)}" '
                     f'fill="{_shade_color(value)}" stroke="none"/>')
    tag = "polygon" if closed else "polyline"
    parts.append(f'<{tag} points="{frame.points_attr(outline)}" '
                 f'fill="none" stroke="black" stroke-width="1.5"/>')
    if hyperbola_w is not None:
        pts = _hyperbola_points(hyperbola_w, frame)
        if len(pts) >= 2:
            parts.append(f'<polyline points="{frame.points_attr(pts)}" '
                         f'fill="none" stroke="steelblue" stroke-width="1.2" '
                         f'stroke-dasharray="6 4"/>')
    for orbit in orbits:
        if len(orbit) >= 2:
            parts.append(f'<polyline points="{frame.points_attr(orbit)}" '
                         f'fill="none" stroke="crimson" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _hyperbola_points(w, frame, n=257):
    pts = []
    for i in range(n):
        x0 = frame.y_lo + (frame.y_hi - frame.y_lo) * i / (n - 1)
        x1 = math.hypot(w, x0)
        if frame.x_lo <= x1 <= frame.x_hi:
            pts.append((x1, x0))
    return pts

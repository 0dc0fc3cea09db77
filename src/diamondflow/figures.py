"""Deterministic static SVG figures: region outlines, orbits, heat shading.

Output is fixed-format text with no timestamps and no randomness, so the
same inputs always produce byte-identical files.  Coordinates use the
plane section (x1 horizontal, x0 vertical, time pointing up).
"""

from __future__ import annotations

import math

import numpy as np

from ._text import lines
from .errors import OutOfRange

_W = 640
_H = 640
_MARGIN = 40.0
_PAD_FRACTION = 0.08


def _bounds(point_groups):
    xs = np.concatenate([np.ravel(x1) for x1, _ in point_groups])
    ys = np.concatenate([np.ravel(x0) for _, x0 in point_groups])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
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
        """Pixel coordinates (x, y) of world points."""
        px = 0.5 * _W + (np.asarray(x1, dtype=np.float64) - self.x_mid) * self.scale
        py = 0.5 * _H - (np.asarray(x0, dtype=np.float64) - self.y_mid) * self.scale
        return px, py

    def points_attr(self, x1, x0):
        px, py = self.to_px(x1, x0)
        return lines([(px, "%.4f"), ",", (py, "%.4f")], " ")


def render_figure(outline, closed, orbits, hyperbola_w=None, shade=None):
    """The SVG document as byte chunks.

    outline: (x1, x0) vertex arrays; closed draws a polygon, open a
    polyline.  orbits: list of (x1, x0) arrays.  hyperbola_w: if set,
    overlay the right branch of x1^2 - x0^2 = w^2, dashed, clipped to the
    frame.  shade: None, or (x1, x0, corners, value): vertex arrays, an
    (m, 4) index of each quad's corners into them and one value per quad,
    painted under everything else; each vertex is formatted once.
    """
    groups = [outline, *orbits] + ([shade[:2]] if shade is not None else [])
    frame = _Frame(*_bounds(groups))

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n')
    chunks = [head.encode()]
    if shade is not None:
        x1, x0, corners, value = shade
        px, py = frame.to_px(x1, x0)
        g = (np.arange(256), "%d", np.rint(255.0 * np.clip(value, 0.0, 1.0)).astype(np.intp))
        points = [part for k in corners.T
                  for part in (" ", (px, "%.4f", k), ",", (py, "%.4f", k))][1:]
        chunks += [*lines(['<polygon points="', *points, '" fill="rgb(255,', g, ",", g,
                           ')" stroke="none"/>'], "\n"), b"\n"]
    # The outline has three or four vertices; a shorter hyperbola or orbit is left out.
    shapes = [("polygon" if closed else "polyline", outline, 'stroke="black" stroke-width="1.5"')]
    if hyperbola_w is not None:
        shapes.append(("polyline", _hyperbola_points(hyperbola_w, frame),
                       'stroke="steelblue" stroke-width="1.2" stroke-dasharray="6 4"'))
    shapes += [("polyline", orbit, 'stroke="crimson" stroke-width="1.2"') for orbit in orbits]
    for tag, (x1, x0), style in shapes:
        if len(x1) >= 2:
            chunks += [f'<{tag} points="'.encode(), *frame.points_attr(x1, x0),
                       f'" fill="none" {style}/>\n'.encode()]
    chunks.append(b"</svg>\n")
    return chunks


def _hyperbola_points(w, frame, n=257):
    x1s, x0s = [], []
    for i in range(n):
        x0 = frame.y_lo + (frame.y_hi - frame.y_lo) * i / (n - 1)
        x1 = math.hypot(w, x0)
        if frame.x_lo <= x1 <= frame.x_hi:
            x1s.append(x1)
            x0s.append(x0)
    return x1s, x0s

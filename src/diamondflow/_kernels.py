"""Array kernels for the closed-form flows and the RK4 oracle.

Each formula is written once, over operations that give the same bits for
a Python float and for a float64 array, so the scalar API calls these
kernels too.  The diamond flow shifts the rapidities rho_pm = atanh(u_pm/L)
by t/2: diamond_orbit returns u_pm(t) = L tanh(rho_pm + t/2), which never
leaves |u| <= L, and orbit_temperature reads T = cosh rho+ cosh rho- / (pi L)
from the rapidities, not from the rounded u(t), as orbit_rate reads dtau/dt.
wedge_orbit is the boost in null coordinates; diamond_moves and wedge_moves
give the displacements from the start.  global_null is the one map from
centered pairs to the global null and Cartesian columns, for a float pair
and for arrays alike: z_pm = u_pm +- L1, one rounding each, on the side of
x1's sign, and x0, x1 from the centered pair.  thermal is the one source of
the thermal quantities.
rk4_diamond and rk4_wedge step the generator field with scalar RK4 loops,
the diamond's in v = u/L coordinates for every L the float range holds, and
never consult the closed forms, so they stay an independent check.
"""

from __future__ import annotations

import numpy as np


def _rapidities(u_plus, u_minus, size, t):
    s = 0.5 * t
    return np.arctanh(u_plus / size) + s, np.arctanh(u_minus / size) + s


def _rk4_null(u0, size, h, n_steps):
    # RK4 on one null coordinate of rk4_diamond; u+ and u- evolve apart.
    v = v0 = u0 / size
    quarter, half = 0.25 * h, 0.5 * h
    for _ in range(n_steps):
        if v > 1.0 or v < -1.0:
            break
        k1 = (1.0 - v) * (1.0 + v)
        a = v + quarter * k1
        if a > 1.0 or a < -1.0:
            break
        k2 = (1.0 - a) * (1.0 + a)
        b = v + quarter * k2
        if b > 1.0 or b < -1.0:
            break
        k3 = (1.0 - b) * (1.0 + b)
        c = v + half * k3
        if c > 1.0 or c < -1.0:
            break
        v = v + half * (k1 + 2.0 * k2 + 2.0 * k3 + (1.0 - c) * (1.0 + c)) / 6.0
    else:
        return u0 + size * (v - v0), int(v > 1.0 or v < -1.0)
    return u0 + size * (v - v0), 1


def rk4_diamond(u_plus: float, u_minus: float, size: float, t: float, n_steps: int):
    """Fixed-step RK4 along the diamond generator; returns (u+, u-, status).

    Steps v = u/L with dv/ds = (1 - v)(1 + v)/2, the field's 1/2 folded into
    the steps h/4 and h/2: RK4 commutes with u = L v, so this is the method
    on du/ds = (L^2 - u^2)/(2L) without the L^2 that leaves the float range.
    Every stage must stay in |v| <= 1, else status is 1.  Returns
    u0 + L (v - v0), so t = 0 gives back the start exactly.
    """
    size, h = float(size), float(t) / int(n_steps)
    (up, sp), (um, sm) = (_rk4_null(float(u), size, h, int(n_steps)) for u in (u_plus, u_minus))
    return up, um, sp | sm


def rk4_wedge(x0: float, x1_rel: float, t: float, n_steps: int):
    """Fixed-step RK4 along the wedge boost generator; returns (x0, x1_rel, status).

    d(x0)/ds = x1_rel, d(x1_rel)/ds = x0; every stage must stay in the
    closed wedge x1_rel >= |x0|, else status is 1.
    """
    a, b = float(x0), float(x1_rel)
    h = float(t) / int(n_steps)
    half = 0.5 * h
    for _ in range(int(n_steps)):
        if b < a or b < -a:
            return a, b, 1
        sa = a + half * b
        sb = b + half * a
        if sb < sa or sb < -sa:
            return a, b, 1
        ta = a + half * sb
        tb = b + half * sa
        if tb < ta or tb < -ta:
            return a, b, 1
        ua = a + h * tb
        ub = b + h * ta
        if ub < ua or ub < -ua:
            return a, b, 1
        a, b = (a + h * (b + 2.0 * sb + 2.0 * tb + ub) / 6.0,
                b + h * (a + 2.0 * sa + 2.0 * ta + ua) / 6.0)
    return a, b, int(b < a or b < -a)


def diamond_orbit(u_plus, u_minus, size: float, t):
    """Orbits of centered null pairs over the modular parameters t.

    The starts and t broadcast together: scalars against a t grid give one
    orbit, (m, 1) columns against an (n,) grid give (m, n) outputs.
    Returns (u_plus(t), u_minus(t))."""
    size = float(size)
    rho_p, rho_m = _rapidities(u_plus, u_minus, size, t)
    return size * np.tanh(rho_p), size * np.tanh(rho_m)


def diamond_moves(u_plus, u_minus, size: float, t):
    """u_pm(t) - u_pm of diamond_orbit as L sinh(t/2) / (cosh rho_pm cosh(rho_pm + t/2)),
    which, unlike a difference of two tanh, does not cancel near the faces."""
    k, s = float(size) * np.sinh(0.5 * t), 0.5 * t
    return tuple(k / np.cosh(r) / np.cosh(r + s) for r in _rapidities(u_plus, u_minus, size, 0.0))


@np.errstate(over="ignore", invalid="ignore")
def wedge_orbit(x0, x1, apex: float, t):
    """(x0, x1, z_plus, z_minus) of the point (x0, x1) boosted by t about x1 = apex.

    x0, x1 and apex are floats, t is a float or a float64 array.  The null
    coordinates x_pm = x0 +- (x1 - apex) scale by e^(+-t), so they move by
    d_pm = x_pm expm1(+-t): z_pm = x0 +- x1 move by d_pm and x0, x1 by
    (d+ +- d-)/2.  t = 0 returns the start exactly, and z_pm never cancel
    the large x0 against x1 far along the orbit.  A start whose x_pm
    overflow is boosted at a quarter of its scale, exactly.  A result
    beyond the float range is inf or nan, which the callers reject.
    """
    if abs(x0) + abs(x1 - apex) == np.inf:
        return tuple(4.0 * c for c in _boost(0.25 * x0, 0.25 * x1, 0.25 * apex, t))
    return _boost(x0, x1, apex, t)


def wedge_moves(x0, rel, t):
    """Displacements d_pm = x_pm expm1(+-t) of the null coordinates
    x_pm = x0 +- rel under the boost by t."""
    return (x0 + rel) * np.expm1(t), (x0 - rel) * np.expm1(-t)


def _boost(x0, x1, apex, t):
    d_plus, d_minus = wedge_moves(x0, x1 - apex, t)
    return (x0 + 0.5 * (d_plus + d_minus), x1 + 0.5 * (d_plus - d_minus),
            (x0 + x1) + d_plus, (x0 - x1) + d_minus)


def orbit_temperature(u_plus, u_minus, size: float, t):
    """Temperature cosh rho+(t) cosh rho-(t) / (pi L) along the orbit of diamond_orbit."""
    size = float(size)
    rho_p, rho_m = _rapidities(u_plus, u_minus, size, t)
    k, pi_size = _pi_size(size)
    return k * np.cosh(rho_p) / pi_size * np.cosh(rho_m)


def orbit_rate(u_plus, u_minus, size: float, t):
    """dtau/dt = ||beta|| = L / (2 cosh rho+(t) cosh rho-(t)) along the orbit of diamond_orbit."""
    rho_p, rho_m = _rapidities(u_plus, u_minus, float(size), t)
    return 0.5 * size / np.cosh(rho_p) / np.cosh(rho_m)


def _pi_size(size: float):
    # (k, pi k L), k = 1/4 above L = 1: finite up to L = DBL_MAX, and exact,
    # so k x / (pi k L) has the bits of x / (pi L) wherever pi L is finite.
    k = 0.25 if size > 1.0 else 1.0
    return k, np.pi * (k * size)


def _halves(a, b, wide: bool):
    # (a + b)/2 and (a - b)/2 as 0.5 (a +- b); where wide, an element whose
    # a +- b overflows is halved first, which is exact there, while halving
    # first everywhere would round subnormals.
    if not wide:
        return 0.5 * (a + b), 0.5 * (a - b)
    with np.errstate(over="ignore"):
        s, d = 0.5 * (a + b), 0.5 * (a - b)
        return (np.where(np.isinf(s), 0.5 * a + 0.5 * b, s),
                np.where(np.isinf(d), 0.5 * a - 0.5 * b, d))


def global_null(u_plus, u_minus, size: float, shift: float):
    """Global (z_plus, z_minus, x0, x1) of centered pairs on the +e1 axis
    of the diamond of half-width size centered at x1 = shift.

    z_pm = u_pm +- shift, each rounded once, swapped where x1 < 0 (a crossed
    pair maps to its mirror image).  x0 = (u+ + u-)/2, which translation does
    not move, and x1 = shift + (u+ - u-)/2 are formed from the centered pair,
    so neither carries the rounding of z_pm at the scale of shift.
    geometry.null_from_centered is its case of a float pair."""
    # Only beyond this bound can a sum or difference of coordinates overflow.
    wide = abs(shift) + 2.0 * size > 2.0 ** 1022
    a, b = u_plus + shift, u_minus - shift  # a - b = 2 x1, and rounding keeps its sign
    z_plus, z_minus = np.maximum(a, b), np.minimum(a, b)
    x0, xi = _halves(u_plus, u_minus, wide)
    return z_plus, z_minus, x0, shift + xi


def null_beta(u, size: float):
    """(v, q, beta) of one centered null coordinate u; see thermal.

    beta is polynomial in u, so this holds on the closed diamond |u| <= L.
    """
    v = u / size
    q = (1.0 - v) * (1.0 + v)
    return v, q, 0.5 * size * q


@np.errstate(over="ignore")
def thermal(u_plus, u_minus, size: float):
    """Thermal quantities (beta+, beta-, ||beta||, T, a, r/L) of centered pairs.

    The one source of these formulas.  With v_pm = u_pm/L and
    q_pm = (1 - v_pm)(1 + v_pm) = 1/cosh^2 rho_pm:

        beta_pm = (L/2) q_pm,             ||beta|| = (L/2) sqrt(q+ q-),
        T = 1/(2 pi ||beta||) = 1/(pi L sqrt(q+ q-)),
        r/L = |v+ - v-|/2,                a = (r/L)/||beta|| = (2 (r/L)/sqrt(q+ q-))/L.

    beta_pm is the null form of the flow tangent and ||beta|| = dtau/dt;
    T diverges toward the boundary and is 1/(pi L) at the center.  L enters
    each formula as one factor, never as L^2, and pi L is formed at a
    quarter scale above L = 1, so T is finite up to L = DBL_MAX and
    overflows to inf only toward L = 0, where T itself does; a, formed from
    2 (r/L)/sqrt(q+ q-) in [2 r/L, 2^54], overflows only where a does and is
    +0.0 at the center for every L.  Only + - * /, abs and sqrt appear, all
    correctly rounded, so a float pair and an array element give the same bits.
    Needs q+ q- > 0: strictly interior pairs.
    """
    vp, qp, beta_p = null_beta(u_plus, size)
    vm, qm, beta_m = null_beta(u_minus, size)
    root = np.sqrt(qp * qm)
    k, pi_size = _pi_size(size)
    ratio = 0.5 * abs(vp - vm)
    return (beta_p, beta_m, 0.5 * size * root, k / (pi_size * root),
            2.0 * ratio / root / size, ratio)

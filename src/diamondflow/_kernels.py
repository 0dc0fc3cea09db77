"""Array kernels for the closed-form flows and the RK4 oracle.

diamond_orbit, diamond_orbit_grid, wedge_orbit and field_grid evaluate the
Moebius flow, the boost and the thermal field by numpy broadcasting.
rk4_diamond and rk4_wedge step the generator field with scalar RK4 loops
and never consult the closed forms, so they stay an independent check.
"""

from __future__ import annotations

import numpy as np


def _mobius_orbit(vp, vm, size, t):
    # vp, vm are u/L, scalars or (m, 1) columns broadcast against t
    s = 0.5 * t
    ch = np.cosh(s)
    sh = np.sinh(s)
    out_p = size * (vp * ch + sh) / (vp * sh + ch)
    out_m = size * (vm * ch + sh) / (vm * sh + ch)
    return out_p, out_m


def _rk4_diamond_loop(u_plus, u_minus, size, t, n_steps):
    # Classical fixed-step RK4 for du/ds = (L^2 - u^2)/(2L), both null
    # coordinates at once.  Every stage point must stay in |u| <= L.
    h = t / n_steps
    up = u_plus
    um = u_minus
    for _ in range(n_steps):
        if abs(up) > size or abs(um) > size:
            return up, um, 1
        k1p = (size * size - up * up) / (2.0 * size)
        k1m = (size * size - um * um) / (2.0 * size)
        ap = up + 0.5 * h * k1p
        am = um + 0.5 * h * k1m
        if abs(ap) > size or abs(am) > size:
            return up, um, 1
        k2p = (size * size - ap * ap) / (2.0 * size)
        k2m = (size * size - am * am) / (2.0 * size)
        bp = up + 0.5 * h * k2p
        bm = um + 0.5 * h * k2m
        if abs(bp) > size or abs(bm) > size:
            return up, um, 1
        k3p = (size * size - bp * bp) / (2.0 * size)
        k3m = (size * size - bm * bm) / (2.0 * size)
        cp = up + h * k3p
        cm = um + h * k3m
        if abs(cp) > size or abs(cm) > size:
            return up, um, 1
        k4p = (size * size - cp * cp) / (2.0 * size)
        k4m = (size * size - cm * cm) / (2.0 * size)
        up = up + h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        um = um + h * (k1m + 2.0 * k2m + 2.0 * k3m + k4m) / 6.0
    if abs(up) > size or abs(um) > size:
        return up, um, 1
    return up, um, 0


def _rk4_wedge_loop(x0, x1_rel, t, n_steps):
    # d(x0)/ds = x1_rel, d(x1_rel)/ds = x0; stages must stay in the
    # closed wedge x1_rel >= |x0|.
    h = t / n_steps
    a = x0
    b = x1_rel
    for _ in range(n_steps):
        if b < abs(a):
            return a, b, 1
        k1a = b
        k1b = a
        sa = a + 0.5 * h * k1a
        sb = b + 0.5 * h * k1b
        if sb < abs(sa):
            return a, b, 1
        k2a = sb
        k2b = sa
        ta_ = a + 0.5 * h * k2a
        tb_ = b + 0.5 * h * k2b
        if tb_ < abs(ta_):
            return a, b, 1
        k3a = tb_
        k3b = ta_
        ua = a + h * k3a
        ub = b + h * k3b
        if ub < abs(ua):
            return a, b, 1
        k4a = ub
        k4b = ua
        a = a + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        b = b + h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
    if b < abs(a):
        return a, b, 1
    return a, b, 0


def diamond_orbit(u_plus: float, u_minus: float, size: float, t: np.ndarray):
    """Orbit of one centered null pair over the modular parameters t.

    Returns (u_plus(t), u_minus(t))."""
    size = float(size)
    return _mobius_orbit(float(u_plus) / size, float(u_minus) / size, size,
                         np.asarray(t, dtype=np.float64))


def diamond_orbit_grid(u0_plus: np.ndarray, u0_minus: np.ndarray, size: float, t: np.ndarray):
    """Orbits of many centered null pairs over a shared t grid; (m, n) outputs."""
    size = float(size)
    vp = (np.asarray(u0_plus, dtype=np.float64) / size)[:, None]
    vm = (np.asarray(u0_minus, dtype=np.float64) / size)[:, None]
    return _mobius_orbit(vp, vm, size, np.asarray(t, dtype=np.float64)[None, :])


def wedge_orbit(x0: float, x1_rel: float, t: np.ndarray):
    """Boost orbit of (x0, x1 - apex) over the modular parameters t."""
    x0, x1_rel = float(x0), float(x1_rel)
    t = np.asarray(t, dtype=np.float64)
    ch = np.cosh(t)
    sh = np.sinh(t)
    return x0 * ch + x1_rel * sh, x1_rel * ch + x0 * sh


def field_grid(u_plus: np.ndarray, u_minus: np.ndarray, size: float):
    """Thermal field quantities (beta+, beta-, T, a, ratio) for centered pairs."""
    size = float(size)
    u_plus = np.asarray(u_plus, dtype=np.float64)
    u_minus = np.asarray(u_minus, dtype=np.float64)
    beta_p = (size * size - u_plus * u_plus) / (2.0 * size)
    beta_m = (size * size - u_minus * u_minus) / (2.0 * size)
    bnorm = np.sqrt(beta_p * beta_m)
    temperature = 1.0 / (2.0 * np.pi * bnorm)
    radius = 0.5 * np.abs(u_plus - u_minus)
    accel = radius / (size * bnorm)
    ratio = radius / size
    return beta_p, beta_m, temperature, accel, ratio


def rk4_diamond(u_plus: float, u_minus: float, size: float, t: float, n_steps: int):
    """Fixed-step RK4 along the diamond generator; returns (u+, u-, status)."""
    return _rk4_diamond_loop(float(u_plus), float(u_minus), float(size),
                             float(t), int(n_steps))


def rk4_wedge(x0: float, x1_rel: float, t: float, n_steps: int):
    """Fixed-step RK4 along the wedge boost generator; returns (x0, x1_rel, status)."""
    return _rk4_wedge_loop(float(x0), float(x1_rel), float(t), int(n_steps))

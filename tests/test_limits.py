import math

import numpy as np
import pytest
from _helpers import scan_reference

from diamondflow import _kernels, limits
from diamondflow.errors import OutOfRange, OutOfRegion, SpecMismatch
from diamondflow.flow import diamond_flow
from diamondflow.geometry import DiamondSpec, NullRadialCoords, from_null, require_interior_null
from diamondflow.limits import deviation_scan, regime_map
from diamondflow.thermo import agreement_window, temperature_ratio

UNIT = DiamondSpec(1.0, 0.0)
CORNER = DiamondSpec(1.0, 1.0)


# -------------------------------------------------- limit forms of the scans

def test_minkowski_limit_basics():
    # The inertial form (L t/2 + r, L t/2 - r) of deviation_scan.
    rep = deviation_scan("minkowski", NullRadialCoords(0.25, -0.25), UNIT, 0.0, 0.0, 1)
    assert tuple(rep.limit[0]) == (0.25, -0.25)
    rep = deviation_scan("minkowski", NullRadialCoords(1.0, -1.0), DiamondSpec(1e3), 1e-4, 1e-4, 1)
    zp, zm = rep.limit[0]
    assert abs(zp - 1.05) < 1e-12
    assert abs(zm + 0.95) < 1e-12


def test_minkowski_limit_rigid_translation():
    # z+ - z- = 2r at every t
    rep = deviation_scan("minkowski", NullRadialCoords(0.4, -0.4), UNIT, 0.0, 1.0, 11)
    np.testing.assert_allclose(rep.limit[:, 0] - rep.limit[:, 1], 0.8, rtol=0, atol=1e-15)


def test_wedge_limit_basics():
    # The boost form (r e^t, -r e^-t) of deviation_scan.
    rep = deviation_scan("wedge", NullRadialCoords(0.3, -0.3), CORNER, 0.0, 0.0, 1)
    assert tuple(rep.limit[0]) == (0.3, -0.3)
    rep = deviation_scan("wedge", NullRadialCoords(0.01, -0.01), CORNER, 1.0, 1.0, 1)
    zp, zm = rep.limit[0]
    assert abs(zp - 0.0271828) < 1e-6
    assert abs(zm + 0.0036788) < 1e-6


def test_wedge_limit_product_invariant():
    # -z+ z- = r^2 at every t
    r = 0.05
    rep = deviation_scan("wedge", NullRadialCoords(r, -r), CORNER, -2.0, 2.0, 9)
    np.testing.assert_allclose(-rep.limit[:, 0] * rep.limit[:, 1], r * r, rtol=0, atol=1e-15)


# -------------------------------------------------------------- deviation scan

def test_scan_mode_spec_consistency():
    z = NullRadialCoords(0.5, -0.5)
    with pytest.raises(SpecMismatch):
        deviation_scan("minkowski", z, DiamondSpec(1.0, 0.5), 0, 1, 5)
    with pytest.raises(SpecMismatch):
        deviation_scan("wedge", z, UNIT, 0, 1, 5)
    with pytest.raises(SpecMismatch):
        deviation_scan("inertial", z, UNIT, 0, 1, 5)


def test_scan_single_sample_zero_deviation():
    rep = deviation_scan("minkowski", NullRadialCoords(0.5, -0.5), UNIT, 0.0, 0.0, 1)
    assert rep.max_abs_dev == 0.0
    assert rep.max_rel_dev == 0.0


def test_scan_minkowski_regime():
    rep = deviation_scan("minkowski", NullRadialCoords(1.0, -1.0),
                         DiamondSpec(1e6, 0.0), 0.0, 1e-3, 41)
    assert rep.max_rel_dev < 1e-3


def test_scan_wedge_regime():
    rep = deviation_scan("wedge", NullRadialCoords(1.0, -1.0),
                         DiamondSpec(1e4, 1e4), 0.0, 1.0, 41)
    assert rep.max_rel_dev < 1e-3


def test_scan_report_consistency():
    rep = deviation_scan("wedge", NullRadialCoords(0.1, -0.1), CORNER, 0.0, 1.0, 17)
    assert rep.t_values.shape == (17,)
    assert rep.exact.shape == (17, 2)
    assert rep.limit.shape == (17, 2)
    assert rep.max_abs_dev == rep.abs_dev.max()
    assert rep.max_rel_dev == rep.rel_dev.max()
    np.testing.assert_allclose(
        rep.abs_dev, np.abs(rep.exact - rep.limit).max(axis=1), rtol=0, atol=0)


def test_scan_exact_column_matches_flow():
    rep = deviation_scan("wedge", NullRadialCoords(0.2, -0.2), CORNER, 0.0, 1.5, 7)
    for t, (zp, zm) in zip(rep.t_values, rep.exact):
        zt = diamond_flow(NullRadialCoords(0.2, -0.2), float(t), CORNER)
        assert abs(zt.z_plus - zp) < 1e-13
        assert abs(zt.z_minus - zm) < 1e-13


@pytest.mark.parametrize("mode", ["wedge", "minkowski"])
def test_scan_exact_column_is_the_global_map(mode):
    # _scan writes u_pm +- L1 inline; it is _kernels.global_null bit for bit,
    # since the wedge mode's diamond (L1 = L) holds only x1 > 0 and the
    # minkowski mode's has L1 = 0.
    for L in (1e-300, 1e-3, 1.0, 7.5, 1e280):  # the wedge limit r e^40 stays finite
        d = DiamondSpec(L, L if mode == "wedge" else 0.0)
        start = NullRadialCoords(0.35 * L, -0.35 * L)
        rep = deviation_scan(mode, start, d, -40.0, 40.0, 801)
        up, um, _ = require_interior_null(start, d)
        zp, zm, _, x1 = _kernels.global_null(
            *_kernels.diamond_orbit(up, um, L, rep.t_values), L, d.translation_L1)
        assert rep.exact.tobytes() == np.stack([zp, zm], axis=-1).tobytes(), L
        assert mode == "minkowski" or (x1 > 0.0).all()


def _same_bits(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("mode", ["minkowski", "wedge"])
def test_scan_matches_stacked_reduction(mode):
    # The deviations, taken elementwise, keep the bits of the stacked arrays
    # reduced along their (z_plus, z_minus) axis; exact and limit stay (n, 2).
    rng = np.random.default_rng(24)
    for _ in range(40):
        L = 10.0 ** rng.uniform(-290.0, 290.0)
        d = DiamondSpec(L, L if mode == "wedge" else 0.0)
        r = rng.uniform(0.01, 0.99) * L
        start = NullRadialCoords(r, -r)
        t_min, t_max = -rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)
        rep = deviation_scan(mode, start, d, t_min, t_max, 1001)
        up, um, _ = require_interior_null(start, d)
        want = scan_reference(mode, d, up, um, start.radius, rep.t_values)
        assert rep.exact.shape == rep.limit.shape == (1001, 2)
        assert _same_bits((rep.exact, rep.limit, rep.abs_dev, rep.rel_dev), want), (L, r)
        assert rep.max_abs_dev == want[2].max() and rep.max_rel_dev == want[3].max()


@pytest.mark.parametrize("mode", ["minkowski", "wedge"])
def test_regime_scan_matches_stacked_reduction(mode):
    # regime_map's (m, 1) starts against (n,) parameters, bit for bit.
    for L in (1e-250, 0.3, 1.0, 42.0, 1e250):
        d = DiamondSpec(L, L if mode == "wedge" else 0.0)
        deltas = L * 10.0 ** np.linspace(0.0, -6.0, 9)[1:-1, None]
        r = L - deltas
        starts = (r, -r, r) if mode == "minkowski" else (-r, r, deltas)
        ts = np.linspace(0.0, 3.0, 33)
        want = scan_reference(mode, d, *starts, ts)
        assert _same_bits(limits._scan(mode, d, *starts, ts), want), L
        rm = regime_map(mode, d, 3.0, 1e-3, 7)
        assert rm.max_rel_dev.tobytes() == want[3].max(axis=1).tobytes(), L


def test_scan_limit_consistency_in_L():
    # Fixed (r, t) in each regime: bigger diamonds track their limit better.
    mink = []
    wedge = []
    for L in (1e2, 1e3, 1e4):
        mink.append(deviation_scan("minkowski", NullRadialCoords(1.0, -1.0),
                                   DiamondSpec(L, 0.0), 0.0, 1e-4, 33).max_rel_dev)
        wedge.append(deviation_scan("wedge", NullRadialCoords(1.0, -1.0),
                                    DiamondSpec(L, L), 0.0, 1.0, 41).max_rel_dev)
    assert mink[0] > mink[1] > mink[2]
    assert wedge[0] > wedge[1] > wedge[2]


def test_scan_start_validation():
    # both modes: a start on the boundary r = L, no samples, a reversed range
    for mode, d in (("minkowski", UNIT), ("wedge", CORNER)):
        with pytest.raises(OutOfRange):
            deviation_scan(mode, NullRadialCoords(1.0, -1.0), d, 0, 1, 5)
        with pytest.raises(OutOfRange):
            deviation_scan(mode, NullRadialCoords(0.5, -0.5), d, 0, 1, 0)
        with pytest.raises(OutOfRange):
            deviation_scan(mode, NullRadialCoords(0.5, -0.5), d, 1, 0, 5)


def test_minkowski_limit_validation():
    # the inertial form needs a start (r, -r) with r < L
    with pytest.raises(OutOfRange):
        deviation_scan("minkowski", NullRadialCoords(0.5, -0.1), UNIT, 0, 1, 5)
    with pytest.raises(OutOfRange):
        deviation_scan("minkowski", NullRadialCoords(1.5, -1.5), UNIT, 0, 1, 5)
    with pytest.raises(OutOfRange):
        deviation_scan("minkowski", NullRadialCoords(2.0, -2.0), UNIT, 0, 1, 5)


def test_wedge_limit_validation():
    # the boost form has no orbit through the corner itself
    with pytest.raises(OutOfRange):
        deviation_scan("wedge", NullRadialCoords(0.0, 0.0), CORNER, 0, 1, 5)
    with pytest.raises(OutOfRange):
        deviation_scan("wedge", NullRadialCoords(0.6, -0.4), CORNER, 0, 1, 5)
    # a negative radius cannot be written as a start
    with pytest.raises(OutOfRange):
        NullRadialCoords(-0.5, 0.5)


# ------------------------------------------------------------- wedge hyperbola

def test_wedge_product_law_near_corner():
    # |(-z+ z-) - r^2| / r^2 <= 1e-3 for r/L <= 1e-4 over t in [0, 1]
    for L in (1e4, 1e5):
        d = DiamondSpec(L, L)
        r = 1.0
        z = NullRadialCoords(r, -r)
        for t in np.linspace(0.0, 1.0, 11):
            zt = diamond_flow(z, float(t), d)
            err = abs(-zt.z_plus * zt.z_minus - r * r) / (r * r)
            assert err <= 1e-3


# ---------------------------------------------------------- ratio--window link

def test_ratio_window_link():
    tol = 0.01
    L = 1.0
    for delta in (1e-3, 1e-4):
        r0 = L - delta
        t_star = agreement_window(delta, L, tol)
        z = NullRadialCoords(r0, -r0)
        floor = (1.0 - delta / L) / (1.0 + 2.0 * tol)
        for t in np.linspace(0.0, t_star, 50):
            ratio = temperature_ratio(diamond_flow(z, float(t), UNIT), UNIT)
            assert ratio >= floor
            if delta <= 1e-4:
                assert ratio >= 1.0 - 2.0 * tol
        # far outside the window the wedge description has collapsed
        zt = diamond_flow(z, 3.0 * t_star, UNIT)
        ratio_far = 0.5 * (zt.z_plus - zt.z_minus) / L
        assert ratio_far < 0.5


# -------------------------------------------------------------- fig-2 geometry

def test_translated_orbit_coincides_with_hyperbola():
    # L1 = sqrt(L^2 + w^2): the orbit through (0, w) sits on x1^2 - x0^2 = w^2.
    for L, w in ((1.0, 1.0), (2.0, 0.7)):
        d = DiamondSpec(L, math.sqrt(L * L + w * w))
        z = NullRadialCoords(w, -w)
        for t in np.linspace(-2, 2, 41):
            p = from_null(diamond_flow(z, float(t), d))
            val = p.x1 * p.x1 - p.x0 * p.x0
            assert abs(val - w * w) <= 1e-9 * w * w


# ------------------------------------------------------------------ regime map

def test_regime_map_all_true_at_infinite_tol():
    rm = regime_map("wedge", CORNER, 1.0, math.inf, 8)
    assert rm.within_tol.all()


def test_regime_map_wedge_threshold():
    rm = regime_map("wedge", CORNER, 1.0, 0.01, 24)
    assert rm.r_values.shape == (24,)
    # strictly increasing radii inside (0, L(1-1e-6))
    assert np.all(np.diff(rm.r_values) > 0)
    assert rm.r_values[0] > 0.0
    assert rm.r_values[-1] < 1.0 - 1e-6
    # agreement concentrates at r -> L with a single threshold
    w = rm.within_tol
    assert w[-1]
    assert not w[0]
    first = int(np.argmax(w))
    assert w[first:].all()
    assert not w[:first].any()
    np.testing.assert_allclose(rm.ratio, rm.r_values / 1.0, rtol=0, atol=0)


def test_regime_map_minkowski_long_probe_all_false():
    rm = regime_map("minkowski", UNIT, 5.0, 0.01, 16)
    assert not rm.within_tol.any()


def test_regime_map_validation():
    with pytest.raises(SpecMismatch):
        regime_map("wedge", UNIT, 1.0, 0.01, 8)
    with pytest.raises(OutOfRange):
        regime_map("wedge", CORNER, 0.0, 0.01, 8)
    with pytest.raises(OutOfRange):
        regime_map("wedge", CORNER, 1.0, -1.0, 8)
    with pytest.raises(OutOfRange):
        regime_map("wedge", CORNER, 1.0, 0.01, 0)


def test_regime_map_matches_scan():
    rm = regime_map("wedge", CORNER, 1.0, 0.01, 6)
    for r, max_dev in zip(rm.r_values, rm.max_rel_dev):
        g = 1.0 - r
        rep = deviation_scan("wedge", NullRadialCoords(g, -g), CORNER, 0.0, 1.0, 33)
        # g = 1 - r only recovers the grid offset to ~1e-12 relative
        assert abs(rep.max_rel_dev - max_dev) < 1e-6 * max_dev + 1e-15


# ------------------------------------------------------------ scale covariance

# (mode, L, L1, r, t_max): scans run over [-t_max, t_max], regime maps probe t_max.
_SCALE_CASES = [
    ("minkowski", 1.0, 0.0, 0.5, 2.0),
    ("minkowski", 3.0, 0.0, 1.2, 8.0),
    ("minkowski", 0.25, 0.0, 0.0, 1.0),
    ("wedge", 1.0, 1.0, 0.25, 1.0),
    ("wedge", 0.25, 0.25, 0.01, 3.0),
    ("wedge", 4.0, 4.0, 3.5, 0.5),
]


@pytest.mark.parametrize("k", [-900, -600, -300, -100, -40, -25, -1, 1, 25, 40, 100, 300, 600, 900])
def test_limits_scale_covariant(k):
    # Scaling L and r by 2^k is exact in binary, so relative deviations and
    # the regime classification must keep every bit.
    s = 2.0 ** k
    for mode, L, L1, r, t_max in _SCALE_CASES:
        d0, d = DiamondSpec(L, L1), DiamondSpec(L * s, L1 * s)
        t_min = -t_max if mode == "minkowski" else 0.0
        base = deviation_scan(mode, NullRadialCoords(r, -r), d0, t_min, t_max, 17)
        scaled = deviation_scan(mode, NullRadialCoords(r * s, -r * s), d, t_min, t_max, 17)
        np.testing.assert_array_equal(scaled.rel_dev, base.rel_dev)
        rm0, rm = regime_map(mode, d0, t_max, 0.01, 12), regime_map(mode, d, t_max, 0.01, 12)
        np.testing.assert_array_equal(rm.max_rel_dev, rm0.max_rel_dev)
        np.testing.assert_array_equal(rm.within_tol, rm0.within_tol)


def test_symmetric_start_tolerance_is_relative():
    # (5e-13, 0) is as far from (r, -r) at L = 1e-12 as (0.5, 0) is at L = 1.
    for L, zp in ((1e-12, 5e-13), (1.0, 0.5)):
        with pytest.raises(OutOfRange):
            deviation_scan("minkowski", NullRadialCoords(zp, 0.0), DiamondSpec(L), 0.0, 1.0, 3)
        z = NullRadialCoords(zp, -zp * (1.0 + 1e-13))
        assert deviation_scan("minkowski", z, DiamondSpec(L), 0.0, 1.0, 3).max_rel_dev >= 0.0

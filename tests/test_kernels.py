import numpy as np

from diamondflow import _kernels as K
from diamondflow.geometry import BOUNDARY_MARGIN


def test_orbit_identity_at_zero():
    up, um = K.diamond_orbit(0.37, -0.12, 1.0, np.zeros(3))
    assert (up == 0.37).all()
    assert (um == -0.12).all()


def test_center_orbit_tanh():
    t = np.linspace(-6.0, 6.0, 61)
    up, um = K.diamond_orbit(0.0, 0.0, 2.0, t)
    np.testing.assert_allclose(up, 2.0 * np.tanh(0.5 * t), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(um, up, rtol=0, atol=0)


def test_orbit_finite_for_interior_starts():
    # The interiority margin keeps the Moebius denominator above
    # sqrt(2 * margin), so interior orbits stay finite until cosh(t/2)
    # overflows near |t| = 1420.  |u| <= L is not asserted: at large |t|
    # the Moebius form overshoots the boundary by ~1e-12 relative.
    rng = np.random.default_rng(11)
    t = np.linspace(-1400.0, 1400.0, 2801)
    edge = np.nextafter(1.0 - BOUNDARY_MARGIN, 0.0)
    for size in (1e-3, 1.0, 1e3):
        starts = rng.uniform(-edge, edge, (200, 2)) * size
        starts[0] = (edge * size, -edge * size)
        for up0, um0 in starts:
            up, um = K.diamond_orbit(max(up0, um0), min(up0, um0), size, t)
            assert np.isfinite(up).all() and np.isfinite(um).all()


def test_rk4_status_flags():
    up, um, status = K.rk4_diamond(0.0, 0.0, 1.0, 10.0, 1)
    assert status == 1
    _, _, ok = K.rk4_diamond(0.0, 0.0, 1.0, 1.0, 64)
    assert ok == 0
    _, _, status = K.rk4_wedge(0.0, 1.0, -10.0, 1)
    assert status == 1
    _, _, ok = K.rk4_wedge(0.0, 1.0, 1.0, 64)
    assert ok == 0


def test_rk4_matches_closed_form():
    up, um, status = K.rk4_diamond(0.4, -0.2, 1.0, 0.7, 400)
    assert status == 0
    ep, em = K.diamond_orbit(0.4, -0.2, 1.0, np.array([0.7]))
    assert abs(up - ep[0]) < 1e-11
    assert abs(um - em[0]) < 1e-11

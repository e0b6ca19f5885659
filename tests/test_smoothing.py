import numpy as np
import pytest
from hypothesis import given, strategies as st

from starcurl.quadrature import gauss_legendre
from starcurl.smoothing import Mollifier, eta

# normalization constant for the default bump, pinned by an independent
# radial quadrature (GL-64 of exp(-1/(1-t^2)) t^2 on [0,1], c = 1/(4 pi I))
C_DEFAULT = 3.1098995056355094


def radial_mass(m):
    # 4 pi int_0^r psi(rho) rho^2 drho with a dense radial GL rule
    t, w = gauss_legendre(200)
    r = 0.5 * m.support_radius * (t + 1.0)
    w = 0.5 * m.support_radius * w
    pts = np.zeros((r.size, 3))
    pts[:, 0] = r
    return 4.0 * np.pi * float(np.dot(w, m.psi(pts) * r * r))


@pytest.mark.parametrize("r", [0.5, 0.7, 0.9])
def test_unit_mass(r):
    assert abs(radial_mass(Mollifier(r)) - 1.0) < 1e-10


def test_normalization_pinned():
    assert Mollifier().normalization == pytest.approx(C_DEFAULT, rel=1e-14)


def test_psi_center_value():
    m = Mollifier()
    assert m.psi(np.zeros(3)) == pytest.approx(C_DEFAULT * np.exp(-1.0), rel=1e-14)


def test_psi_support_and_sign(rng):
    m = Mollifier()
    x = rng.normal(size=(500, 3))
    vals = m.psi(x)
    r = np.linalg.norm(x, axis=1)
    assert np.all(vals >= 0.0)
    assert np.all(vals[r >= m.support_radius] == 0.0)
    assert np.all(vals[r <= 0.8 * m.support_radius] > 0.0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_support_radius_rejected(bad):
    with pytest.raises(ValueError):
        Mollifier(bad)


def test_grad_psi_origin_and_outside():
    m = Mollifier()
    assert np.all(m.grad_psi(np.zeros(3)) == 0.0)
    assert np.all(m.grad_psi(np.array([1.0, 0.2, 0.0])) == 0.0)


def test_grad_psi_matches_fd_at_reference_point():
    m = Mollifier()
    x = np.array([0.3, 0.1, -0.2]) * m.support_radius
    h = 1e-6
    g = m.grad_psi(x)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (m.psi(x + e) - m.psi(x - e)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


def test_grad_psi_matches_fd_bulk(rng):
    m = Mollifier()
    # keep 1e-3 clear of the support sphere where psi is C^inf but steep
    r = rng.uniform(0.0, m.support_radius - 1e-3, size=1000)
    u = rng.normal(size=(1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = r[:, None] * u
    g = m.grad_psi(x)
    h = 1e-6
    scale = np.maximum(1.0, np.max(np.abs(g), axis=1))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (m.psi(x + e) - m.psi(x - e)) / (2 * h)
        assert np.max(np.abs(fd - g[:, j]) / scale) <= 1e-6


def test_eta_anchor_values():
    assert eta(0.0) == 0.0
    assert eta(0.5) == 0.0
    assert eta(1.5) == 0.5
    assert eta(3.0) == 1.0


def test_eta_monotone_and_derivative_bound():
    s = np.linspace(0.0, 3.0, 10_000)
    v = eta(s)
    assert np.all(np.diff(v) >= 0.0)
    h = 1e-6
    fd = (eta(s[1:] + h) - eta(s[1:] - h)) / (2 * h)
    assert np.max(np.abs(fd)) == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("fn", [eta])
def test_eta_rejects_negative(fn):
    with pytest.raises(ValueError):
        fn(-0.1)


@given(st.floats(min_value=-0.89, max_value=0.89))
def test_psi_even_along_axis(t):
    m = Mollifier()
    a = m.psi(np.array([t, 0.0, 0.0]))
    b = m.psi(np.array([-t, 0.0, 0.0]))
    assert a == pytest.approx(b, rel=1e-14, abs=0.0)


@given(st.floats(min_value=0.0, max_value=0.88), st.floats(min_value=0.0, max_value=0.88))
def test_psi_radially_decreasing(r1, r2):
    m = Mollifier()
    lo, hi = sorted((r1, r2))
    v_lo = m.psi(np.array([lo, 0.0, 0.0]))
    v_hi = m.psi(np.array([hi, 0.0, 0.0]))
    assert v_lo >= v_hi - 1e-15

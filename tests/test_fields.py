import numpy as np
import pytest
from hypothesis import given, strategies as st

from starcurl.fields import (
    VectorField,
    dini_integral,
    dini_integral_from,
    modulus_of_continuity,
    parse_field,
    registry_get,
    registry_names,
)
from starcurl.geometry import ball, sample_interior

DOM = ball(2.0)

_SOLENOIDAL = ["constant", "rigid", "abc", "trig", "hoelder", "nondini", "bumpcurl"]


def fd_div_of(f, pts, h=1e-5):
    out = np.zeros(pts.shape[0])
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        out += (f.eval(pts + e)[:, j] - f.eval(pts - e)[:, j]) / (2 * h)
    return out


def fd_curl_of(f, pts, h=1e-5):
    J = np.empty((pts.shape[0], 3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        J[:, :, j] = (f.eval(pts + e) - f.eval(pts - e)) / (2 * h)
    return np.stack(
        [J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0], J[:, 1, 0] - J[:, 0, 1]],
        axis=1,
    )


def _smooth_points(rng, n=10, plane_margin=1e-3):
    pts = sample_interior(DOM, 4 * n, rng)
    good = np.min(np.abs(pts), axis=1) > plane_margin
    return pts[good][:n]


def test_registry_names_contain_builtins():
    names = registry_names()
    for n in ["constant", "rigid", "abc", "trig", "hoelder", "nonsol", "nondini"]:
        assert n in names


def test_registry_unknown_name():
    with pytest.raises((KeyError, ValueError)):
        registry_get("vortex_sheet")


def test_rigid_divergence_free(rng):
    f = registry_get("rigid")
    pts = sample_interior(DOM, 10, rng)
    assert np.max(np.abs(fd_div_of(f, pts))) <= 1e-10
    if f.div is not None:
        assert np.max(np.abs(f.div(pts))) == 0.0


def test_abc_beltrami(rng):
    f = registry_get("abc")
    pts = sample_interior(DOM, 10, rng)
    curl_fd = fd_curl_of(f, pts)
    assert np.max(np.abs(curl_fd - f.eval(pts))) <= 1e-6


def test_hoelder_diagonal_derivative_exists(rng):
    # each component is independent of its own coordinate, so the diagonal
    # partials vanish identically even at the kink planes
    f = registry_get("hoelder")
    pts = sample_interior(DOM, 20, rng)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        dj = (f.eval(pts + e)[:, j] - f.eval(pts - e)[:, j]) / (2 * h)
        assert np.max(np.abs(dj)) == 0.0


@pytest.mark.parametrize("name", _SOLENOIDAL)
def test_solenoidal_fields_fd_divergence(name, rng):
    f = registry_get(name)
    pts = _smooth_points(rng, n=100)
    assert np.max(np.abs(fd_div_of(f, pts))) <= 1e-6


def test_nonsol_analytic_divergence(rng):
    f = registry_get("nonsol")
    pts = sample_interior(DOM, 50, rng)
    assert np.allclose(f.div(pts), np.cos(pts[:, 0]))
    assert np.max(np.abs(fd_div_of(f, pts) - f.div(pts))) <= 1e-6


def test_bumpcurl_compactly_supported(rng):
    f = registry_get("bumpcurl")
    far = sample_interior(DOM, 200, rng)
    far = far[np.linalg.norm(far, axis=1) > 1.9]
    if len(far):
        assert np.max(np.abs(f.eval(far))) == 0.0
    shell = 1.95 * np.eye(3)
    assert np.all(f.eval(shell) == 0.0)


def test_field_spec_rejects_unknown():
    with pytest.raises((KeyError, ValueError)):
        parse_field("perlin:3")


def test_modulus_constant_field():
    tab = modulus_of_continuity(
        lambda x: np.full(x.shape[0], 2.5), DOM, n_pairs=2_000, bins=10, seed=0,
        rho_min=1e-3)
    assert np.max(tab.omega) == 0.0
    out = dini_integral(tab)
    assert out["value"] == 0.0
    assert not out["diverging"]


def test_modulus_sqrt_band():
    tab = modulus_of_continuity(
        lambda x: np.sqrt(np.abs(x[:, 0:1])), DOM, n_pairs=20_000, bins=20, seed=0,
        rho_min=1e-4)
    mask = (tab.radii >= 1e-4) & (tab.radii <= 1.0)
    ratio = tab.omega[mask] / np.sqrt(tab.radii[mask])
    assert np.min(ratio) >= 0.7
    assert np.max(ratio) <= 1.3


def test_modulus_linear_band():
    g = np.array([0.6, -0.64, 0.48])  # unit gradient
    tab = modulus_of_continuity(lambda x: x @ g, DOM, n_pairs=100_000, bins=20,
                                seed=0, rho_min=1e-4)
    ratio = tab.omega / tab.radii
    assert np.min(ratio) >= 0.9
    assert np.max(ratio) <= 1.0


def test_modulus_monotone_and_scaling():
    f = lambda x: np.sqrt(np.abs(x[:, 0:1]))
    a = modulus_of_continuity(f, DOM, n_pairs=5_000, bins=12, seed=4, rho_min=1e-3)
    assert np.all(np.diff(a.omega) >= 0.0)
    b = modulus_of_continuity(lambda x: 3.0 * f(x), DOM, n_pairs=5_000, bins=12,
                              seed=4, rho_min=1e-3)
    assert np.allclose(b.omega, 3.0 * a.omega, rtol=1e-12, atol=0.0)


def test_modulus_rejects_tiny_budget():
    with pytest.raises(ValueError):
        modulus_of_continuity(lambda x: x[:, 0], DOM, n_pairs=10)


def test_hoelder_slope_and_tail():
    tab = modulus_of_continuity(registry_get("hoelder"), DOM, n_pairs=30_000,
                                bins=24, seed=0, rho_min=1e-6)
    mask = (tab.radii >= 1e-4) & (tab.radii <= 1e-1)
    slope = np.polyfit(np.log(tab.radii[mask]), np.log(tab.omega[mask]), 1)[0]
    assert 0.4 <= slope <= 0.6
    assert not tab.diverging


def test_nondini_tail_diverges():
    tab = modulus_of_continuity(registry_get("nondini"), DOM, n_pairs=30_000,
                                bins=24, seed=0, rho_min=1e-6)
    assert tab.diverging


def test_dini_integral_needs_three_limits():
    with pytest.raises(ValueError):
        dini_integral_from(np.geomspace(1e-4, 4, 10), np.ones(10), (1e-2, 1e-3))


def test_dini_integral_analytic_comparison():
    # omega = sqrt(rho): int_r^D rho^(-1/2) drho = 2(sqrt(D) - sqrt(r))
    radii = np.geomspace(1e-8, 4.0, 400)
    out = dini_integral_from(radii, np.sqrt(radii), (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert not out["diverging"]
    assert out["value"] == pytest.approx(2.0 * (np.sqrt(4.0) - np.sqrt(1e-6)), rel=2e-2)
    # omega = 1/(1 - log rho): increments per decade stay near-constant
    out2 = dini_integral_from(radii, 1.0 / (1.0 - np.log(np.minimum(radii, 1.0))),
                              (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert out2["diverging"]


def test_nondini_component_values():
    f = registry_get("nondini")
    x = np.array([[0.0, 0.5, 0.0]])
    # h(t) = 1/(1 - log|t|) applied to the next coordinate over
    expected = 1.0 / (1.0 - np.log(0.5))
    assert f.eval(x)[0, 0] == pytest.approx(expected, rel=1e-12)
    origin = np.zeros((1, 3))
    assert np.all(f.eval(origin) == 0.0)


@given(st.floats(min_value=-1.9, max_value=1.9), st.floats(min_value=-1.9, max_value=1.9))
def test_rigid_tangency(a, b):
    # rigid rotation field is tangent to every centered sphere
    f = registry_get("rigid")
    x = np.array([[a, b, 0.3]])
    assert abs(float(np.sum(f.eval(x) * x))) < 1e-12

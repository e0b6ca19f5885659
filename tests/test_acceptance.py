"""Numerical certificate for the package's advertised guarantees.

One test per guarantee, each a single pass/fail line under pytest -v, at
the advertised tolerance.  The reproduction tests assert the identity the
operators satisfy,

    curl(Rg) = g - B[div g] + T[g . nu],

not the plain curl(Rg) = g: a potential that vanishes on the boundary has
a curl with zero normal component there, so for a field with normal flux
(constant, trig, abc, hoelder and nonsol on the ball of radius 2) the flux
term T is present and of order one.  verify.curl_reference builds the
right-hand side, and curl_check compares both of its curl routes with it;
for fields that are solenoidal and tangent to the boundary, or compactly
supported inside it, the reference is g alone.
"""

import time

import numpy as np

from starcurl.cli import main
from starcurl.fields import (
    dini_integral,
    modulus_of_continuity,
    registry_get,
    registry_names,
)
from starcurl.geometry import ball, boundary_distance, sample_directions, \
    sample_interior
from starcurl.kernels import grad_kernel_N, kernel_N, kernel_bound_check
from starcurl.operators import (
    CurlInverseOp,
    curl_inverse,
    curl_of_curl_inverse,
)
from starcurl.quadrature import QuadratureConfig
from starcurl.smoothing import Mollifier
from starcurl.verify import (
    boundary_check,
    curl_check,
    curl_reference,
    div_check,
    eps_study,
    forms_check,
    grad_check,
)

DOM = ball(2.0)
SMOOTH_FIELDS = ("constant", "rigid", "trig", "abc")


def sup_norm(g, n=4000, seed=123):
    pts = sample_interior(DOM, n, np.random.default_rng(seed))
    return float(np.max(np.abs(g.eval(pts))))


def interior_points(n, seed, margin=0.1):
    return sample_interior(DOM, n, np.random.default_rng(seed), margin=margin)


def test_potential_vanishes_outside_and_decays_at_boundary(op):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    dirs = sample_directions(200, rng)
    rb = boundary_distance(DOM, dirs)
    off = DOM.diameter * rng.uniform(0.01, 1.0, 200)
    outside = (rb + off)[:, None] * dirs
    for name in registry_names():
        g = registry_get(name)
        for x in outside:
            assert np.array_equal(curl_inverse(op, g, x), np.zeros(3)), \
                f"nonzero potential outside the domain for field {name}"
    rep = boundary_check(op, registry_get("rigid"), n_points=100, seed=0)
    assert rep.passed, rep.summary()
    assert time.monotonic() - t0 < 60.0


def test_curl_reproduces_smooth_fields_at_default_budget(op):
    t0 = time.monotonic()
    # all four fields are solenoidal; constant, trig and abc push flux
    # through the boundary, rigid is tangent to it and has T = 0
    pts = interior_points(20, seed=7)
    reports = {}
    for name in SMOOTH_FIELDS:
        g = registry_get(name)
        reports[name] = curl_check(op, g, pts, tol=1e-3 * (1.0 + sup_norm(g)))
    msg = "; ".join(f"{n}: {r.summary()}" for n, r in reports.items())
    assert time.monotonic() - t0 < 600.0
    assert all(r.passed for r in reports.values()), msg


def test_curl_reproduces_hoelder_field_at_relaxed_tolerance():
    # The field is solenoidal with normal flux, so the reference is
    # g + T[g . nu].  Its kinks on the coordinate planes need more than the
    # default budget, which misses by up to 0.25 here: a point 0.03 from two
    # kink planes falls between the 19 azimuths of the default 266-node
    # volume rule (14 x 19), an error the step of the central difference
    # then amplifies, and the default 590-node surface rule misses by 3e-2
    # in both routes.  The budget below takes the 590-node volume rule
    # (10 x 59) and a 2400-node surface rule.
    hoelder_op = CurlInverseOp(DOM, quad=QuadratureConfig(sphere_nodes=590,
                                                          n_surface=2400))
    pts = interior_points(200, seed=5)
    pts = pts[np.min(np.abs(pts), axis=1) >= 1e-2][:20]
    assert len(pts) == 20
    rep = curl_check(hoelder_op, registry_get("hoelder"), pts, tol=5e-2)
    assert rep.passed, rep.summary()


def test_analytic_jacobian_matches_finite_differences(op):
    pts = interior_points(10, seed=11)
    for name in ("rigid", "trig"):
        rep = grad_check(op, registry_get(name), pts, h=2e-3, tol=1e-3)
        assert rep.passed, f"{name}: {rep.summary()}"


def test_divergence_inverse_recovers_sources(op):
    pts = interior_points(10, seed=9)
    mean = 3.0 * (np.sin(2.0) - 2.0 * np.cos(2.0)) / 8.0

    def linear(y):
        return np.asarray(y, dtype=float)[..., 0]

    def centered_cos(y):
        return np.cos(np.asarray(y, dtype=float)[..., 0]) - mean

    for label, F in (("y1", linear), ("cos(y1) - mean", centered_cos)):
        rep = div_check(op, F, pts, tol=1e-3)
        assert rep.passed, f"{label}: {rep.summary()}"


def test_residual_after_divergence_correction_is_small(op):
    # after the B[div g] correction what remains of curl(Rg) - g is the flux
    # term; nonsol has normal flux y1 sin(y1) / 2 on the sphere, so the
    # residual is compared with T[g . nu] rather than with zero
    g = registry_get("nonsol")
    pts = interior_points(10, seed=13)
    worst = max(float(np.max(np.abs(curl_of_curl_inverse(op, g, x)
                                    - curl_reference(op, g, x))))
                for x in pts)
    assert worst <= 5e-3, f"max |residual - T| component {worst:.3e} > 5e-3"


def test_truncated_potential_converges_monotonically(op):
    tab = eps_study(op, registry_get("rigid"), [0.3, 0.0, 0.0],
                    [0.4, 0.2, 0.1, 0.05])
    assert tab.monotone, tab.summary()
    assert tab.errors[-1] <= tab.errors[0] / 4.0, tab.summary()


def test_kernel_parameterizations_agree(op):
    pts = interior_points(10, seed=17)
    rep = forms_check(op, registry_get("rigid"), pts, tol=1e-6)
    assert rep.passed, rep.summary()


def test_kernel_growth_laws_and_gradient_consistency():
    mol = Mollifier()
    for kind in ("N", "grad"):
        c1 = kernel_bound_check(DOM, mol, n_pairs=100_000, seed=0,
                                kernel=kind)["C_emp"]
        c2 = kernel_bound_check(DOM, mol, n_pairs=200_000, seed=1,
                                kernel=kind)["C_emp"]
        assert np.isfinite(c1) and np.isfinite(c2)
        assert max(c1, c2) / min(c1, c2) < 2.0, \
            f"{kind}: growth constant unstable ({c1:.4g} vs {c2:.4g})"

    # gradient vs Richardson-extrapolated central differences over the same
    # pair distribution the growth scans use, keeping only well-separated
    # pairs.  Near the singularity |gradN| reaches ~2e4, and a plain central
    # difference at h = 1e-5 already carries an O(h^2) truncation error of
    # ~1e-2 there; (4 D(h/2) - D(h)) / 3 cancels that term.
    rng = np.random.default_rng(0)
    n = 100
    xs = sample_interior(DOM, n, rng)
    us = sample_directions(n, rng)
    s = np.exp(rng.uniform(np.log(1e-4), np.log(DOM.diameter), size=n))
    ys = xs + s[:, None] * us
    keep = s >= 1e-2
    assert int(keep.sum()) >= 50
    h = 1e-5

    def central(x, y, m, step):
        e = np.zeros(3)
        e[m] = step
        return (kernel_N(x + e, y, mol, 16)
                - kernel_N(x - e, y, mol, 16)) / (2.0 * step)

    worst = 0.0
    for x, y in zip(xs[keep], ys[keep]):
        G = grad_kernel_N(x, y, mol, 16)
        for m in range(3):
            fd = (4.0 * central(x, y, m, h / 2.0) - central(x, y, m, h)) / 3.0
            worst = max(worst, float(np.max(np.abs(G[:, m] - fd))))
    assert worst <= 1e-6, f"max |gradN - FD| = {worst:.3e} > 1e-6"


def test_modulus_diagnostics_classify_fields():
    t0 = time.monotonic()
    hoelder = modulus_of_continuity(registry_get("hoelder"), DOM,
                                    n_pairs=30_000, bins=24, seed=0,
                                    rho_min=1e-6)
    mask = (hoelder.radii >= 1e-4) & (hoelder.radii <= 1e-1)
    slope = np.polyfit(np.log(hoelder.radii[mask]),
                       np.log(hoelder.omega[mask]), 1)[0]
    assert 0.4 <= slope <= 0.6, f"modulus slope {slope:.3f}"
    assert not dini_integral(hoelder)["diverging"]

    rough = modulus_of_continuity(registry_get("nondini"), DOM,
                                  n_pairs=30_000, bins=24, seed=0,
                                  rho_min=1e-6)
    assert dini_integral(rough)["diverging"]
    assert time.monotonic() - t0 < 60.0


def test_reruns_are_byte_identical_and_potential_is_linear(op, tmp_path):
    argv = ["solve", "--out-dir", str(tmp_path),
            "--grid.origin=-1.9,-1.9,-1.9", "--grid.spacing", "1.9,1.9,1.9",
            "--grid.counts", "3,3,3", "--seed", "0", "--threads", "1"]
    names = ("solve.csv", "solve.vtk", "effective.ini")
    assert main(argv) == 0
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(argv) == 0
    for n in names:
        assert (tmp_path / n).read_bytes() == first[n]

    rigid = registry_get("rigid")
    trig = registry_get("trig")
    x = np.array([0.4, -0.3, 0.2])

    def combo(y):
        return 2.0 * rigid.eval(y) - 0.5 * trig.eval(y)

    lhs = curl_inverse(op, combo, x)
    rhs = 2.0 * curl_inverse(op, rigid, x) - 0.5 * curl_inverse(op, trig, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- the full decomposition and its special cases -------------------------------
#
# curl(Rg) = g - B[div g] + T[g . nu] closes to quadrature accuracy for every
# field, with all three terms evaluated independently; the plain identity
# curl(Rg) = g is checked only where both corrections vanish.


def test_reproduction_closes_with_boundary_flux_term(op):
    pts = interior_points(2, seed=21)
    for name in ("constant", "trig", "abc", "nonsol"):
        g = registry_get(name)
        for x in pts:
            err = np.max(np.abs(curl_of_curl_inverse(op, g, x)
                                - curl_reference(op, g, x)))
            assert err <= 5e-3, f"{name} at {x}: {err:.3e}"


def test_compactly_supported_field_is_reproduced(op):
    # support strictly inside the domain: no boundary flux, no divergence,
    # so the plain identity curl(Rg) = g holds as advertised
    g = registry_get("bumpcurl")
    pts = interior_points(5, seed=23)
    rep = curl_check(op, g, pts, tol=1e-3 * (1.0 + sup_norm(g)))
    assert rep.passed, rep.summary()


def test_tangent_solenoidal_field_is_reproduced(op):
    g = registry_get("rigid")
    pts = interior_points(5, seed=25)
    rep = curl_check(op, g, pts, tol=1e-3 * (1.0 + sup_norm(g)))
    assert rep.passed, rep.summary()

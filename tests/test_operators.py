"""Operator-level tests: the curl inverse, its regularization, the
divergence inverse, the analytic Jacobian, and the grid evaluator.

Frozen vectors below were produced by the doubled-budget refinement runs
recorded in the repo notes; the default budget reproduces them to 1e-9
relative, and the refinement test keeps that claim honest.
"""

import numpy as np
import pytest

from starcurl.fields import VectorField, registry_get
from starcurl.geometry import (ball, boundary_distance, box, ellipsoid, parse_domain,
                               radial_from_function, ray_segments)
from starcurl.operators import (
    CurlInverseOp,
    bogovskii,
    boundary_flux_term,
    curl_inverse,
    curl_inverse_eps,
    curl_of_curl_inverse,
    domain_integral,
    eval_grid,
    grad_curl_inverse,
)
from starcurl.quadrature import (QuadratureConfig, _ray_nodes, ball_radius,
                                 sphere_rule, sphere_rule_from_count)
from starcurl.smoothing import Mollifier
from starcurl.verify import curl_reference, fd_div, fd_jacobian, grad_check

RIGID = registry_get("rigid")
E1 = registry_get("constant", 1.0, 0.0, 0.0)
ZERO = registry_get("constant", 0.0, 0.0, 0.0)

# potential of the unit e1 field on ball(2), default budget
PIN_A_X = np.array([0.2, -0.1, 0.3])
PIN_A_V = np.array([0.0, 1.599695553035283, 0.5332318510117597])
PIN_B_X = np.array([0.3, 0.2, -0.4])
PIN_B_V = np.array([0.0, -1.7081399196384743, -0.854069959819423])

# sup |Rg| / sup |g| for the rigid field over the 5^3 lattice below
GRID_BOUND_PIN = 3.0620313982097094


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# -- constructor ------------------------------------------------------------


def test_op_requires_room_for_mollifier():
    mol = Mollifier()
    object.__setattr__(mol, "support_radius", 1.05)  # bypass its own guard
    with pytest.raises(ValueError, match="unit ball"):
        CurlInverseOp(ball(2.0), mollifier=mol)


def test_op_exposes_enclosing_radius(op):
    assert ball_radius(op.domain) >= op.domain.circumradius


# -- curl inverse -----------------------------------------------------------


def test_exterior_points_map_to_exact_zero(op):
    for x in ([2.5, 0.0, 0.0], [0.0, 2.00001, 0.0], [-3.0, 1.0, 4.0]):
        assert np.array_equal(curl_inverse(op, RIGID, x), np.zeros(3))


def test_zero_field_maps_to_exact_zero(op):
    assert np.array_equal(curl_inverse(op, ZERO, [0.3, 0.1, -0.2]), np.zeros(3))


def test_potential_pins_for_unit_field(op):
    va = curl_inverse(op, E1, PIN_A_X)
    vb = curl_inverse(op, E1, PIN_B_X)
    assert rel(va, PIN_A_V) < 1e-9
    assert rel(vb, PIN_B_V) < 1e-9
    # component 1 vanishes by symmetry; the transverse components stay
    # proportional to (x3, -x2) rotated into the pinned points
    assert va[0] == 0.0 and vb[0] == 0.0
    assert abs(va[1] / va[2] - 3.0) < 1e-11
    assert abs(vb[1] / vb[2] - 2.0) < 1e-11


def test_potential_stable_under_budget_doubling(op):
    fine = CurlInverseOp(ball(2.0), quad=QuadratureConfig(
        n_alpha=32, n_rho=64, sphere_nodes=532, n_surface=1180))
    v0 = curl_inverse(op, E1, PIN_A_X)
    v1 = curl_inverse(fine, E1, PIN_A_X)
    assert rel(v0, v1) < 1e-6


def test_potential_is_linear_in_the_field(op):
    trig = registry_get("trig")
    x = np.array([0.4, -0.3, 0.2])

    def combo(y):
        return 2.0 * RIGID.eval(y) - 0.5 * trig.eval(y)

    lhs = curl_inverse(op, combo, x)
    rhs = 2.0 * curl_inverse(op, RIGID, x) - 0.5 * curl_inverse(op, trig, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- regularized curl inverse -----------------------------------------------


def test_eps_must_be_positive(op):
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="positive"):
            curl_inverse_eps(op, RIGID, [0.3, 0.0, 0.0], eps)


def test_eps_zero_field_and_huge_eps_vanish(op):
    assert np.array_equal(
        curl_inverse_eps(op, ZERO, [0.3, 0.0, 0.0], 0.1), np.zeros(3))
    # eps beyond every pair distance keeps the cutoff at 0 identically
    assert np.array_equal(
        curl_inverse_eps(op, RIGID, [0.3, 0.0, 0.0], 5.0), np.zeros(3))


def test_eps_error_decreases_toward_unregularized(op):
    x = np.array([0.3, 0.0, 0.0])
    base = curl_inverse(op, RIGID, x)
    errs = [np.linalg.norm(curl_inverse_eps(op, RIGID, x, eps) - base)
            for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= errs[0] / 4.0


# -- divergence inverse -----------------------------------------------------


def test_divergence_inverse_trivial_cases(op):
    assert np.array_equal(
        bogovskii(op, lambda y: np.zeros(y.shape[0]), [0.2, 0.1, 0.0]),
        np.zeros(3))
    assert np.array_equal(
        bogovskii(op, lambda y: y[:, 0].copy(), [2.5, 0.0, 0.0]), np.zeros(3))


def test_divergence_inverse_skips_the_kernel_where_the_source_vanishes(
        op, monkeypatch):
    import starcurl.operators as O
    kernel, rows = O.kernel_N_tilde, []

    def counted(x, y, *args):
        rows.append(len(y))
        return kernel(x, y, *args)

    monkeypatch.setattr(O, "kernel_N_tilde", counted)
    x = np.array([0.3, 0.1, 0.0])
    B = bogovskii(op, lambda y: np.zeros(y.shape[0]), x)
    assert np.array_equal(B, np.zeros(3)) and sum(rows) == 0
    # a source vanishing on half the domain: the skipped nodes add nothing
    half = lambda y: np.where(y[:, 0] > 0.0, np.cos(y[:, 0]), 0.0)
    full = O._zero_extended(op, x, lambda x, y: half(y)[:, None] * kernel(
        x, y, op.mollifier, op.quad.n_alpha))
    assert rel(bogovskii(op, half, x), full) <= 1e-14 and sum(rows) > 0


def test_divergence_inverse_inverts_div(op):
    x = np.array([0.2, 0.1, 0.0])
    d = fd_div(lambda p: bogovskii(op, lambda y: y[:, 0].copy(), p), x, 2e-3)
    assert abs(d - x[0]) < 1e-3


# -- analytic Jacobian ------------------------------------------------------


def test_gradient_rejects_exterior_and_boundary(op):
    with pytest.raises(ValueError, match="interior"):
        grad_curl_inverse(op, RIGID, [2.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="interior"):
        grad_curl_inverse(op, RIGID, [2.0 - 1e-9, 0.0, 0.0])


def test_gradient_matches_finite_differences(op):
    x = np.array([0.3, -0.2, 0.1])
    G = grad_curl_inverse(op, RIGID, x)
    J = fd_jacobian(lambda p: curl_inverse(op, RIGID, p), x, 1e-3)
    assert np.max(np.abs(G - J)) < 1e-4


def test_gradient_trace_is_the_divergence(op):
    x = np.array([0.3, -0.2, 0.1])
    tr = np.trace(grad_curl_inverse(op, RIGID, x))
    d = fd_div(lambda p: curl_inverse(op, RIGID, p), x, 1e-3)
    assert abs(tr - d) < 1e-4


# -- reproduction and its boundary correction --------------------------------


def test_curl_recovers_tangent_solenoidal_field(op):
    x = np.array([0.2, 0.3, -0.1])
    cc = curl_of_curl_inverse(op, RIGID, x)
    assert np.max(np.abs(cc - RIGID.eval(x))) < 1e-9


def test_flux_term_closes_the_reproduction_identity(op):
    # the unit field is solenoidal but pushes flux through the boundary:
    # curl(Rg) = g + T[g . nu] holds to quadrature accuracy while the
    # uncorrected curl(Rg) = g misses by an O(1) margin
    x = np.array([0.3, -0.2, 0.1])
    cc = curl_of_curl_inverse(op, E1, x)
    flux = boundary_flux_term(op, E1, x)
    g = E1.eval(x)
    assert np.max(np.abs(cc - g - flux)) < 1e-8
    assert np.max(np.abs(cc - g)) > 1.0


def test_residual_requires_closed_form_divergence(op):
    bare = VectorField("bare", RIGID.eval, div=None)
    with pytest.raises(ValueError, match="divergence"):
        curl_reference(op, bare, [0.3, 0.1, 0.0])


def test_residual_vanishes_for_tangent_solenoidal_field(op):
    x = [0.3, 0.1, 0.0]
    r = curl_of_curl_inverse(op, RIGID, x) - curl_reference(op, RIGID, x)
    assert np.max(np.abs(r)) < 1e-9


_SHELL_U = np.array([0.4397684526343243, -0.8501947872232488, -0.289434849052471])


@pytest.mark.parametrize("x", [
    (-0.3023765977695705, -0.8181348005893327, 0.12417121008503562),
    (-0.7440925155620723, 0.5039812200342988, -0.03403409111141853),
    (-0.8473065595506744, -0.25615854557899853, -0.07580964152174197),
    tuple(0.8995 * _SHELL_U),
    tuple(0.9005 * _SHELL_U),
])
def test_decomposition_and_gradient_hold_at_the_support_shell(op, x):
    # just inside the bump's support the kernels turn where its boundary
    # passes behind x; the angular rule must resolve that as well as the
    # cap rule does just outside it
    g = registry_get("nonsol")
    x = np.array(x)
    r = curl_of_curl_inverse(op, g, x) - curl_reference(op, g, x)
    assert np.max(np.abs(r)) <= 1e-4
    assert grad_check(op, g, x[None], h=2e-3, tol=1e-3).passed


@pytest.mark.parametrize("x", [
    (0.9, -0.4, 0.6),
    (-1.06, 0.124, 1.398),
    (0.948, 0.665, -1.852),
    (0.76, 1.785, -1.118),
])
def test_decomposition_closes_on_the_ellipsoid(x):
    # the flux term needs the surface patch the kernels at x see; on an
    # ellipsoid that patch is no cap about the origin
    op = CurlInverseOp(ellipsoid(2.0, 2.5, 3.0))
    g = registry_get("nonsol")
    x = np.array(x)
    r = curl_of_curl_inverse(op, g, x) - curl_reference(op, g, x)
    assert np.max(np.abs(r)) <= 5e-3


@pytest.mark.parametrize("dom", [ball(2.0), ellipsoid(2.0, 2.5, 3.0),
                                 box(1.5, 1.5, 1.5)])
def test_flux_term_vanishes_outside(dom):
    # like R and B, T returns its exact zero outside the domain
    op = CurlInverseOp(dom)
    for x in ([3.2, 0.0, 0.0], [0.0, 2.6, 0.1], [-3.0, 1.0, 4.0]):
        assert np.array_equal(boundary_flux_term(op, E1, x), np.zeros(3))


def test_residual_equals_flux_term_for_solenoidal_flow(op):
    # the residual curl(Rg) - g + B[div g] is the boundary flux term; with
    # div g = 0 the B part is exactly zero, and the gap itself is not small
    x = np.array([0.3, -0.2, 0.1])
    r = curl_of_curl_inverse(op, E1, x) - E1.eval(x)
    flux = boundary_flux_term(op, E1, x)
    assert np.array_equal(curl_reference(op, E1, x), E1.eval(x) + flux)
    assert np.max(np.abs(r - flux)) < 1e-8
    assert np.max(np.abs(r)) > 1.0


# -- grid evaluation ---------------------------------------------------------


def test_grid_zero_field_and_exterior_zeros(op):
    grid = eval_grid(op, ZERO, origin=(-1.9, -1.9, -1.9),
                     spacing=(1.9, 1.9, 1.9), counts=(3, 3, 3))
    assert np.array_equal(grid.values, np.zeros((3, 3, 3, 3)))
    # face centers are interior, corners and edges are not
    assert int(grid.inside.sum()) == 7
    pts = grid.points().reshape(-1, 3)
    norms = np.linalg.norm(pts, axis=1)
    assert np.array_equal(grid.inside.ravel(), norms < 2.0)


def test_grid_thread_count_does_not_change_bits(op):
    kw = dict(origin=(-0.5, -0.5, -0.5), spacing=(1.0, 1.0, 1.0),
              counts=(2, 2, 2))
    g1 = eval_grid(op, RIGID, threads=1, **kw)
    g2 = eval_grid(op, RIGID, threads=2, **kw)
    assert np.array_equal(g1.values, g2.values)
    assert np.array_equal(g1.inside, g2.inside)


def test_grid_uniform_bound_regression(op):
    grid = eval_grid(op, RIGID, origin=(-1.8, -1.8, -1.8),
                     spacing=(0.9, 0.9, 0.9), counts=(5, 5, 5))
    pts = grid.points().reshape(-1, 3)
    sup_g = np.max(np.abs(RIGID.eval(pts[grid.inside.ravel()])))
    ratio = np.max(np.abs(grid.values)) / sup_g
    assert abs(ratio - GRID_BOUND_PIN) < 1e-9 * GRID_BOUND_PIN
    # exterior lattice points hold exact zeros
    assert not np.any(grid.values[~grid.inside])


# -- radial tables ------------------------------------------------------------


def test_domain_integral_over_reentrant_table():
    # waisted at the equator: rays from x in the upper lobe leave the domain
    # and come back in, so the volume needs every crossing of each ray
    dom = radial_from_function(lambda u: 1.1 + 2.5 * u[..., 2] ** 4, 48, 96)
    quad = QuadratureConfig(sphere_nodes=1064)
    x = np.array([1.2, 0.0, 1.7])
    rule = sphere_rule_from_count(quad.sphere_nodes)
    r_ball = ball_radius(dom)
    xu = rule.points @ x
    t_max = -xu + np.sqrt(xu * xu + r_ball * r_ball - x @ x)
    cross = ray_segments(dom, x, rule.points, t_max)
    assert np.max(np.sum(cross < t_max[:, None], axis=1)) >= 2

    fine = sphere_rule(400, 800)
    exact = float(fine.weights @ boundary_distance(dom, fine.points) ** 3) / 3.0
    vol = domain_integral(CurlInverseOp(dom, quad=quad),
                          lambda y: np.ones(len(y)), x)
    assert vol == pytest.approx(exact, rel=1e-3)


def test_ray_nodes_skip_padded_panels_and_the_outside():
    # only 24 of the 1064 rays cross 3 or 5 times; the others must not pay
    # for their panels, and a zero-extended integrand gets no node outside
    dom = radial_from_function(lambda u: 1.1 + 2.5 * u[..., 2] ** 4, 48, 96)
    quad = QuadratureConfig(sphere_nodes=1064)
    x = np.array([1.2, 0.0, 1.7])
    rule = sphere_rule_from_count(quad.sphere_nodes)
    r_ball = ball_radius(dom)
    counts = []
    for inside_only in (False, True):
        y, w = _ray_nodes(x, dom, quad, rule.points, rule.weights, r_ball, (),
                          inside_only)
        assert len(y) == len(w)
        assert np.all(w != 0.0)
        counts.append(len(w))
    assert counts == [69_760, 34_880]


def test_potential_on_table_matches_exact_ellipsoid():
    exact = ellipsoid(2.0, 2.5, 3.0)
    table = radial_from_function(lambda u: boundary_distance(exact, u))
    g = registry_get("nonsol")
    x = np.array([0.9, -0.4, 0.6])
    want = curl_inverse(CurlInverseOp(exact), g, x)
    got = curl_inverse(CurlInverseOp(table), g, x)
    assert rel(got, want) <= 1e-2


# nonsol at the panel point below, default budget: R, R^eps (eps = 0.1),
# B[div g], gradR and T per domain, and R on the 32 x 64 table of
# ellipsoid(2, 2.5, 3).  A change that moves any of them by more than 1e-13
# relative (each array against its own max magnitude) alters the numbers at
# equal budget and has to say why.  The box's T is its faces' angle rule
# seen from x; the whole-face rule at 6 x 160^2 nodes gives
# (-2.66136, 1.35261, -1.83783) there.
PANEL_X = np.array([0.9, -0.4, 0.6])
PANEL_PINS = {
    "ball:r0=2": {
        "R": [0.0, 0.5442058009363929, 0.3628038672909286],
        "Re": [0.0, 0.4810352054350392, 0.32069013695669274],
        "B": [-0.33328515715736384, 0.176193995725019, -0.2642909935875288],
        "gradR": [[-0.0, -0.0, -0.0],
                  [-0.883432055547761, 0.508349996797143, 0.14448315675672113],
                  [-0.5889547036985066, -0.568108154087674, -0.5083499967971433]],
        "T": [-1.829204002934575, 0.7651496515199292, -1.1477244772798936],
    },
    "ellipsoid:a=2,b=2.5,c=3": {
        "R": [0.0, 0.8067925657982848, 0.5236913849833567],
        "Re": [0.0, 0.7436219702969312, 0.4815776546491219],
        "B": [-0.31402699553867497, 0.1930065294173291, -0.28641563878290055],
        "gradR": [[-0.0, -0.0, -0.0],
                  [-1.6797464554480446, 0.5898058446005326, 0.7113405480775602],
                  [-1.056694386056285, -0.9350808518374063, -0.40142979686614066]],
        "T": [-2.743778107751242, 1.2497031216779582, -1.9661666917302159],
    },
    "box:h=1.5,1.5,1.5": {
        "R": [0.0, 0.5677104552307685, 0.3877991766508063],
        "Re": [0.0, 0.5045398597294147, 0.3456854463165706],
        "B": [-0.3568068409908011, 0.19723149762301267, -0.29013674728447325],
        "gradR": [[-0.0, -0.0, -0.0],
                  [-1.5522625616942538, 0.023305555873870898, 0.5926944872931602],
                  [-1.161231620396579, -0.9322767100207081, -0.1833647828085952]],
        "T": [-2.667234887134903, 1.3534274105368758, -1.8379074725196385],
    },
    "table": {
        "R": [0.0, 0.8083736116337366, 0.5246102594427545],
    },
}
_PANEL_OPS = {
    "R": curl_inverse,
    "Re": lambda op, g, x: curl_inverse_eps(op, g, x, 0.1),
    "B": lambda op, g, x: bogovskii(op, g.div, x),
    "gradR": grad_curl_inverse,
    "T": boundary_flux_term,
}


@pytest.mark.parametrize("x", [(0.9, -0.4, 0.6), (0.3, 0.2, 0.1)])
def test_ball_is_the_ellipsoid_with_equal_semi_axes(x):
    # one description of the sphere: both specs give the same bits in every
    # operator, the flux term T included
    g, x = registry_get("nonsol"), np.array(x)
    ops = [CurlInverseOp(parse_domain(s))
           for s in ("ball:r0=2", "ellipsoid:a=2,b=2,c=2")]
    for name, fn in _PANEL_OPS.items():
        a, b = (fn(op, g, x) for op in ops)
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("spec", list(PANEL_PINS))
def test_panel_values_pinned_at_equal_budget(spec):
    if spec == "table":
        exact = ellipsoid(2.0, 2.5, 3.0)
        dom = radial_from_function(lambda u: boundary_distance(exact, u))
    else:
        dom = parse_domain(spec)
    op = CurlInverseOp(dom)
    g = registry_get("nonsol")
    for name, want in PANEL_PINS[spec].items():
        got = _PANEL_OPS[name](op, g, PANEL_X)
        assert rel(got, np.array(want)) <= 1e-13, name


def test_operators_converged_in_n_alpha_near_the_bump_edge():
    # at |x| just inside the bump's edge r_psi = 0.9, kernels cut at
    # alpha = 1 next to a support root; the graded rule's end slivers keep
    # R, B and T within ~1e-14 of the n_alpha = 48 budget, and gradR
    # within 2.6e-12 (the even split there gave 4e-12 to 1.3e-10)
    x = np.array([0.85, 0.1, -0.2])
    g = registry_get("nonsol")
    dom = parse_domain("ball:r0=2")
    op, fine = CurlInverseOp(dom), CurlInverseOp(dom, quad=QuadratureConfig(n_alpha=48))
    bounds = {"R": 1e-12, "B": 1e-12, "T": 1e-12, "gradR": 2e-11}
    for name, bound in bounds.items():
        fn = _PANEL_OPS[name]
        assert rel(fn(op, g, x), fn(fine, g, x)) <= bound, name

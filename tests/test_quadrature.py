import numpy as np
import pytest

from starcurl.fields import registry_get
from starcurl.geometry import ball, box, ellipsoid, radial_from_function
from starcurl.kernels import kernel_N, kernel_N_tilde
from starcurl.quadrature import (
    QuadratureConfig,
    ball_radius,
    boundary_quadrature,
    cap_nodes,
    gauss_legendre,
    integrate_ball_singular,
    integrate_sphere_cap,
    integrate_sphere_surface,
    sphere_rule,
    sphere_rule_from_count,
    support_caps,
    surface_cap_cosine,
)
from starcurl.smoothing import Mollifier

MOL = Mollifier()


def test_config_defaults():
    cfg = QuadratureConfig()
    assert (cfg.n_alpha, cfg.n_rho, cfg.sphere_nodes, cfg.n_surface) == (16, 32, 266, 590)
    assert cfg.r_factor == 1.05


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_alpha": 1},
        {"n_rho": 0},
        {"sphere_nodes": 1},
        {"n_surface": -5},
        {"r_factor": 1.0},
        {"r_factor": 0.9},
    ],
)
def test_config_rejections(kwargs):
    with pytest.raises(ValueError):
        QuadratureConfig(**kwargs)


def test_gauss_legendre_cached():
    assert gauss_legendre(16) is gauss_legendre(16)


def test_sphere_rule_moments():
    rule = sphere_rule(14, 19)
    w, u = rule.weights, rule.points
    assert np.sum(w) == pytest.approx(4.0 * np.pi, abs=1e-12)
    assert abs(np.dot(w, u[:, 2])) < 1e-12
    assert np.dot(w, u[:, 2] ** 2) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-10)
    assert abs(np.dot(w, u[:, 0] * u[:, 1])) < 1e-12
    # degree-4 and degree-6 even moments of the product rule
    assert np.dot(w, u[:, 2] ** 4) == pytest.approx(4.0 * np.pi / 5.0, abs=1e-10)
    assert np.dot(w, u[:, 2] ** 6) == pytest.approx(4.0 * np.pi / 7.0, abs=1e-10)


def test_sphere_rule_from_count_factorizations():
    r266 = sphere_rule_from_count(266)
    assert (r266.n_polar, r266.n_azimuth) == (14, 19)
    r590 = sphere_rule_from_count(590)
    assert (r590.n_polar, r590.n_azimuth) == (10, 59)


def test_sphere_rule_from_count_prime_fallback():
    rule = sphere_rule_from_count(97)
    assert rule.n_polar >= 3 and rule.n_azimuth >= 4
    assert np.sum(rule.weights) == pytest.approx(4.0 * np.pi, abs=1e-12)


def test_cap_nodes_weight_sum(rng):
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        mu = rng.uniform(-0.5, 0.95)
        nu, w = cap_nodes(axis, mu, 12, 24)
        assert np.sum(w) == pytest.approx(2.0 * np.pi * (1.0 - mu), rel=1e-12)
        assert np.min(nu @ axis) >= mu - 1e-12
        assert np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("radius", [None, 2.1])
def test_support_caps_beyond_support_is_the_one_cap(radius):
    x = np.array([1.3, 0.2, -0.4])
    rx = float(np.linalg.norm(x))
    ((axis, c),) = support_caps(x, 0.9, radius)
    assert np.array_equal(axis, x / rx)
    want = (np.sqrt(1.0 - (0.9 / rx) ** 2) if radius is None
            else surface_cap_cosine(rx, 0.9, radius))
    assert c == want


@pytest.mark.parametrize("radius", [None, 2.1])
@pytest.mark.parametrize("x", [[0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [0.0, 0.9, 0.0]])
def test_support_caps_inside_support_split_the_sphere(x, radius):
    x = np.array(x)
    (a1, c1), (a2, c2) = support_caps(x, 0.9, radius)
    turn = 0.0 if radius is None else np.linalg.norm(x) / radius
    assert np.allclose(np.linalg.norm(a1), 1.0)
    # the caps meet at the turning cosine and tile the sphere
    assert np.array_equal(a2, -a1)
    assert c1 == turn and c2 == -turn
    w = np.concatenate([cap_nodes(a, c, 14, 19)[1] for a, c in ((a1, c1), (a2, c2))])
    assert np.sum(w) == pytest.approx(4.0 * np.pi, rel=1e-12)
    if np.any(x):
        assert np.allclose(a1, x / np.linalg.norm(x))


@pytest.mark.parametrize("radius", [None, 2.1])
def test_support_caps_front_cap_meets_outer_cap_at_the_support(radius):
    u = np.array([0.48, -0.6, 0.64])
    (_, inner), _ = support_caps((0.9 - 1e-9) * u, 0.9, radius)
    ((_, outer),) = support_caps((0.9 + 1e-9) * u, 0.9, radius)
    assert abs(inner - outer) < 1e-4


def test_ball_radius():
    assert ball_radius(ball(2.0), QuadratureConfig()) == pytest.approx(2.1)
    assert ball_radius(ellipsoid(2.0, 2.5, 3.0), QuadratureConfig(r_factor=1.2)) == pytest.approx(3.6)


def test_ball_integrator_volume():
    # R = 1.25 * 1.6 = 2 exactly
    dom = ball(1.6)
    cfg = QuadratureConfig(r_factor=1.25)
    val = integrate_ball_singular(lambda y: np.ones(y.shape[0]), np.zeros(3), dom, cfg)
    assert val == pytest.approx(4.0 * np.pi * 8.0 / 3.0, abs=1e-8)


def test_ball_integrator_desingularizes_inverse_square():
    dom = ball(1.6)
    cfg = QuadratureConfig(r_factor=1.25)
    x = np.array([0.3, 0.0, 0.0])
    val = integrate_ball_singular(
        lambda y: 1.0 / np.sum((y - x) ** 2, axis=1), x, dom, cfg)
    # per-ray reduction: the integral equals the mean exit radius over S^2
    rule = sphere_rule(40, 80)
    xu = rule.points @ x
    rho_max = -xu + np.sqrt(xu * xu + 4.0 - float(x @ x))
    ref = float(np.dot(rule.weights, rho_max))
    assert val == pytest.approx(ref, rel=1e-8)


def test_ball_integrator_segment_splitting():
    # zero-extended indicator of an inner ball: the jump at its boundary is
    # resolved by per-ray segmentation, not smeared
    dom = ball(1.5)
    cfg = QuadratureConfig(r_factor=1.4)
    val = integrate_ball_singular(
        lambda y: (np.sum(y * y, axis=1) < 1.5**2).astype(float), np.zeros(3), dom, cfg)
    assert val == pytest.approx(4.0 * np.pi * 1.5**3 / 3.0, rel=1e-8)


def test_ball_integrator_rejects_outside_point():
    with pytest.raises(ValueError):
        integrate_ball_singular(lambda y: np.ones(y.shape[0]),
                                np.array([3.0, 0.0, 0.0]), ball(2.0), QuadratureConfig())


def test_ball_integrator_deterministic():
    dom = ball(2.0)
    x = np.array([0.4, -0.2, 0.1])
    f = lambda y: kernel_N(x, y, MOL)
    a = integrate_ball_singular(f, x, dom, QuadratureConfig(), support_radius=0.9)
    b = integrate_ball_singular(f, x, dom, QuadratureConfig(), support_radius=0.9)
    assert np.array_equal(a, b)


def test_ball_integrator_refinement_convergence():
    dom = ball(2.0)
    x = np.array([0.4, -0.2, 0.1])
    f = lambda y: kernel_N(x, y, MOL)
    coarse = integrate_ball_singular(f, x, dom, QuadratureConfig(), support_radius=0.9)
    fine = integrate_ball_singular(
        f, x, dom, QuadratureConfig(n_rho=64, sphere_nodes=532), support_radius=0.9)
    assert np.max(np.abs(fine - coarse)) <= 1e-6 * np.max(np.abs(fine))


def test_sphere_surface_anchors():
    rule = sphere_rule_from_count(590)
    area = integrate_sphere_surface(lambda y, nu: np.ones(y.shape[0]), 2.1, rule)
    assert area == pytest.approx(4.0 * np.pi * 2.1**2, rel=1e-12)
    odd = integrate_sphere_surface(lambda y, nu: nu[:, 0], 2.1, rule)
    assert abs(odd) < 1e-10


def test_sphere_surface_kernel_refinement_stable():
    x = np.array([0.5, 0.1, -0.3])
    f = lambda y, nu: kernel_N(x, y, MOL)[:, 0] * nu[:, 1]
    a = integrate_sphere_surface(f, 2.1, sphere_rule_from_count(590))
    b = integrate_sphere_surface(f, 2.1, sphere_rule_from_count(1180))
    assert abs(a - b) < 1e-7


def test_surface_cap_restriction_lossless():
    # for |x| > bump radius only a cap of the sphere sees the kernel
    x = np.array([1.3, 0.2, -0.4])
    rx = float(np.linalg.norm(x))
    radius = 2.1
    f = lambda y, nu: kernel_N_tilde(x, y, MOL)[:, 0]
    cb = surface_cap_cosine(rx, MOL.support_radius, radius)

    # the integrand vanishes identically outside the cap
    rule = sphere_rule(80, 160)
    vals = f(radius * rule.points, rule.points)
    outside = rule.points @ (x / rx) < cb
    assert np.max(np.abs(vals[outside])) == 0.0
    assert np.max(np.abs(vals[~outside])) > 1.0

    # the cap rule is converged while a full-sphere rule of equal resolution
    # still fights the kink at the cap edge; refinement agrees to rounding
    capped = integrate_sphere_cap(f, radius, x / rx, cb, 40, 80)
    capped_fine = integrate_sphere_cap(f, radius, x / rx, cb, 80, 160)
    assert capped == pytest.approx(capped_fine, rel=1e-12)
    full = integrate_sphere_surface(f, radius, rule)
    assert full == pytest.approx(capped, rel=1e-4)


def test_sphere_cap_area():
    axis = np.array([0.0, 0.0, 1.0])
    val = integrate_sphere_cap(lambda y, nu: np.ones(y.shape[0]), 2.0, axis, 0.5, 16, 32)
    assert val == pytest.approx(2.0 * np.pi * 4.0 * 0.5, rel=1e-12)


def test_boundary_quadrature_ball():
    pts, w, nu = boundary_quadrature(ball(2.0), 590)
    assert np.sum(w) == pytest.approx(16.0 * np.pi, rel=1e-12)
    assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
    assert np.allclose(pts / 2.0, nu)


def test_boundary_quadrature_ball_cap_mode():
    x = np.array([1.5, 0.0, 0.0])
    pts, w, nu = boundary_quadrature(ball(2.0), 590, x=x, support_radius=0.9)
    cb = surface_cap_cosine(1.5, 0.9, 2.0)
    assert np.sum(w) == pytest.approx(2.0 * np.pi * 4.0 * (1.0 - cb), rel=1e-12)
    assert np.min(nu @ (x / 1.5)) >= cb - 1e-12


@pytest.mark.parametrize("dom,x", [
    (ball(2.0), None),
    (ball(2.0), (1.5, 0.0, 0.0)),
    (ball(2.0), (0.3, -0.2, 0.1)),
    (ellipsoid(2.0, 2.5, 3.0), None),
    (ellipsoid(2.0, 2.5, 3.0), (0.9, -0.4, 0.6)),
    (ellipsoid(2.0, 2.5, 3.0), (0.3, -0.2, 0.1)),
    (ellipsoid(2.0, 2.5, 3.0), (0.948, 0.665, -1.852)),
])
def test_boundary_quadrature_nodes_lie_on_the_surface(dom, x):
    pts, w, nu = boundary_quadrature(dom, 590, x=x, support_radius=0.9)
    a = np.broadcast_to(np.asarray(dom.params), (3,))
    assert len(w) > 0 and np.all(w > 0.0)
    assert np.max(np.abs(np.linalg.norm(pts / a, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)) <= 1e-12
    # outward: nu is the direction of the level-set gradient y / a^2
    grad = pts / (a * a)
    assert np.max(np.abs(nu - grad / np.linalg.norm(grad, axis=1)[:, None])) <= 1e-12
    assert np.all(np.einsum("ij,ij->i", nu, pts) > 0.0)


def test_boundary_quadrature_ellipsoid_sees_the_patch_from_x():
    # the flux term's integrand at x: the capped 590-node rule matches a
    # fine rule over the whole surface, which knows nothing about x
    dom = ellipsoid(2.0, 2.5, 3.0)
    g = registry_get("nonsol")
    x = np.array([0.9, -0.4, 0.6])

    def flux(pts, w, nu):
        gn = np.einsum("ij,ij->i", g(pts), nu)
        return np.tensordot(w, gn[:, None] * kernel_N_tilde(x, pts, MOL), axes=1)

    capped = flux(*boundary_quadrature(dom, 590, x=x, support_radius=0.9))
    full = flux(*boundary_quadrature(dom, 160 * 320))
    assert np.max(np.abs(capped - full)) <= 1e-5


@pytest.mark.parametrize("x,bound", [((0.9, -0.4, 0.6), 1e-2),
                                     ((1.3, 1.2, -0.7), 5e-2)])
def test_boundary_quadrature_box_sees_its_faces_from_x(x, bound):
    # the flux term's integrand at x: the 590-node angle rule about x
    # against a fine whole-face rule, which knows nothing about x
    dom = box(1.5, 1.5, 1.5)
    g = registry_get("nonsol")
    x = np.array(x)

    def flux(pts, w, nu):
        gn = np.einsum("ij,ij->i", g(pts), nu)
        return np.tensordot(w, gn[:, None] * kernel_N_tilde(x, pts, MOL), axes=1)

    seen = flux(*boundary_quadrature(dom, 590, x=x, support_radius=0.9))
    full = flux(*boundary_quadrature(dom, 6 * 160 ** 2))
    assert np.max(np.abs(seen - full)) <= bound


@pytest.mark.parametrize("x", [None, (0.9, -0.4, 0.6), (1.3, 1.2, -0.7),
                               (2.0, 0.3, -0.2)])
def test_boundary_quadrature_box_nodes_lie_on_their_faces(x):
    h = np.array([1.5, 2.0, 2.5])
    pts, w, nu = boundary_quadrature(box(*h), 600, x=x, support_radius=0.9)
    assert len(w) > 0 and np.all(w > 0.0)
    k = np.argmax(np.abs(nu), axis=1)
    # nu = +-e_k, the node on face k, inside the other two slabs
    assert np.array_equal(np.abs(nu), np.eye(3)[k])
    assert np.array_equal(pts[np.arange(len(k)), k], nu[np.arange(len(k)), k] * h[k])
    assert np.all(np.abs(pts) <= h * (1.0 + 1e-12))
    if x is not None and x[0] > h[0]:
        # x lies beyond the face y_1 = +h_1, which gets no node
        assert not np.any(nu[:, 0] > 0.0)


@pytest.mark.parametrize("x", [(1.3, 0.2, -0.4), (0.3, -0.5, 0.4)])
def test_boundary_quadrature_ball_flux_matches_the_cap_integrals(x):
    # on a ball the rays leave the origin over the caps of support_caps, so
    # the sphere flux of N equals the sum of the cap integrals
    x = np.array(x)
    pts, w, nu = boundary_quadrature(ball(2.1), 590, x=x, support_radius=0.9)
    flux = np.einsum("n,ni,nm->im", w, kernel_N(x, pts, MOL), nu)
    rule = sphere_rule_from_count(590)
    f = lambda y, n: kernel_N(x, y, MOL)[:, :, None] * n[:, None, :]
    caps = sum(integrate_sphere_cap(f, 2.1, axis, cb, rule.n_polar, rule.n_azimuth)
               for axis, cb in support_caps(x, 0.9, 2.1))
    assert np.max(np.abs(flux - caps)) <= 1e-14 * np.max(np.abs(caps))


@pytest.mark.parametrize(
    "dom,volume",
    [
        (ball(2.0), 4.0 * np.pi * 8.0 / 3.0),
        (ellipsoid(2.0, 2.5, 3.0), 4.0 * np.pi * 15.0 / 3.0),
        (box(1.5, 1.5, 1.5), 27.0),
    ],
)
def test_boundary_quadrature_divergence_theorem(dom, volume):
    pts, w, nu = boundary_quadrature(dom, 1200)
    flux = float(np.dot(w, np.einsum("ij,ij->i", pts, nu)))
    assert flux == pytest.approx(3.0 * volume, rel=1e-6)


def test_boundary_quadrature_box_area():
    pts, w, nu = boundary_quadrature(box(1.5, 2.0, 2.5), 600)
    area = 8.0 * (1.5 * 2.0 + 1.5 * 2.5 + 2.0 * 2.5)
    assert np.sum(w) == pytest.approx(area, rel=1e-12)
    assert np.allclose(np.abs(nu).max(axis=1), 1.0)


def test_boundary_quadrature_radial_unsupported():
    dom = radial_from_function(lambda u: 1.5 + 0.1 * u[..., 2] ** 2)
    with pytest.raises(NotImplementedError):
        boundary_quadrature(dom, 100)

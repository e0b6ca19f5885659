import numpy as np
import pytest
from hypothesis import given, strategies as st

from starcurl.geometry import ball, sample_directions, sample_interior
from starcurl.kernels import (
    alpha_support,
    grad_kernel_N,
    kernel_aux,
    kernel_bound_check,
    kernel_N,
    kernel_N_reference,
    kernel_N_tilde,
)
from starcurl.quadrature import (
    QuadratureConfig,
    gauss_legendre,
    integrate_ball_singular,
)
from starcurl.smoothing import Mollifier

MOL = Mollifier()

# pinned by a 1e5-point trapezoid line integral, independent of the
# Gauss-Legendre panels used in production
N_HALF_PAIR = 0.013284891650976566     # x=(0.5,0,0), y=(-0.5,0,0)
NT_HALF_PAIR = 0.13877537633550155
N_ORIGIN_PAIR = 0.03007486073451071    # x=(0.5,0,0), y=(0,0,0)
NT_ORIGIN_PAIR = 0.1670976983537336

X_HALF = np.array([0.5, 0.0, 0.0])
Y_HALF = np.array([-0.5, 0.0, 0.0])
Y_ORIGIN = np.zeros(3)

# pair with a long alpha interval; large third derivatives make it the
# hardest case seen in a 1000-pair scan of the finite-difference sweep
HARD_X = np.array([-0.5506932, 0.03085917, -1.71436501])
HARD_Y = np.array([-0.68136214, 0.07965513, -1.87633966])


def dense_trapezoid_N(x, y, weight, n=100_000):
    iv = alpha_support(x, y, MOL.support_radius)
    if iv.empty:
        return np.zeros(3)
    a = np.linspace(iv.lo, iv.hi, n)
    z = y[None, :] + a[:, None] * (x - y)[None, :]
    return (x - y) * np.trapezoid(MOL.psi(z) * weight(a), a)


def test_alpha_support_half_pair():
    iv = alpha_support(X_HALF, Y_HALF, 0.9)
    assert not iv.empty
    assert iv.lo == pytest.approx(1.0, abs=1e-12)
    assert iv.hi == pytest.approx(1.4, abs=1e-12)
    mid = Y_HALF + iv.midpoint * (X_HALF - Y_HALF)
    assert np.linalg.norm(mid) < 0.9


def test_alpha_support_origin_pair():
    iv = alpha_support(X_HALF, Y_ORIGIN, 0.9)
    assert (iv.lo, iv.hi) == pytest.approx((1.0, 1.8), abs=1e-12)


def test_alpha_support_empty():
    iv = alpha_support(np.array([0.0, 0.0, 1.5]), np.array([0.0, 0.0, 1.2]), 0.9)
    assert iv.empty


def test_alpha_support_rejects_coincident():
    with pytest.raises(ValueError):
        alpha_support(X_HALF, X_HALF + 1e-16, 0.9)


def test_alpha_support_endpoints_on_support_sphere(rng):
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, 3)
        y = rng.uniform(-1.5, 1.5, 3)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        iv = alpha_support(x, y, 0.9)
        if iv.empty:
            continue
        d = x - y
        hi_pt = y + iv.hi * d
        assert MOL.psi(hi_pt) <= 1e-14
        assert abs(np.linalg.norm(hi_pt) - 0.9) < 1e-9
        if iv.lo > 1.0 + 1e-12:
            assert MOL.psi(y + iv.lo * d) <= 1e-14


def test_kernel_N_pinned_values():
    assert kernel_N(X_HALF, Y_HALF, MOL)[0] == pytest.approx(N_HALF_PAIR, rel=1e-12)
    assert kernel_N(X_HALF, Y_ORIGIN, MOL)[0] == pytest.approx(N_ORIGIN_PAIR, rel=1e-12)
    assert np.all(kernel_N(X_HALF, Y_ORIGIN, MOL)[1:] == 0.0)


def test_kernel_N_matches_dense_trapezoid():
    oracle = dense_trapezoid_N(X_HALF, Y_ORIGIN, lambda a: a * (a - 1.0))
    val = kernel_N(X_HALF, Y_ORIGIN, MOL)
    assert val[0] == pytest.approx(oracle[0], rel=1e-10)


def test_kernel_N_tilde_matches_dense_trapezoid():
    oracle = dense_trapezoid_N(X_HALF, Y_ORIGIN, lambda a: a * a)
    val = kernel_N_tilde(X_HALF, Y_ORIGIN, MOL)
    assert val[0] == pytest.approx(oracle[0], rel=1e-10)
    assert val[0] == pytest.approx(NT_ORIGIN_PAIR, rel=1e-12)
    assert kernel_N_tilde(X_HALF, Y_HALF, MOL)[0] == pytest.approx(NT_HALF_PAIR, rel=1e-12)


def test_kernel_zero_when_ray_misses_bump():
    # forward ray from x through x - y leaves the support ball entirely
    x = np.array([3.0, 0.0, 0.0])
    y = np.array([0.5, 0.0, 0.0])
    assert np.all(kernel_N(x, y, MOL) == 0.0)
    assert np.all(kernel_N_tilde(x, y, MOL) == 0.0)
    assert np.all(grad_kernel_N(x, y, MOL) == 0.0)
    assert np.all(kernel_aux(x, y, MOL) == 0.0)


def test_kernel_sign_follows_direction(rng):
    # alpha^2 and alpha(alpha-1) weights are nonnegative on [1, inf)
    hits = 0
    for _ in range(200):
        y = rng.uniform(-0.6, 0.6, 3)
        x = y + rng.uniform(-1.0, 1.0, 3)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        iv = alpha_support(x, y, MOL.support_radius)
        if iv.empty:
            continue
        hits += 1
        d = x - y
        for v in (kernel_N(x, y, MOL), kernel_N_tilde(x, y, MOL)):
            assert np.all(v * d >= -1e-17)
    assert hits > 50


def test_kernel_gl_convergence():
    for y in (Y_HALF, Y_ORIGIN, np.array([0.2, -0.4, 0.1])):
        v16 = kernel_N(X_HALF, y, MOL, n_alpha=16)
        v32 = kernel_N(X_HALF, y, MOL, n_alpha=32)
        assert np.max(np.abs(v32 - v16)) < 1e-10


def test_kernel_linear_in_bump_amplitude():
    doubled = Mollifier()
    object.__setattr__(doubled, "_c", 2.0 * doubled.normalization)
    base = kernel_N(X_HALF, Y_ORIGIN, MOL)
    assert np.allclose(kernel_N(X_HALF, Y_ORIGIN, doubled), 2.0 * base, rtol=0.0, atol=0.0)


def _dense_N_in_form(x, y, form, n=128):
    """N(x, y) by plain Gauss-Legendre in one of three line
    parameterizations, written out here from the definition:

    alpha: the segment parameter alpha >= 1, weight alpha (alpha - 1)
    xi:    arc length from y, xi = alpha |d|, weight xi (xi - |d|) / |d|^3
    r:     arc length beyond x, r = xi - |d|, weight r (r + |d|) / |d|^3,
           bump evaluated at x + r u
    """
    d = x - y
    dn = np.linalg.norm(d)
    u = d / dn
    iv = alpha_support(x, y, MOL.support_radius)
    base, direction, lo, hi, weight, divisor = {
        "alpha": (y, d, iv.lo, iv.hi, lambda a: a * (a - 1.0), 1.0),
        "xi": (y, u, iv.lo * dn, iv.hi * dn, lambda s: s * (s - dn), dn**3),
        "r": (x, u, (iv.lo - 1.0) * dn, (iv.hi - 1.0) * dn,
              lambda s: s * (s + dn), dn**3),
    }[form]
    t, w = gauss_legendre(n)
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    psi_vals = MOL.psi(base[None, :] + s[:, None] * direction[None, :])
    return d * (0.5 * (hi - lo) * np.sum(w * psi_vals * weight(s)) / divisor)


@pytest.mark.parametrize("form", ["alpha", "xi", "r"])
def test_forms_agree_at_reference_pair(form):
    # the graded rule and the dense reference rule against N written out
    # in each parameterization of its line integral
    x = np.array([0.5, 0.2, 0.0])
    y = np.array([-0.1, 0.0, 0.1])
    assert not alpha_support(x, y, MOL.support_radius).empty
    val = _dense_N_in_form(x, y, form)
    for kernel in (kernel_N, kernel_N_reference):
        base = kernel(x, y, MOL)
        assert np.max(np.abs(val - base)) <= 1e-9 * np.max(np.abs(base))


def test_forms_empty_support():
    x = np.array([0.0, 0.0, 1.5])
    y = np.array([0.0, 0.0, 1.2])
    assert np.all(kernel_N_reference(x, y, MOL) == 0.0)


def test_graded_rule_matches_dense_reference_on_many_pairs():
    # 20,000 pairs per seed with |x - y| log-uniform in [1e-3, 3].  Over
    # seeds 0-19 the worst reads 3.4e-14, and 8.7e-15 on rows with x inside
    # the bump's edge |x| = 0.9, where the cut at alpha = 1 can sit next to
    # a support root.  The dense rule agrees with a 512-node one to 3e-15
    # at each seed's worst.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 20_000
        xs = sample_interior(ball(2.0), n, rng)
        s = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), n))
        ys = xs + s[:, None] * sample_directions(n, rng)
        graded = kernel_N(xs, ys, MOL)
        dense = kernel_N_reference(xs, ys, MOL)
        assert np.count_nonzero(np.any(dense != 0.0, axis=-1)) >= 2_000
        err = np.max(np.abs(graded - dense))
        assert err <= 1e-13 * np.max(np.abs(dense)), seed


def test_grad_kernel_empty_pair_zero():
    g = grad_kernel_N(np.array([0.0, 0.0, 1.5]), np.array([0.0, 0.0, 1.2]), MOL)
    assert np.all(g == 0.0)


def _fd_grad(x, y, h):
    J = np.empty((3, 3))
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        J[:, m] = (kernel_N(x + e, y, MOL) - kernel_N(x - e, y, MOL)) / (2 * h)
    return J


def test_grad_kernel_matches_richardson_fd(rng):
    # one Richardson step of the central difference certifies the analytic
    # gradient to 1e-6 relative across two decades of separations
    n = 200
    seed_rng = np.random.default_rng(11)
    dom = ball(2.0)
    xs = sample_interior(dom, n, seed_rng)
    us = sample_directions(n, seed_rng)
    s = np.exp(seed_rng.uniform(np.log(0.1), np.log(3.0), n))
    ys = xs + s[:, None] * us
    worst = 0.0
    for x, y in zip(xs, ys):
        G = grad_kernel_N(x, y, MOL)
        R = (4.0 * _fd_grad(x, y, 1e-4) - _fd_grad(x, y, 2e-4)) / 3.0
        worst = max(worst, np.max(np.abs(G - R)) / max(1.0, np.max(np.abs(G))))
    assert worst <= 1e-6


def test_fd_converges_quadratically_to_analytic_gradient():
    # the hardest observed pair: error must drop ~100x per h decade, which
    # shows the finite difference converges to this gradient, not another
    e4 = np.max(np.abs(grad_kernel_N(HARD_X, HARD_Y, MOL) - _fd_grad(HARD_X, HARD_Y, 1e-4)))
    e5 = np.max(np.abs(grad_kernel_N(HARD_X, HARD_Y, MOL) - _fd_grad(HARD_X, HARD_Y, 1e-5)))
    assert 80.0 < e4 / e5 < 120.0
    assert e5 < 1e-4


def test_swap_identity(rng):
    # d/dx_m N_i + d/dy_m N_i equals the grad-psi kernel entry (i, m)
    h = 1e-5
    for _ in range(10):
        y = rng.uniform(-0.5, 0.5, 3)
        x = y + rng.uniform(0.4, 0.9) * sample_directions(1, rng)[0]
        gx = grad_kernel_N(x, y, MOL)
        aux = kernel_aux(x, y, MOL)
        gy = np.empty((3, 3))
        for m in range(3):
            e = np.zeros(3)
            e[m] = h
            gy[:, m] = (kernel_N(x, y + e, MOL) - kernel_N(x, y - e, MOL)) / (2 * h)
        scale = max(1.0, np.max(np.abs(gx)))
        assert np.max(np.abs(gx + gy - aux)) <= 1e-5 * scale


def test_aux_volume_integral_pinned():
    # integral of the grad-psi kernel over the circumscribed ball, fixed x;
    # stable under radial refinement and pinned as a regression value
    x0 = np.array([0.4, -0.1, 0.2])
    dom = ball(2.0)
    vals = []
    for nr in (32, 48):
        q = QuadratureConfig(n_rho=nr)
        vals.append(
            integrate_ball_singular(
                lambda y: kernel_aux(x0, y, MOL), x0, dom, q,
                support_radius=MOL.support_radius,
            )
        )
    assert np.max(np.abs(vals[1] - vals[0])) < 1e-8
    assert vals[1][0, 0] == pytest.approx(-4.81354121, rel=1e-6)
    assert vals[1][1, 1] == pytest.approx(-6.32924555, rel=1e-6)
    assert vals[1][2, 2] == pytest.approx(-6.02610468, rel=1e-6)
    assert np.all(np.isfinite(vals[1]))


def test_batched_x_matches_single_pairs(rng):
    # kernel_bound_check evaluates one x per row of y; each row must equal
    # the single-pair call bit for bit, in the graded and the dense rule
    xs = 0.5 * sample_interior(ball(2.0), 60, rng)
    ys = xs + rng.uniform(0.05, 1.5, (60, 1)) * sample_directions(60, rng)
    for kernel in (kernel_N, grad_kernel_N, kernel_N_reference):
        batch = kernel(xs, ys, MOL)
        single = np.stack([kernel(x, y, MOL) for x, y in zip(xs, ys)])
        assert batch.shape == single.shape
        assert np.array_equal(batch, single)
        assert np.count_nonzero(np.any(single != 0.0, axis=-1)) >= 30
        # a batch of x needs a batch of y of the same shape
        with pytest.raises(ValueError):
            kernel(xs, ys[0], MOL)
        with pytest.raises(ValueError):
            kernel(xs[:3], ys[:2], MOL)


def test_bound_check_stable_under_doubling():
    dom = ball(2.0)
    a = kernel_bound_check(dom, MOL, n_pairs=20_000, seed=3)
    b = kernel_bound_check(dom, MOL, n_pairs=40_000, seed=3)
    assert 0.0 < a["C_emp"] < np.inf
    assert b["C_emp"] / a["C_emp"] < 2.0
    x, y, sep = b["worst_pair"]
    assert np.max(np.abs(kernel_N(x, y, MOL))) * sep**2 == pytest.approx(b["C_emp"], rel=1e-9)


def test_bound_check_gradient_law():
    dom = ball(2.0)
    out = kernel_bound_check(dom, MOL, n_pairs=10_000, seed=3, kernel="grad",
                             sep_range=(1e-3, 1e-1))
    assert np.isfinite(out["C_emp"])
    assert out["C_emp"] > 0.0


def test_bound_check_scales_with_amplitude():
    dom = ball(2.0)
    doubled = Mollifier()
    object.__setattr__(doubled, "_c", 2.0 * doubled.normalization)
    a = kernel_bound_check(dom, MOL, n_pairs=5_000, seed=7)
    b = kernel_bound_check(dom, doubled, n_pairs=5_000, seed=7)
    assert b["C_emp"] == pytest.approx(2.0 * a["C_emp"], rel=1e-12)


def test_bound_check_rejections():
    with pytest.raises(ValueError):
        kernel_bound_check(ball(2.0), MOL, n_pairs=0)
    with pytest.raises(ValueError):
        kernel_bound_check(ball(2.0), MOL, n_pairs=10, kernel="hessian")


@given(st.floats(min_value=0.05, max_value=1.3), st.floats(min_value=-1.0, max_value=1.0))
def test_kernel_parallel_to_direction(sep, off):
    x = np.array([off, 0.1, 0.0])
    y = x - np.array([sep, 0.0, 0.0])
    v = kernel_N(x, y, MOL)
    # d points along e1, so components 2 and 3 vanish identically
    assert v[1] == 0.0 and v[2] == 0.0

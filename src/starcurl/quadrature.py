"""Quadrature rules: Gauss-Legendre intervals, product sphere rules, and the
polar-coordinate ball integrator that removes the |x-y|^-2 kernel singularity.

The ball integrator writes

    int_{B_R} f(y) dy = int_{S^2} int_0^{rho_max(u)} f(x + rho u) rho^2 drho du

with polar coordinates centered at the evaluation point x, inside the
domain (outside it the operators return their exact zero first).  The
rho^2 Jacobian cancels the kernel's quadratic blow-up, so the radial
integrand stays bounded along every ray.  Each ray is cut into Gauss-
Legendre panels at its domain boundary crossings (one ``ray_segments``
call for all rays, several crossings where a ray leaves a radial table and
comes back) and at caller-supplied break radii.  Only panels of positive
width get nodes, and an integrand zero outside the domain gets none there.

A mollifier-generated kernel at x vanishes on every ray whose backward
extension misses its support B(0, r_s).  ``support_caps`` gives the caps,
centred on x/|x|, where it can be nonzero: for |x| > r_s the one cap
v . x/|x| >= sqrt(1 - (r_s/|x|)^2); for |x| <= r_s the whole sphere, split
into a front and a back cap at v . x = 0, where the kernels turn.  Each
cap gets the full product rule, which resolves the kernels just inside r_s.

Surface integrals over an ellipsoid (semi-axes a) use the same rays: one
leaving a centre c along v exits at y = c + rho v, where the outward normal
is nu ~ y / a^2, and its solid-angle weight w becomes w rho^2 / (v . nu).
Seen from x, a sphere (three equal semi-axes) keeps c = 0 and its caps,
which gain from cancellation; any other ellipsoid takes c = x and the
direction caps, as the patch x sees on it is no origin cap.  A box face
seen from x is integrated in the two angles of its points about x, which
puts the nodes where the kernels at x vary fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import StarDomain, contains, ray_segments

__all__ = [
    "QuadratureConfig",
    "SphereRule",
    "gauss_legendre",
    "sphere_rule",
    "sphere_rule_from_count",
    "ball_radius",
    "cap_nodes",
    "support_caps",
    "integrate_ball_singular",
    "integrate_sphere_surface",
    "integrate_sphere_cap",
    "surface_cap_cosine",
    "boundary_quadrature",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Budget knobs for every integral in the package.

    n_alpha:      Gauss-Legendre nodes per panel of the inner line integrals
    n_rho:        radial nodes per ray sub-segment of the ball integrator
    sphere_nodes: node count of the product sphere rule for volume integrals
    n_surface:    node count of the sphere rule for surface integrals
    """

    n_alpha: int = 16
    n_rho: int = 32
    sphere_nodes: int = 266
    n_surface: int = 590

    def __post_init__(self):
        for name in ("n_alpha", "n_rho", "sphere_nodes", "n_surface"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")


@dataclass(frozen=True)
class SphereRule:
    """Product rule on S^2: Gauss-Legendre in cos(theta) x uniform trapezoid
    in phi.  Exact for spherical harmonics Y_l^m with
    l <= min(2 n_polar - 1, n_azimuth - 1)."""

    n_polar: int
    n_azimuth: int
    points: np.ndarray   # (n, 3) unit vectors
    weights: np.ndarray  # (n,), sum = 4 pi


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1].  Treat as read-only."""
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def sphere_rule(n_polar: int, n_azimuth: int) -> SphereRule:
    if n_polar < 1 or n_azimuth < 1:
        raise ValueError("sphere rule needs at least one node per factor")
    ct, wt = gauss_legendre(n_polar)
    ph = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    pts = np.empty((n_polar * n_azimuth, 3))
    pts[:, 0] = np.outer(st, np.cos(ph)).ravel()
    pts[:, 1] = np.outer(st, np.sin(ph)).ravel()
    pts[:, 2] = np.outer(ct, np.ones_like(ph)).ravel()
    w = np.outer(wt, np.full(n_azimuth, 2.0 * np.pi / n_azimuth)).ravel()
    return SphereRule(n_polar, n_azimuth, pts, w)


def sphere_rule_from_count(n: int) -> SphereRule:
    """Pick the divisor pair (n_polar, n_azimuth) of n closest to the 1:2
    aspect of an equal-resolution product rule.  266 -> 14 x 19,
    590 -> 10 x 59.  Counts with no balanced factorization (primes, 2*prime)
    fall back to the nearest feasible product, possibly a few nodes off n;
    a lopsided exact split like 2 x 727 would waste the whole budget on one
    factor."""
    best = None
    for p in range(3, int(math.isqrt(n)) + 1):
        if n % p:
            continue
        a = n // p
        if a < 4 or a > 6 * p:
            continue
        score = abs(a - 2 * p)
        if best is None or score < best[0]:
            best = (score, p, a)
    if best is None:
        p = max(3, round(math.sqrt(n / 2.0)))
        a = max(4, math.ceil(n / p))
        return sphere_rule(p, a)
    return sphere_rule(best[1], best[2])


def ball_radius(domain: StarDomain) -> float:
    """Radius of B_R, 1.05 times the circumradius: B_R holds the domain's closure."""
    return 1.05 * domain.circumradius


def _orthonormal_frame(axis: np.ndarray):
    a = axis / np.linalg.norm(axis)
    e = np.zeros(3)
    e[int(np.argmin(np.abs(a)))] = 1.0
    e1 = np.cross(a, e)
    e1 /= np.linalg.norm(e1)
    return a, e1, np.cross(a, e1)


def cap_nodes(axis, mu_min: float, n_polar: int, n_azimuth: int):
    """Product rule on the spherical cap {v : v . axis >= mu_min}: Gauss-
    Legendre in the cosine against the axis, uniform trapezoid around it.
    Weights sum to the cap area 2 pi (1 - mu_min)."""
    if not -1.0 <= mu_min < 1.0:
        raise ValueError("mu_min must lie in [-1, 1)")
    a, e1, e2 = _orthonormal_frame(np.asarray(axis, dtype=float))
    t, wt = gauss_legendre(n_polar)
    mu = 0.5 * (1.0 + mu_min) + 0.5 * (1.0 - mu_min) * t
    ph = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    s = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    dirs = (mu[:, None, None] * a
            + (s[:, None] * np.cos(ph))[..., None] * e1
            + (s[:, None] * np.sin(ph))[..., None] * e2)
    w = np.outer(0.5 * (1.0 - mu_min) * wt,
                 np.full(n_azimuth, 2.0 * np.pi / n_azimuth))
    return dirs.reshape(-1, 3), w.ravel()


def support_caps(x, support_radius: float, radius: float | None = None):
    """(axis, cosine) pairs for ``cap_nodes``: the caps of ray directions
    (``radius`` None) or of the sphere |y| = radius through which the kernels
    at x see the bump B(0, support_radius).  Beyond the support, the one cap
    outside which they vanish; inside it, a front and a back cap meeting at
    the turning cosine (0, or |x|/radius).  At x = 0 the axis is e_3."""
    x = np.asarray(x, dtype=float)
    rx = float(np.linalg.norm(x))
    axis = x / rx if rx > 0.0 else np.array([0.0, 0.0, 1.0])
    if rx > support_radius:
        if radius is None:
            return [(axis, math.sqrt(1.0 - (support_radius / rx) ** 2))]
        return [(axis, surface_cap_cosine(rx, support_radius, radius))]
    turn = 0.0 if radius is None else rx / radius
    return [(axis, turn), (-axis, -turn)]


def integrate_ball_singular(f, x, domain: StarDomain, cfg: QuadratureConfig,
                            extra_breaks=(), support_radius=None,
                            zero_outside_domain=False):
    """Integrate f over B_R (R = ball_radius(domain)) in polar coordinates
    centered at a point x inside the domain; any other x is a ValueError.

    ``f`` maps an (n, 3) array of points to an (n, ...) array of values; the
    trailing shape of the result matches f's trailing shape.  Each ray is
    split at every domain boundary crossing and at ``extra_breaks``: radii
    (distances from x) where the radial integrand has reduced smoothness,
    e.g. the seams of the regularizing cutoff.

    ``support_radius`` declares that f vanishes on every ray whose backward
    extension misses the ball B(0, support_radius) (true for all the
    mollifier-generated kernels); the angular nodes then go on the caps of
    ``support_caps``, with f evaluated once per cap.  ``zero_outside_domain``
    declares that f vanishes outside the domain (a zero-extended field), so
    only the panels inside it get nodes.  Both restrictions are lossless.
    """
    x = np.asarray(x, dtype=float)
    if not contains(domain, x):
        raise ValueError("evaluation point must lie inside the domain")
    r_ball = ball_radius(domain)
    rule = sphere_rule_from_count(cfg.sphere_nodes)
    caps = ([(rule.points, rule.weights)] if support_radius is None else
            [cap_nodes(axis, mu, rule.n_polar, rule.n_azimuth)
             for axis, mu in support_caps(x, support_radius)])
    total = 0.0
    for u, dw in caps:
        y, w = _ray_nodes(x, domain, cfg, u, dw, r_ball, extra_breaks,
                          zero_outside_domain)
        total = total + np.tensordot(w, np.asarray(f(y)), axes=1)
    return total


def _ray_nodes(x, domain, cfg, u, dw, r_ball, extra_breaks,
               zero_outside_domain):
    """Nodes and weights of the polar rule along the unit directions ``u``,
    as a flattened (panel, node) array.  Zero-width panels (padded crossings,
    breaks beyond the exit from B_R) get no nodes, nor, with
    ``zero_outside_domain``, do the panels outside the domain."""
    xu = u @ x
    rho_exit = -xu + np.sqrt(xu * xu + r_ball * r_ball - float(x @ x))
    cross = ray_segments(domain, x, u, rho_exit)
    cols = [np.zeros((u.shape[0], 1)), cross]
    for b in extra_breaks:
        cols.append(np.clip(float(b), 0.0, rho_exit)[:, None])
    cols.append(rho_exit[:, None])
    edges = np.sort(np.concatenate(cols, axis=1), axis=1)   # (n_ray, k+1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = hi > lo
    if zero_outside_domain:
        # a ray starts inside and changes side at each crossing (padding is
        # past every panel)
        n_before = np.sum(cross[:, None, :] < 0.5 * (lo + hi)[..., None], axis=2)
        keep &= n_before % 2 == 0
    ray = np.nonzero(keep)[0]
    t, wg = gauss_legendre(cfg.n_rho)
    half = 0.5 * (hi[keep] - lo[keep])                # (n_panel,)
    mid = 0.5 * (hi[keep] + lo[keep])
    rho = mid[:, None] + half[:, None] * t            # (n_panel, n_rho)
    w_rad = half[:, None] * wg * rho * rho
    w = (dw[ray][:, None] * w_rad).ravel()
    y = x + rho[..., None] * u[ray][:, None, :]
    return y.reshape(-1, 3), w


def integrate_sphere_surface(f, radius: float, rule: SphereRule):
    """Integral over the sphere |y| = radius; f(y, nu) receives the points and
    the outward unit normals nu = y/radius."""
    y = radius * rule.points
    vals = np.asarray(f(y, rule.points))
    return radius * radius * np.tensordot(rule.weights, vals, axes=1)


def integrate_sphere_cap(f, radius: float, axis, cos_beta: float,
                         n_polar: int, n_azimuth: int):
    """Integral over the cap {|y| = radius, y . axis >= radius cos_beta}.
    Same calling convention as integrate_sphere_surface."""
    nu, w = cap_nodes(axis, cos_beta, n_polar, n_azimuth)
    vals = np.asarray(f(radius * nu, nu))
    return radius * radius * np.tensordot(w, vals, axes=1)


def surface_cap_cosine(rx: float, r_support: float, radius: float) -> float:
    """Angular radius of the patch of the sphere |y| = radius that can reach
    the support ball B(0, r_support) along rays through a point at distance
    rx from the origin (rx > r_support).  Points y outside the cap
    {y . x/rx >= radius * cos_beta} contribute nothing to the line-integral
    kernels evaluated at x."""
    q = math.sqrt(rx * rx - r_support * r_support)
    c = (r_support * r_support
         + q * math.sqrt(radius * radius - r_support * r_support)) / (radius * rx)
    return min(c, 1.0 - 1e-12)


def boundary_quadrature(domain: StarDomain, n: int, x=None, support_radius=None):
    """Quadrature for integrals over the domain boundary: (points, weights,
    normals) with positive weights and outward unit normals, so that
    sum w_i h(y_i, nu_i) approximates the surface integral of h.

    Ellipsoids take the ray exits of the module docstring, from the origin
    over the whole sphere (n-node product rule) or, given ``x`` and
    ``support_radius``, over the caps of support_caps through which the
    kernels at x see the bump.  A box gets an m x m Gauss-Legendre rule on
    each face, m = round(sqrt(n / 6)): over the face itself, or, given
    ``x``, over the two angles seen from x, y_i = x_i + d tan(alpha) at
    distance d > 0 from the face's plane.  A given ``x`` must lie inside the
    domain (ValueError otherwise), so every ray and every face gets nodes.
    Tabulated radial shapes carry no closed-form surface element and are
    not supported.
    """
    if x is not None and not contains(domain, x):
        raise ValueError("surface rule seen from a point outside the domain")
    if domain.kind == "ellipsoid":
        a = np.asarray(domain.params, dtype=float)
        rule = sphere_rule_from_count(n)
        c, caps = np.zeros(3), [(rule.points, rule.weights)]
        if x is not None and support_radius is not None:
            from_x = not a[0] == a[1] == a[2]
            c = np.asarray(x, dtype=float) if from_x else c
            caps = [cap_nodes(axis, mu, rule.n_polar, rule.n_azimuth) for axis, mu
                    in support_caps(x, support_radius, None if from_x else a[0])]
        v = np.concatenate([u for u, _ in caps])
        dw = np.concatenate([w for _, w in caps])
        rho = ray_segments(domain, c, v, np.full(len(v), domain.diameter))[:, 0]
        y = c + rho[:, None] * v
        nu = y / (a * a)
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        return y, dw * rho * rho / np.einsum("ij,ij->i", v, nu), nu
    if domain.kind == "box":
        h = np.asarray(domain.params, dtype=float)
        m = max(2, round(math.sqrt(n / 6.0)))
        t, wg = gauss_legendre(m)
        c = np.zeros(3) if x is None else np.asarray(x, dtype=float)

        def side(i, d):
            """Nodes and weights along face coordinate i, at distance d."""
            if x is None:
                return h[i] * t, h[i] * wg
            lo, hi = np.arctan((-h[i] - c[i]) / d), np.arctan((h[i] - c[i]) / d)
            alpha = 0.5 * (hi + lo) + 0.5 * (hi - lo) * t
            return c[i] + d * np.tan(alpha), 0.5 * (hi - lo) * wg * d / np.cos(alpha) ** 2

        pts, ws, nus = [], [], []
        for axis in range(3):
            i, j = (axis + 1) % 3, (axis + 2) % 3
            for sgn in (-1.0, 1.0):
                d = h[axis] - sgn * c[axis]
                (yi, wi), (yj, wj) = side(i, d), side(j, d)
                face = np.empty((m, m, 3))
                face[..., axis] = sgn * h[axis]
                face[..., i], face[..., j] = yi[:, None], yj[None, :]
                pts.append(face.reshape(-1, 3))
                ws.append(np.outer(wi, wj).ravel())
                nus.append(np.tile(sgn * np.eye(3)[axis], (m * m, 1)))
        return np.concatenate(pts), np.concatenate(ws), np.concatenate(nus)
    raise NotImplementedError("no surface rule, and so no flux term T[g . nu], "
                              "for tabulated radial shapes")

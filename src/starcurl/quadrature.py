"""Quadrature rules: Gauss-Legendre intervals, product sphere rules, and the
polar-coordinate ball integrator that removes the |x-y|^-2 kernel singularity.

The ball integrator writes

    int_{B_R} f(y) dy = int_{S^2} int_0^{rho_max(u)} f(x + rho u) rho^2 drho du

with polar coordinates centered at the evaluation point x.  The rho^2
Jacobian cancels the kernel's quadratic blow-up, so the radial integrand
stays bounded along every ray.  Each ray's radial integral is split at the
domain boundary crossings (zero-extended fields jump there) plus any
caller-supplied break radii, with a fixed-order Gauss-Legendre panel per
sub-segment.  One ``geometry.ray_segments`` call gives the crossings of
all rays for every domain kind, several per ray where a ray leaves a radial
table and re-enters it, so the nodes form (ray, panel, node) arrays.

When the integrand is generated by a mollifier supported in B(0, r_s) and
the evaluation point has |x| > r_s, the line-integral kernels vanish except
for rays whose backward extension meets that support ball, i.e. directions
v with v . x/|x| >= sqrt(1 - (r_s/|x|)^2).  Spreading a fixed angular budget
over the full sphere then wastes almost all nodes; passing
``support_radius`` concentrates the same budget on exactly the contributing
cap, which is what keeps far-from-center evaluations at full accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import StarDomain, ray_segments

__all__ = [
    "QuadratureConfig",
    "SphereRule",
    "gauss_legendre",
    "sphere_rule",
    "sphere_rule_from_count",
    "ball_radius",
    "cap_nodes",
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
    r_factor:     B_R radius as a multiple of the domain circumradius
    """

    n_alpha: int = 16
    n_rho: int = 32
    sphere_nodes: int = 266
    n_surface: int = 590
    r_factor: float = 1.05

    def __post_init__(self):
        for name in ("n_alpha", "n_rho", "sphere_nodes", "n_surface"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if not self.r_factor > 1.0:
            raise ValueError("r_factor must exceed 1 so that the closure of the "
                             "domain lies inside B_R")


@dataclass(frozen=True)
class SphereRule:
    """Product rule on S^2: Gauss-Legendre in cos(theta) x uniform trapezoid
    in phi.  Exact for spherical harmonics Y_l^m with l <= degree."""

    n_polar: int
    n_azimuth: int
    points: np.ndarray   # (n, 3) unit vectors
    weights: np.ndarray  # (n,), sum = 4 pi
    degree: int


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
    degree = min(2 * n_polar - 1, n_azimuth - 1)
    return SphereRule(n_polar, n_azimuth, pts, w, degree)


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


def ball_radius(domain: StarDomain, cfg: QuadratureConfig) -> float:
    return cfg.r_factor * domain.circumradius


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


def integrate_ball_singular(f, x, domain: StarDomain, cfg: QuadratureConfig,
                            extra_breaks=(), support_radius=None):
    """Integrate f over B_R (R = r_factor * circumradius) in polar coordinates
    centered at x.

    ``f`` maps an (n, 3) array of points to an (n, ...) array of values; the
    trailing shape of the result matches f's trailing shape.  Each ray is
    split at every domain boundary crossing and at ``extra_breaks``: radii
    (distances from x) where the radial integrand has reduced smoothness,
    e.g. the seams of the regularizing cutoff.

    ``support_radius`` declares that f vanishes on every ray whose backward
    extension misses the ball B(0, support_radius) (true for all the
    mollifier-generated kernels).  For |x| beyond that radius the angular
    nodes are then placed on the exact contributing cap instead of the whole
    sphere; the restriction is lossless, not an approximation.
    """
    x = np.asarray(x, dtype=float)
    r_ball = ball_radius(domain, cfg)
    if float(x @ x) >= r_ball * r_ball:
        raise ValueError("evaluation point must lie strictly inside B_R")
    rule = sphere_rule_from_count(cfg.sphere_nodes)
    dirs, dw = rule.points, rule.weights
    rx = float(np.linalg.norm(x))
    if support_radius is not None and rx > support_radius:
        mu_min = math.sqrt(1.0 - (support_radius / rx) ** 2)
        dirs, dw = cap_nodes(x / rx, mu_min, rule.n_polar, rule.n_azimuth)
    y, w = _ray_nodes(x, domain, cfg, dirs, dw, r_ball, extra_breaks)
    vals = np.asarray(f(y))
    return np.tensordot(w, vals, axes=1)


def _ray_nodes(x, domain, cfg, u, dw, r_ball, extra_breaks):
    """Nodes and weights of the polar rule along the unit directions ``u``,
    built as (ray, panel, node) arrays and flattened.  Padded crossings and
    breaks beyond a ray's exit from B_R give zero-width panels of weight 0."""
    xu = u @ x
    rho_exit = -xu + np.sqrt(xu * xu + r_ball * r_ball - float(x @ x))

    cols = [np.zeros((u.shape[0], 1)), ray_segments(domain, x, u, rho_exit)]
    for b in extra_breaks:
        cols.append(np.clip(float(b), 0.0, rho_exit)[:, None])
    cols.append(rho_exit[:, None])
    edges = np.sort(np.concatenate(cols, axis=1), axis=1)   # (n_ray, k+1)

    t, wg = gauss_legendre(cfg.n_rho)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])       # (n_ray, k)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    rho = mid[..., None] + half[..., None] * t        # (n_ray, k, n_rho)
    w_rad = half[..., None] * wg * rho * rho
    w = (dw[:, None, None] * w_rad).ravel()
    y = x[None, None, None, :] + rho[..., None] * u[:, None, None, :]
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
    """Quadrature for integrals over the domain boundary.

    Returns (points, weights, normals): m boundary points, positive weights
    summing to the surface area, and outward unit normals, so that
    sum w_i h(y_i, nu_i) approximates the surface integral of h.

    For ball domains, passing the evaluation point ``x`` together with the
    ``support_radius`` of the mollifier restricts the rule to the exact
    spherical cap that the kernels can see from x (cf. cap_nodes); elsewhere
    both are ignored.  Tabulated radial shapes carry no closed-form surface
    element and are not supported here.
    """
    if domain.kind == "ball":
        r0 = float(domain.params[0])
        if x is not None and support_radius is not None:
            rx = float(np.linalg.norm(np.asarray(x, dtype=float)))
            if rx > support_radius:
                rule = sphere_rule_from_count(n)
                cb = surface_cap_cosine(rx, support_radius, r0)
                nu, w = cap_nodes(np.asarray(x) / rx, cb,
                                  rule.n_polar, rule.n_azimuth)
                return r0 * nu, r0 * r0 * w, nu
        rule = sphere_rule_from_count(n)
        return r0 * rule.points, r0 * r0 * rule.weights, rule.points
    if domain.kind == "ellipsoid":
        a = np.asarray(domain.params, dtype=float)
        rule = sphere_rule_from_count(n)
        u = rule.points
        nvec = u / a                     # gradient direction of the level set
        norms = np.linalg.norm(nvec, axis=1)
        pts = u * a
        w = float(np.prod(a)) * norms * rule.weights
        return pts, w, nvec / norms[:, None]
    if domain.kind == "box":
        h = np.asarray(domain.params, dtype=float)
        m = max(2, round(math.sqrt(n / 6.0)))
        t, wg = gauss_legendre(m)
        pts, ws, nus = [], [], []
        for axis in range(3):
            i, j = (axis + 1) % 3, (axis + 2) % 3
            a2, b2 = (h[i] * t)[:, None], (h[j] * t)[None, :]
            wij = (h[i] * h[j] * np.outer(wg, wg)).ravel()
            for sgn in (-1.0, 1.0):
                face = np.empty((m * m, 3))
                face[:, axis] = sgn * h[axis]
                face[:, i] = np.broadcast_to(a2, (m, m)).ravel()
                face[:, j] = np.broadcast_to(b2, (m, m)).ravel()
                nu = np.zeros((m * m, 3))
                nu[:, axis] = sgn
                pts.append(face)
                ws.append(wij)
                nus.append(nu)
        return np.concatenate(pts), np.concatenate(ws), np.concatenate(nus)
    raise NotImplementedError("surface quadrature for tabulated radial shapes "
                              "is not provided")

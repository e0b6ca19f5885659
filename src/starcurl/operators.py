"""The integral operators: curl inverse R, its smooth truncation, the
divergence inverse B, the analytic gradient of R, and diagnostic identities.

R produces a vector potential of a solenoidal field with zero boundary
values,

    (Rg)(x) = int_Omega g(y) x N(x, y) dy,

built from the line-integral kernel N of the mollifier.  Because every ray
in the kernel construction points away from the domain when x is outside,
Rg vanishes identically there, and it tends to zero at the boundary from
inside.

The reproduction identity certified by this package is

    curl(Rg)(x) = g(x) - B[div g](x) + T[g . nu](x),        x in Omega,

where B is the divergence inverse and T integrates the normal flux of g
over the boundary against B's kernel.  Both correction terms vanish exactly
when g is solenoidal and tangent to the boundary (in particular when g is
compactly supported inside the domain), and then curl(Rg) = g.  See
boundary_flux_term for T, and residual_identity for the diagnostic
curl(Rg) - g + B[div g], which leaves exactly the flux term.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import VectorField
from .geometry import StarDomain, contains, radial_gap
from .kernels import LEVI_CIVITA, _grad_kernels, kernel_N, kernel_N_tilde
from .quadrature import (QuadratureConfig, ball_radius, boundary_quadrature,
                         integrate_ball_singular, integrate_sphere_cap,
                         sphere_rule_from_count, support_caps)
# not called here; perfbench's tracer wraps them under these names
from .kernels import grad_kernel_N, kernel_aux  # noqa: E402,F401
from .quadrature import integrate_sphere_surface  # noqa: E402,F401
from .smoothing import Mollifier, eta

__all__ = [
    "CurlInverseOp",
    "FieldSampleGrid",
    "curl_inverse",
    "curl_inverse_eps",
    "bogovskii",
    "domain_integral",
    "grad_curl_inverse",
    "curl_of_curl_inverse",
    "residual_identity",
    "boundary_flux_term",
    "eval_grid",
]


@dataclass(frozen=True)
class CurlInverseOp:
    """Domain + mollifier + quadrature budget, with the bounding radius of
    the enclosing ball cached.  Immutable; evaluations at distinct points
    are independent."""

    domain: StarDomain
    mollifier: Mollifier = field(default_factory=Mollifier)
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.mollifier.support_radius > 1.0:
            raise ValueError("mollifier support must fit inside the unit ball "
                             "that the domain is star-shaped around")
        if self.domain.inradius <= 1.0:
            raise ValueError("domain must strictly contain the closed unit ball")

    @property
    def r_ball(self) -> float:
        return ball_radius(self.domain, self.quad)


def _as_point(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected a single 3-vector")
    return x


def curl_inverse(op: CurlInverseOp, g, x) -> np.ndarray:
    """Vector potential (Rg)(x) = int g(y) x N(x,y) dy over the domain.

    Points outside the domain short-circuit to (0,0,0); that is the exact
    value, not an approximation, and it skips the quadrature entirely.
    """
    x = _as_point(x)
    if not bool(contains(op.domain, x)):
        return np.zeros(3)
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(y):
        return np.cross(g(y), kernel_N(x, y, mol, n_alpha))

    return integrate_ball_singular(f, x, op.domain, op.quad,
                                   support_radius=mol.support_radius,
                                   zero_outside_domain=True)


def curl_inverse_eps(op: CurlInverseOp, g, x, eps: float) -> np.ndarray:
    """Smoothly truncated potential: the kernel is multiplied by a cutoff
    that kills |x-y| <= eps and is identity beyond 2 eps.  The integrand is
    then bounded near y = x; the cutoff seams are passed to the quadrature
    as radial break points."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    x = _as_point(x)
    if not bool(contains(op.domain, x)):
        return np.zeros(3)
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(y):
        r = np.linalg.norm(y - x, axis=-1)
        cut = eta(r / eps)
        return cut[:, None] * np.cross(g(y), kernel_N(x, y, mol, n_alpha))

    return integrate_ball_singular(f, x, op.domain, op.quad,
                                   extra_breaks=(eps, 2.0 * eps),
                                   support_radius=mol.support_radius,
                                   zero_outside_domain=True)


def domain_integral(op: CurlInverseOp, F, x=None) -> float:
    """Integral of a scalar field over the domain (zero-extended).  Used for
    the mean-zero diagnostic of the divergence inverse; the polar center
    defaults to the origin."""
    x = np.zeros(3) if x is None else _as_point(x)
    return float(integrate_ball_singular(F, x, op.domain, op.quad,
                                         zero_outside_domain=True))


def bogovskii(op: CurlInverseOp, F, x) -> np.ndarray:
    """Divergence inverse (BF)(x) = int F(y) Ntilde(x,y) dy: div(BF) = F in
    the domain and BF vanishes on the boundary, provided F has zero mean.
    The formula itself is evaluable for any F, so a nonzero mean only emits
    a warning; the div identity is what breaks, not the integral."""
    x = _as_point(x)
    if not bool(contains(op.domain, x)):
        return np.zeros(3)
    mean = domain_integral(op, F)
    sup = float(np.max(np.abs(F(_probe_points(op.domain)))))
    vol = 4.0 / 3.0 * np.pi * op.domain.inradius ** 3   # lower bound is enough
    if abs(mean) > 1e-6 * max(sup, 1e-300) * vol:
        warnings.warn("field passed to the divergence inverse has nonzero "
                      f"mean {mean:.3e}; div(BF) = F will not hold",
                      stacklevel=2)
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(y):
        return np.asarray(F(y))[:, None] * kernel_N_tilde(x, y, mol, n_alpha)

    return integrate_ball_singular(f, x, op.domain, op.quad,
                                   support_radius=mol.support_radius,
                                   zero_outside_domain=True)


def _probe_points(domain: StarDomain, n: int = 64):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (4 * n, 3)) * domain.circumradius
    pts = pts[contains(domain, pts)][:n]
    return pts if len(pts) else np.zeros((1, 3))


def _t3_surface(op: CurlInverseOp, x) -> np.ndarray:
    """Flux of the kernel through the enclosing sphere: the (i, m) matrix
    of  int N_i(x,y) nu_m(y) dsigma  over |y| = R, on the caps of the
    sphere that the kernels can see from x (quadrature.support_caps)."""
    mol, n_alpha = op.mollifier, op.quad.n_alpha
    R = op.r_ball
    rule = sphere_rule_from_count(op.quad.n_surface)

    def f(y, nu):
        N = kernel_N(x, y, mol, n_alpha)
        return N[:, :, None] * nu[:, None, :]

    return sum(integrate_sphere_cap(f, R, axis, cb, rule.n_polar, rule.n_azimuth)
               for axis, cb in support_caps(x, mol.support_radius, R))


def grad_curl_inverse(op: CurlInverseOp, g, x) -> np.ndarray:
    """Analytic Jacobian of the potential: entry (k, m) is d(Rg)^k/dx_m.

    Differentiating under the integral fails pointwise (the differentiated
    kernel is not integrable), so the value is one convergent volume
    integral over B_R, from one psi / grad psi pass, plus the flux of the
    kernel through the enclosing sphere.  The volume integrand is the kernel
    gradient against the zero-extended field minus g(x), which restores
    integrability, plus g(x) times the kernel of the x/y derivative swap.
    It jumps at the domain boundary, where the radial panels split.
    """
    x = _as_point(x)
    dom = op.domain
    if not bool(contains(dom, x)) or float(radial_gap(dom, x)) < 1e-6:
        raise ValueError("analytic gradient needs a strictly interior point")
    gx = np.asarray(g(x), dtype=float)
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(y):
        dN, aux = _grad_kernels(x, y, mol, n_alpha)      # (n, i, m) each
        dg = np.where(contains(dom, y)[:, None], np.asarray(g(y)), 0.0) - gx
        return (dg[:, :, None, None] * dN[:, None, :, :]
                + gx[None, :, None, None] * aux[:, None, :, :])   # (n, j, i, m)

    V = integrate_ball_singular(f, x, dom, op.quad,
                                support_radius=mol.support_radius)
    T = V - gx[:, None, None] * _t3_surface(op, x)[None, :, :]
    return -np.einsum("ijk,jim->km", LEVI_CIVITA, T)


def curl_of_curl_inverse(op: CurlInverseOp, g, x) -> np.ndarray:
    """curl(Rg) from the analytic Jacobian (antisymmetric contraction)."""
    G = grad_curl_inverse(op, g, x)
    return np.einsum("ilm,ml->i", LEVI_CIVITA, G)


def residual_identity(op: CurlInverseOp, g: VectorField, x) -> np.ndarray:
    """Diagnostic residual curl(Rg) - g + B[div g] at x.

    By the reproduction identity in the module docstring this is exactly
    the boundary flux term T[g . nu](x), up to quadrature error, for any
    field with a closed-form divergence.  It therefore vanishes when g is
    tangent to the boundary, whatever its divergence, and is otherwise the
    part of curl(Rg) - g that the divergence correction cannot remove;
    compare it with boundary_flux_term to close the decomposition.
    """
    if not isinstance(g, VectorField) or g.div is None:
        raise ValueError("residual needs a field with a closed-form divergence")
    x = _as_point(x)
    return (curl_of_curl_inverse(op, g, x) - np.asarray(g(x))
            + bogovskii(op, g.div, x))


def boundary_flux_term(op: CurlInverseOp, g, x) -> np.ndarray:
    """The boundary correction T[g . nu](x): the normal flux of g through
    the domain boundary, integrated against the divergence-inverse kernel.

    Together with B[div g] it accounts exactly for what curl(Rg) - g
    misses: the kernel construction cannot tell the field apart from its
    zero extension, whose distributional divergence carries a surface part
    -(g . nu) on the boundary in addition to div g inside.
    """
    x = _as_point(x)
    mol, n_alpha = op.mollifier, op.quad.n_alpha
    y, w, nu = boundary_quadrature(op.domain, op.quad.n_surface,
                                   x=x, support_radius=mol.support_radius)
    ev = g.eval if isinstance(g, VectorField) else g
    flux = np.einsum("ij,ij->i", np.asarray(ev(y)), nu)
    vals = flux[:, None] * kernel_N_tilde(x, y, mol, n_alpha)
    return np.tensordot(w, vals, axes=1)


@dataclass(frozen=True)
class FieldSampleGrid:
    """Axis-aligned lattice of potential samples.  values[i, j, k] is the
    vector at origin + (i, j, k) * spacing; points outside the domain are
    flagged and hold exact zeros."""

    origin: np.ndarray    # (3,)
    spacing: np.ndarray   # (3,)
    counts: tuple         # (nx, ny, nz)
    values: np.ndarray    # (nx, ny, nz, 3)
    inside: np.ndarray    # (nx, ny, nz) bool

    def points(self) -> np.ndarray:
        idx = np.stack(np.meshgrid(*(np.arange(c) for c in self.counts),
                                   indexing="ij"), axis=-1)
        return self.origin + idx * self.spacing


def eval_grid(op: CurlInverseOp, g, origin, spacing, counts,
              threads: int = 1) -> FieldSampleGrid:
    """Evaluate the potential on a lattice.  Outside points short-circuit;
    inside points fan out over a thread pool (each quadrature is
    independent), and results are written back by index, so the grid is
    identical for any thread count."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.asarray(spacing, dtype=float)
    counts = tuple(int(c) for c in counts)
    grid = FieldSampleGrid(origin, spacing, counts,
                           np.zeros(counts + (3,)),
                           np.zeros(counts, dtype=bool))
    pts = grid.points().reshape(-1, 3)
    ins = contains(op.domain, pts)
    grid.inside.ravel()[...] = ins
    todo = np.nonzero(ins)[0]

    def work(flat_idx):
        return flat_idx, curl_inverse(op, g, pts[flat_idx])

    flat_vals = grid.values.reshape(-1, 3)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            for flat_idx, v in ex.map(work, todo):
                flat_vals[flat_idx] = v
    else:
        for flat_idx in todo:
            flat_vals[flat_idx] = work(flat_idx)[1]
    return grid

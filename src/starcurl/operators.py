"""The integral operators: curl inverse R, its smooth truncation, the
divergence inverse B, the analytic gradient of R, and the boundary flux
term T.

R produces a vector potential of a solenoidal field with zero boundary
values,

    (Rg)(x) = int_Omega g(y) x N(x, y) dy,

built from the line-integral kernel N of the mollifier.  Because every ray
in the kernel construction points away from the domain when x is outside,
Rg vanishes identically there, and it tends to zero at the boundary from
inside.  R, its truncation and B integrate the zero-extended field through
one call, _zero_extended: it returns that exact zero outside the domain and
otherwise makes the one polar quadrature over the domain's panels, so each
operator supplies only its integrand(x, y).

The reproduction identity certified by this package is

    curl(Rg)(x) = g(x) - B[div g](x) + T[g . nu](x),        x in Omega,

where B is the divergence inverse and T integrates the normal flux of g
over the boundary against B's kernel, on boundary_quadrature's nodes as
seen from x; like R and B, T is exactly zero outside the domain.  Both
correction terms vanish exactly when g is solenoidal and tangent to the
boundary (in particular when g is compactly supported inside the domain),
and then curl(Rg) = g.  See boundary_flux_term for T;
verify.curl_reference assembles the right-hand side and verify.curl_check
certifies the identity.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import StarDomain, ball, contains, radial_gap
from .kernels import LEVI_CIVITA, _grad_kernels, kernel_N, kernel_N_tilde
from .quadrature import (QuadratureConfig, ball_radius, boundary_quadrature,
                         integrate_ball_singular)
# not called here, integrate_sphere_cap included (boundary_quadrature is the
# one surface rule); perfbench's tracer wraps them under these names
from .kernels import grad_kernel_N, kernel_aux  # noqa: E402,F401
from .quadrature import integrate_sphere_cap, integrate_sphere_surface  # noqa: E402,F401
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
    "boundary_flux_term",
    "eval_grid",
]


@dataclass(frozen=True)
class CurlInverseOp:
    """Domain + mollifier + quadrature budget.  Immutable; evaluations at
    distinct points are independent."""

    domain: StarDomain
    mollifier: Mollifier = field(default_factory=Mollifier)
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.mollifier.support_radius > 1.0:
            raise ValueError("mollifier support must fit inside the unit ball "
                             "that the domain is star-shaped around")
        if self.domain.inradius <= 1.0:
            raise ValueError("domain must strictly contain the closed unit ball")


def _as_point(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected a single 3-vector")
    return x


def _zero_extended(op: CurlInverseOp, x, integrand, extra_breaks=()):
    """int_Omega integrand(x, y) dy for a kernel integrand that vanishes
    wherever the field's zero extension does.  Points outside the domain
    short-circuit to (0,0,0); that is the exact value, not an
    approximation, and it skips the quadrature entirely."""
    x = _as_point(x)
    if not bool(contains(op.domain, x)):
        return np.zeros(3)
    return integrate_ball_singular(lambda y: integrand(x, y), x, op.domain,
                                   op.quad, extra_breaks=extra_breaks,
                                   support_radius=op.mollifier.support_radius,
                                   zero_outside_domain=True)


def curl_inverse(op: CurlInverseOp, g, x) -> np.ndarray:
    """Vector potential (Rg)(x) = int g(y) x N(x,y) dy over the domain;
    exactly zero outside it."""
    mol, n_alpha = op.mollifier, op.quad.n_alpha
    return _zero_extended(op, x, lambda x, y: np.cross(
        g(y), kernel_N(x, y, mol, n_alpha)))


def curl_inverse_eps(op: CurlInverseOp, g, x, eps: float) -> np.ndarray:
    """Smoothly truncated potential: the kernel is multiplied by a cutoff
    that kills |x-y| <= eps and is identity beyond 2 eps.  The integrand is
    then bounded near y = x; the cutoff seams are passed to the quadrature
    as radial break points."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(x, y):
        r = np.linalg.norm(y - x, axis=-1)
        cut = eta(r / eps)
        return cut[:, None] * np.cross(g(y), kernel_N(x, y, mol, n_alpha))

    return _zero_extended(op, x, f, extra_breaks=(eps, 2.0 * eps))


def domain_integral(op: CurlInverseOp, F, x=None) -> float:
    """Integral of a scalar field over the domain (zero-extended), e.g. the
    mean that the divergence inverse needs to vanish; the polar center x
    defaults to the origin and must lie inside the domain."""
    x = np.zeros(3) if x is None else _as_point(x)
    return float(integrate_ball_singular(F, x, op.domain, op.quad,
                                         zero_outside_domain=True))


def bogovskii(op: CurlInverseOp, F, x) -> np.ndarray:
    """Divergence inverse (BF)(x) = int F(y) Ntilde(x,y) dy: div(BF) = F in
    the domain and BF vanishes on the boundary, provided F has zero mean.
    The formula itself is evaluable for any F; verify.div_check reports
    the mean next to the identity it conditions.  The kernel is evaluated
    only where F(y) != 0; the other nodes contribute exact zeros."""
    mol, n_alpha = op.mollifier, op.quad.n_alpha

    def f(x, y):
        Fy = np.asarray(F(y))
        out, nz = np.zeros((len(y), 3)), Fy != 0.0
        out[nz] = Fy[nz, None] * kernel_N_tilde(x, y[nz], mol, n_alpha)
        return out

    return _zero_extended(op, x, f)


def _t3_surface(op: CurlInverseOp, x) -> np.ndarray:
    """Flux of the kernel through the enclosing sphere |y| = R, the matrix
    int N_i(x,y) nu_m(y) dsigma, on boundary_quadrature's sphere caps for
    B_R at x."""
    mol = op.mollifier
    y, w, nu = boundary_quadrature(ball(ball_radius(op.domain)),
                                   op.quad.n_surface, x=x,
                                   support_radius=mol.support_radius)
    return np.einsum("n,ni,nm->im", w, kernel_N(x, y, mol, op.quad.n_alpha), nu)


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


def boundary_flux_term(op: CurlInverseOp, g, x) -> np.ndarray:
    """The boundary correction T[g . nu](x): the normal flux of g through
    the domain boundary, integrated against the divergence-inverse kernel.

    Together with B[div g] it accounts exactly for what curl(Rg) - g
    misses: the kernel construction cannot tell the field apart from its
    zero extension, whose distributional divergence carries a surface part
    -(g . nu) on the boundary in addition to div g inside.  Like R and B it
    vanishes outside the domain, where it returns (0,0,0) exactly.
    """
    x = _as_point(x)
    if not bool(contains(op.domain, x)):
        return np.zeros(3)
    mol, n_alpha = op.mollifier, op.quad.n_alpha
    y, w, nu = boundary_quadrature(op.domain, op.quad.n_surface,
                                   x=x, support_radius=mol.support_radius)
    flux = np.einsum("ij,ij->i", np.asarray(g(y)), nu)
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
    inside points fan out over a pool of ``threads`` workers (each
    quadrature is independent), and results are written back by index, so
    the grid is identical for any thread count."""
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

    flat_vals = grid.values.reshape(-1, 3)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for flat_idx, v in zip(todo, ex.map(
                lambda i: curl_inverse(op, g, pts[i]), todo)):
            flat_vals[flat_idx] = v
    return grid

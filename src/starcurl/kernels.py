"""Weakly singular integral kernels built from inner line integrals of the bump.

All kernels reduce to integrals of the form

    int psi(y + alpha (x-y)) * poly(alpha) d alpha

over the exact interval where the segment {y + alpha (x-y) : alpha >= 1}
crosses the bump support B(0, r_psi).  That interval is the solution of a
quadratic inequality (alpha_support); restricting the quadrature to it is
what makes fixed-order rules accurate.

The bump has essential singularities at the support-boundary roots of the
quadratic (it is flat to all orders but not analytic there), which caps
plain Gauss-Legendre at ~1e-5 accuracy for 16 nodes.  Each inner integral
therefore uses a fixed graded subdivision of the interval -- panel edges at
fractions (0.05, 0.25) from each root endpoint -- with n_alpha Gauss nodes
per panel.  Measured worst-case agreement with dense reference rules is
~2e-14 at n_alpha = 16, restoring the intended spectral behavior at a flat
5x node cost.

Kernel catalogue (d = x - y throughout):

    N_i(x,y)      = d_i  *  int psi(y + alpha d) alpha (alpha - 1) d alpha
    Ntilde_i(x,y) = d_i  *  int psi(y + alpha d) alpha^2 d alpha
    dN_im(x,y)    = delta_im * int psi alpha (alpha-1)
                    + d_i * int dpsi_m(y + alpha d) alpha^2 (alpha - 1)
    aux_im(x,y)   = d_i  *  int dpsi_m(y + alpha d) alpha (alpha - 1)

N inverts the curl, Ntilde the divergence, dN is the x-gradient of N
(entry (i, m) = d N_i / d x_m), and aux is the volume kernel of the
gradient representation's middle term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smoothing import Mollifier

__all__ = [
    "AlphaInterval",
    "alpha_support",
    "kernel_N",
    "kernel_N_tilde",
    "kernel_N_form",
    "grad_kernel_N",
    "kernel_aux",
    "kernel_bound_check",
    "LEVI_CIVITA",
]

_MIN_SEP = 1e-14
_BOUND_CHUNK = 20_000   # pairs per batch of kernel_bound_check's scan

# graded panel edge fractions, measured against dense references; see module
# docstring.  A support-root endpoint gets slivers (0.05, 0.25); an endpoint
# clipped at alpha = 1 is analytic and gets an even split instead.
_FRAC_SINGULAR = (0.05, 0.25)
_FRAC_CLIPPED = (0.25, 0.5)
N_PANELS = 5

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_k, _j, _i] = -1.0


@dataclass(frozen=True)
class AlphaInterval:
    """Effective support [lo, hi] (subset of [1, inf)) of the inner integral,
    or empty when the segment misses the bump."""

    lo: float
    hi: float
    empty: bool

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _support_batch(x: np.ndarray, y: np.ndarray, r_psi: float):
    """Vectorized interval solve.  Returns (lo, hi, empty, clipped) arrays;
    ``clipped`` marks rows whose left endpoint is the cut at alpha = 1
    rather than a support root."""
    d = x - y
    a = np.einsum("...i,...i->...", d, d)
    if np.any(a < _MIN_SEP * _MIN_SEP):
        raise ValueError("kernel evaluated too close to the singular point x = y")
    b = np.einsum("...i,...i->...", y, d)
    c = np.einsum("...i,...i->...", y, y) - r_psi * r_psi
    disc = b * b - a * c
    pos = disc > 0.0
    sq = np.sqrt(np.where(pos, disc, 0.0))
    root_lo = (-b - sq) / a
    hi = (-b + sq) / a
    lo = np.maximum(1.0, root_lo)
    empty = ~pos | (hi <= lo)
    clipped = root_lo < 1.0
    return lo, hi, empty, clipped


def alpha_support(x, y, r_psi: float) -> AlphaInterval:
    """Solve |d|^2 a^2 + 2 (y.d) a + |y|^2 - r_psi^2 < 0 for the segment
    parameter, intersected with [1, inf)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi, empty, _ = _support_batch(x, y, r_psi)
    if empty:
        return AlphaInterval(0.0, 0.0, True)
    return AlphaInterval(float(lo), float(hi), False)


def _panel_nodes(lo, hi, empty, clipped, n_alpha):
    """Graded composite Gauss nodes on each row's interval.

    Returns (alpha, w) of shape (..., N_PANELS * n_alpha); weights are zero
    on empty rows.
    """
    from .quadrature import gauss_legendre

    lo = np.asarray(lo, dtype=float)
    span = np.where(empty, 0.0, hi - lo)
    f1s, f2s = _FRAC_SINGULAR
    f1c, f2c = _FRAC_CLIPPED
    f1 = np.where(clipped, f1c, f1s)
    f2 = np.where(clipped, f2c, f2s)
    # edge fractions 0, f1, f2, 1 - F2, 1 - F1, 1 (right end always a root)
    edges = np.stack([np.zeros_like(f1), f1, f2,
                      np.full_like(f1, 1.0 - _FRAC_SINGULAR[1]),
                      np.full_like(f1, 1.0 - _FRAC_SINGULAR[0]),
                      np.ones_like(f1)], axis=-1)
    edges = lo[..., None] + span[..., None] * edges
    t, wg = gauss_legendre(n_alpha)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    alpha = mid[..., None] + half[..., None] * t
    w = half[..., None] * wg
    shp = alpha.shape[:-2] + (N_PANELS * n_alpha,)
    return alpha.reshape(shp), w.reshape(shp)


def _as_batch(x, y):
    """x and y as float arrays, y as an (n, 3) batch, and whether y was one
    point.  x must be one point (3,) or one point per row of y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y, single = (y[None, :], True) if y.ndim == 1 else (y, False)
    if x.ndim != 1 and x.shape != y.shape:
        raise ValueError(f"x of shape {x.shape} does not pair with y of shape {y.shape}")
    return x, y, single


def _line_integrals(x, y, mollifier, n_alpha, weights, need_grad):
    """Shared core: evaluates psi (and grad psi when needed) on the graded
    nodes and returns one reduced integral per weight polynomial.

    ``x`` is one point (3,) or one point per row of ``y`` (n, 3).
    ``weights`` is a sequence of callables alpha -> weight array.  Scalar
    integrals come back with shape (n,); gradient integrals (from grad psi)
    with shape (n, 3).
    """
    d = x - y
    lo, hi, empty, clipped = _support_batch(x, y, mollifier.support_radius)
    alpha, w = _panel_nodes(lo, hi, empty, clipped, n_alpha)
    w = np.where(empty[..., None], 0.0, w)
    pts = y[:, None, :] + alpha[..., None] * d[:, None, :]
    outs = []
    psi_vals = mollifier.psi(pts)
    for wf in weights:
        outs.append(np.einsum("np,np->n", w, psi_vals * wf(alpha)))
    if need_grad:
        gpsi = mollifier.grad_psi(pts)
        for wf in need_grad:
            outs.append(np.einsum("np,npi->ni", w * wf(alpha), gpsi))
    return d, outs


def kernel_N(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """Curl-inverse kernel N(x, y); vectorized over rows of y, with x either
    one point or one point per row."""
    x, y, single = _as_batch(x, y)
    d, (i0,) = _line_integrals(x, y, mollifier, n_alpha,
                               [lambda a: a * (a - 1.0)], ())
    out = d * i0[:, None]
    return out[0] if single else out


def kernel_N_tilde(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """Divergence-inverse kernel Ntilde(x, y); weight alpha^2."""
    x, y, single = _as_batch(x, y)
    d, (i0,) = _line_integrals(x, y, mollifier, n_alpha,
                               [lambda a: a * a], ())
    out = d * i0[:, None]
    return out[0] if single else out


def _grad_kernels(x, y, mollifier: Mollifier, n_alpha: int):
    """dN and aux of the catalogue, each (..., i, m), from one psi / grad psi
    pass over the same nodes."""
    x, y, single = _as_batch(x, y)
    d, (i0, jm, km) = _line_integrals(
        x, y, mollifier, n_alpha,
        [lambda a: a * (a - 1.0)],
        [lambda a: a * a * (a - 1.0), lambda a: a * (a - 1.0)],
    )
    dN = np.eye(3)[None, :, :] * i0[:, None, None] + d[:, :, None] * jm[:, None, :]
    aux = d[:, :, None] * km[:, None, :]
    return (dN[0], aux[0]) if single else (dN, aux)


def grad_kernel_N(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """x-gradient of N: (..., i, m) = d N_i / d x_m.

    Differentiation under the integral sign gives

        dN_im = delta_im int psi a(a-1) + d_i int dpsi_m a^2 (a-1).
    """
    return _grad_kernels(x, y, mollifier, n_alpha)[0]


def kernel_aux(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """Auxiliary kernel d_i * int dpsi_m(y + alpha d) alpha (alpha - 1), as
    the full (..., i, m) matrix."""
    return _grad_kernels(x, y, mollifier, n_alpha)[1]


def kernel_N_form(x, y, mollifier: Mollifier, form: str = "alpha", n: int = 16):
    """N(x, y) through one of three equivalent line parameterizations.

    alpha: the defining form (segment parameter alpha >= 1)
    xi:    arc length from y, xi = alpha |d|, weight xi (xi - |d|) / |d|^3
    r:     arc length beyond x, r = xi - |d|, weight r (r + |d|) / |d|^3,
           bump evaluated at x + r u

    Each form solves its own support interval.  The substitutions are affine,
    so all three agree to rounding at equal node counts.
    """
    x, y, single = _as_batch(x, y)
    if form == "alpha":
        out = kernel_N(x, y, mollifier, n)
        return out[0] if single else out
    d = x[None, :] - y
    dn = np.linalg.norm(d, axis=-1)
    if np.any(dn < _MIN_SEP):
        raise ValueError("kernel evaluated too close to the singular point x = y")
    u = d / dn[:, None]
    r_psi = mollifier.support_radius
    if form == "xi":
        # |y + xi u| < r_psi, xi >= |d|
        b = np.einsum("ni,ni->n", y, u)
        c = np.einsum("ni,ni->n", y, y) - r_psi * r_psi
        base = y
        floor = dn
        weight = lambda s, dnn: s * (s - dnn[:, None])
    elif form == "r":
        # |x + r u| < r_psi, r >= 0
        b = u @ x
        c = float(x @ x) - r_psi * r_psi
        base = np.broadcast_to(x, y.shape)
        floor = np.zeros_like(dn)
        weight = lambda s, dnn: s * (s + dnn[:, None])
    else:
        raise ValueError(f"unknown kernel form {form!r}")
    disc = b * b - c
    pos = disc > 0.0
    sq = np.sqrt(np.where(pos, disc, 0.0))
    root_lo = -b - sq
    hi = -b + sq
    lo = np.maximum(floor, root_lo)
    empty = ~pos | (hi <= lo)
    clipped = root_lo < floor
    s, w = _panel_nodes(lo, hi, empty, clipped, n)
    w = np.where(empty[..., None], 0.0, w)
    pts = base[:, None, :] + s[..., None] * u[:, None, :]
    vals = mollifier.psi(pts) * weight(s, dn)
    integral = np.einsum("np,np->n", w, vals)
    out = d * (integral / dn**3)[:, None]
    return out[0] if single else out


def kernel_bound_check(domain, mollifier: Mollifier, n_pairs: int = 100_000,
                       seed: int = 0, kernel: str = "N", n_alpha: int = 16,
                       sep_range=(1e-4, None)):
    """Empirical growth-law scan.

    Samples pairs with x uniform in the domain and |x - y| log-uniform in
    ``sep_range`` (default [1e-4, diam]).  Returns a dict with the empirical
    constant C_emp = max |K| * |x-y|^p (p = 2 for N, 3 for the gradient) and
    the pair attaining it.
    """
    from .geometry import sample_interior, sample_directions

    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = sep_range
    if hi is None:
        hi = domain.diameter
    c_emp = 0.0
    worst = None
    done = 0
    while done < n_pairs:
        m = min(_BOUND_CHUNK, n_pairs - done)
        xs = sample_interior(domain, m, rng)
        us = sample_directions(m, rng)
        s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
        ys = xs + s[:, None] * us
        if kernel == "N":
            kv = kernel_N(xs, ys, mollifier, n_alpha)
            scaled = np.max(np.abs(kv), axis=-1) * s * s
        elif kernel == "grad":
            kv = grad_kernel_N(xs, ys, mollifier, n_alpha)
            scaled = np.max(np.abs(kv), axis=(-2, -1)) * s**3
        else:
            raise ValueError(f"unknown kernel selector {kernel!r}")
        k = int(np.argmax(scaled))
        if scaled[k] > c_emp:
            c_emp = float(scaled[k])
            worst = (xs[k].copy(), ys[k].copy(), float(s[k]))
        done += m
    if not np.isfinite(c_emp):
        raise AssertionError("kernel growth scan produced a non-finite constant")
    return {"C_emp": c_emp, "worst_pair": worst, "n_pairs": n_pairs}

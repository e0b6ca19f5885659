"""Weakly singular integral kernels built from inner line integrals of the bump.

All kernels reduce to one line integral, _line_integrals:

    int psi(y + alpha d) * weight(alpha) d alpha,        d = x - y,

over the exact interval of alpha >= 1 where the segment's extension beyond
x crosses the bump support B(0, r_psi).  That interval is the solution of a
quadratic inequality (_support_batch; alpha_support for one pair);
restricting the quadrature to it is what makes fixed-order rules accurate.

The bump has essential singularities at the support-boundary roots of the
quadratic (it is flat to all orders but not analytic there), which caps
plain Gauss-Legendre at ~1e-5 accuracy for 16 nodes.  Each inner integral
therefore uses one fixed graded rule on [0, 1], mapped onto the row's
interval -- panel edges _EDGES with slivers at fractions (0.05, 0.25) from
both ends -- with n_alpha Gauss nodes per panel, restoring the intended
spectral behavior at a flat 5x node cost.  Both ends get the slivers
whether they are support roots or the cut at alpha = 1, which for x just
inside the bump's edge lies next to a root.  At n_alpha = 16 it agrees
with the dense rule below to ~3e-14 of max |N| over 400,000 pairs in
ball(2) with |x - y| in [1e-3, 3].

The dense rule is kernel_N_reference: N from one plain Gauss-Legendre
panel of _N_REFERENCE = 128 nodes on the same interval, with no graded
panels and no knob.  It shares only psi and the support solve with
kernel_N, so it is an independent oracle for the graded rule
(verify.forms_check, `starcurl equiv-check`).

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
    "kernel_N_reference",
    "grad_kernel_N",
    "kernel_aux",
    "kernel_bound_check",
    "LEVI_CIVITA",
]

_MIN_SEP = 1e-14
_BOUND_CHUNK = 20_000   # pairs per batch of kernel_bound_check's scan

# panel edges of the graded rule on [0, 1], slivers at both ends; see module
# docstring
_EDGES = (0.0, 0.05, 0.25, 0.75, 0.95, 1.0)
_N_REFERENCE = 128      # nodes of kernel_N_reference's one plain Gauss panel

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


def _support_batch(y, d, r_psi: float):
    """Vectorized interval solve of |y + alpha d| < r_psi over alpha >= 1,
    per row.  Returns (lo, hi, empty) arrays."""
    a = np.einsum("...i,...i->...", d, d)
    b = np.einsum("...i,...i->...", y, d)
    c = np.einsum("...i,...i->...", y, y) - r_psi * r_psi
    disc = b * b - a * c
    pos = disc > 0.0
    sq = np.sqrt(np.where(pos, disc, 0.0))
    root_lo = (-b - sq) / a
    hi = (-b + sq) / a
    lo = np.maximum(1.0, root_lo)
    empty = ~pos | (hi <= lo)
    return lo, hi, empty


def alpha_support(x, y, r_psi: float) -> AlphaInterval:
    """Solve |d|^2 a^2 + 2 (y.d) a + |y|^2 - r_psi^2 < 0 for the segment
    parameter, intersected with [1, inf)."""
    y, d, _ = _as_batch(x, y)
    lo, hi, empty = _support_batch(y, d, r_psi)
    if empty[0]:
        return AlphaInterval(0.0, 0.0, True)
    return AlphaInterval(float(lo[0]), float(hi[0]), False)


def _graded_rule(n_alpha):
    """Composite Gauss nodes and weights on [0, 1], n_alpha per panel of
    _EDGES."""
    from .quadrature import gauss_legendre

    edges = np.asarray(_EDGES)
    t, wg = gauss_legendre(n_alpha)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * t).ravel(), (half * wg).ravel()


def _as_batch(x, y):
    """y and d = x - y as (n, 3) float batches, and whether y was one
    point.  x must be one point (3,) or one point per row of y, and no x
    may sit on its y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y, single = (y[None, :], True) if y.ndim == 1 else (y, False)
    if x.ndim != 1 and x.shape != y.shape:
        raise ValueError(f"x of shape {x.shape} does not pair with y of shape {y.shape}")
    d = x - y
    if np.any(np.einsum("ni,ni->n", d, d) < _MIN_SEP * _MIN_SEP):
        raise ValueError("kernel evaluated too close to the singular point x = y")
    return y, d, single


def _line_integrals(y, d, mollifier, n, weights, grad_weights=()):
    """The one line integral behind every kernel: graded nodes on
    {alpha >= 1 : |y + alpha d| < r_psi}, one psi pass (and one grad psi
    pass when ``grad_weights`` is given), reduced against each weight
    polynomial.

    y and d are (n, 3) batches.  Each weight is a callable alpha -> weight
    array.  Scalar integrals come back with shape (n,), then gradient
    integrals (from grad psi) with shape (n, 3).
    """
    lo, hi, empty = _support_batch(y, d, mollifier.support_radius)
    t, wt = _graded_rule(n)
    span = np.where(empty, 0.0, hi - lo)[:, None]
    a = lo[:, None] + span * t
    w = span * wt
    pts = y[:, None, :] + a[..., None] * d[:, None, :]
    psi_vals = mollifier.psi(pts)
    outs = [np.einsum("np,np->n", w, psi_vals * wf(a)) for wf in weights]
    if grad_weights:
        gpsi = mollifier.grad_psi(pts)
        outs += [np.einsum("np,npi->ni", w * wf(a), gpsi) for wf in grad_weights]
    return outs


def kernel_N(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """Curl-inverse kernel N(x, y); vectorized over rows of y, with x either
    one point or one point per row."""
    y, d, single = _as_batch(x, y)
    (i0,) = _line_integrals(y, d, mollifier, n_alpha, [lambda a: a * (a - 1.0)])
    out = d * i0[:, None]
    return out[0] if single else out


def kernel_N_tilde(x, y, mollifier: Mollifier, n_alpha: int = 16):
    """Divergence-inverse kernel Ntilde(x, y); weight alpha^2."""
    y, d, single = _as_batch(x, y)
    (i0,) = _line_integrals(y, d, mollifier, n_alpha, [lambda a: a * a])
    out = d * i0[:, None]
    return out[0] if single else out


def _grad_kernels(x, y, mollifier: Mollifier, n_alpha: int):
    """dN and aux of the catalogue, each (..., i, m), from one psi / grad psi
    pass over the same nodes."""
    y, d, single = _as_batch(x, y)
    i0, jm, km = _line_integrals(
        y, d, mollifier, n_alpha,
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


def kernel_N_reference(x, y, mollifier: Mollifier):
    """N(x, y) from one plain Gauss-Legendre panel of _N_REFERENCE nodes on
    the exact support interval; vectorized like kernel_N.  No graded panels
    and no knob: it shares only psi and the support solve with kernel_N,
    which makes it the independent oracle for kernel_N's graded rule."""
    from .quadrature import gauss_legendre

    y, d, single = _as_batch(x, y)
    lo, hi, empty = _support_batch(y, d, mollifier.support_radius)
    t, wg = gauss_legendre(_N_REFERENCE)
    half = np.where(empty, 0.0, 0.5 * (hi - lo))[:, None]
    a = 0.5 * (lo + hi)[:, None] + half * t
    psi_vals = mollifier.psi(y[:, None, :] + a[..., None] * d[:, None, :])
    i0 = np.einsum("np,np->n", half * wg, psi_vals * a * (a - 1.0))
    out = d * i0[:, None]
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

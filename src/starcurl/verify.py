"""Finite-difference oracles and check drivers.

The oracles here never look inside the operators they certify: they probe
them point by point (central differences, boundary offsets, truncation
sweeps) and compare against closed-form references.  The one exception is
forms_check, which recomputes the potential with the kernel's graded inner
rule swapped for kernels.kernel_N_reference's dense one.  Every driver
returns a CheckReport whose rows can be serialized to CSV; pass/fail is
always ``worst error <= tolerance`` in the report's metric.

curl_check certifies curl(Rg) = g - B[div g] + T[g . nu], whose right-hand
side curl_reference builds; div_check certifies div(BF) = F and reports the
mean of F, which that identity needs to vanish.

Margins follow the package convention: "distance to the boundary" means the
radial clearance along the ray from the origin (see geometry.radial_gap).
Derivative checks stay away from the boundary because the gradient's
surface term is genuinely ill-conditioned there; boundary behavior has its
own driver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import ModulusTable, VectorField
from .geometry import (boundary_distance, contains, radial_gap,
                       sample_directions)
from .kernels import LEVI_CIVITA, kernel_N_reference
from .operators import (CurlInverseOp, _zero_extended, bogovskii,
                        boundary_flux_term, curl_inverse, curl_inverse_eps,
                        curl_of_curl_inverse, domain_integral,
                        grad_curl_inverse)

__all__ = [
    "CheckRow",
    "CheckReport",
    "EpsTable",
    "fd_jacobian",
    "fd_curl",
    "fd_div",
    "curl_reference",
    "curl_check",
    "grad_check",
    "div_check",
    "boundary_check",
    "eps_study",
    "eps_report",
    "dini_report",
    "forms_check",
]


@dataclass(frozen=True)
class CheckRow:
    """One compared quantity: a computed value against its reference."""

    test: str
    point: tuple
    component: str
    value: float
    reference: float
    abs_err: float
    rel_err: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    """Aggregate of rows with a single verdict: pass iff the worst error in
    the chosen metric ("abs" or "rel") is within tolerance."""

    test: str
    rows: tuple
    tolerance: float
    metric: str
    n_points: int
    max_abs_err: float
    max_rel_err: float
    passed: bool
    worst: CheckRow | None

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.test}: {self.n_points} points, "
                f"max_abs={self.max_abs_err:.3e}, max_rel={self.max_rel_err:.3e}, "
                f"tol={self.tolerance:.1e} ({self.metric}) [{verdict}]")


def _row(test, point, component, value, reference, tol, metric, scale=None):
    value = float(value)
    reference = float(reference)
    abs_err = abs(value - reference)
    denom = abs(reference) if scale is None else float(scale)
    rel_err = abs_err / max(denom, 1e-300)
    err = abs_err if metric == "abs" else rel_err
    return CheckRow(test, tuple(float(c) for c in np.atleast_1d(point)[:3]),
                    component, value, reference, abs_err, rel_err, err <= tol)


def _report(test, rows, tol, metric) -> CheckReport:
    rows = tuple(rows)
    if not rows:
        return CheckReport(test, rows, tol, metric, 0, 0.0, 0.0, True, None)
    max_abs = max(r.abs_err for r in rows)
    max_rel = max(r.rel_err for r in rows)
    key = (lambda r: r.abs_err) if metric == "abs" else (lambda r: r.rel_err)
    worst = max(rows, key=key)
    return CheckReport(test, rows, tol, metric, len({r.point for r in rows}),
                       max_abs, max_rel, key(worst) <= tol, worst)


# -- finite differences ------------------------------------------------------


def fd_jacobian(v, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map: entry (k, m) is
    d v^k / d x_m.  Truncation error is O(h^2) for C^3 maps."""
    if not h > 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    J = np.empty((3, 3))
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        J[:, m] = (np.asarray(v(x + e)) - np.asarray(v(x - e))) / (2.0 * h)
    return J


def fd_curl(v, x, h: float) -> np.ndarray:
    """Antisymmetric contraction of the central-difference Jacobian."""
    J = fd_jacobian(v, x, h)
    return np.einsum("ilm,ml->i", LEVI_CIVITA, J)


def fd_div(v, x, h: float) -> float:
    """Trace of the central-difference Jacobian."""
    return float(np.trace(fd_jacobian(v, x, h)))


# -- check drivers -----------------------------------------------------------


def _interior_points(op, points, margin, what):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("points must be 3-vectors")
    gaps = radial_gap(op.domain, pts)
    if not (np.all(contains(op.domain, pts)) and np.all(gaps > margin)):
        raise ValueError(f"{what} needs interior points with clearance > {margin}")
    return pts


def curl_reference(op: CurlInverseOp, g: VectorField, x) -> np.ndarray:
    """The right-hand side g(x) - B[div g](x) + T[g . nu](x) of the
    reproduction identity for curl(Rg).  B needs the field's closed-form
    divergence, and T a surface rule for the domain."""
    if not isinstance(g, VectorField) or g.div is None:
        raise ValueError("the curl reference g - B[div g] + T[g . nu] needs a "
                         "field with a closed-form divergence")
    flux = boundary_flux_term(op, g, x)     # first: the term a domain may lack
    return np.asarray(g(x), dtype=float) - bogovskii(op, g.div, x) + flux


def curl_check(op: CurlInverseOp, g: VectorField, points,
               h: float | None = None, tol: float = 1e-3) -> CheckReport:
    """Certify curl(Rg) = g - B[div g] + T[g . nu] at interior points via
    two independent routes to the curl: finite differences of the
    potential, and the analytic gradient's antisymmetric contraction.  Both
    are compared componentwise with curl_reference, in absolute error."""
    h = 1e-3 * op.domain.diameter if h is None else float(h)
    pts = _interior_points(op, points, max(h, 1e-3), "curl_check")
    rows = []
    for x in pts:
        ref = curl_reference(op, g, x)
        c_fd = fd_curl(lambda p: curl_inverse(op, g, p), x, h)
        c_an = curl_of_curl_inverse(op, g, x)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        for c in range(3):
            rows.append(_row("curl_check", x, f"fd.v{c + 1}", c_fd[c], ref[c],
                             tol, "abs", scale=scale))
            rows.append(_row("curl_check", x, f"an.v{c + 1}", c_an[c], ref[c],
                             tol, "abs", scale=scale))
    return _report("curl_check", rows, tol, "abs")


def grad_check(op: CurlInverseOp, g, points, h: float = 2e-3,
               tol: float = 1e-3) -> CheckReport:
    """Certify the analytic Jacobian of the potential against the
    central-difference Jacobian of the potential itself."""
    pts = _interior_points(op, points, max(h, 1e-3), "grad_check")
    rows = []
    for x in pts:
        G = grad_curl_inverse(op, g, x)
        J = fd_jacobian(lambda p: curl_inverse(op, g, p), x, h)
        scale = max(float(np.max(np.abs(J))), 1e-300)
        for k in range(3):
            for m in range(3):
                rows.append(_row("grad_check", x, f"d{m + 1}v{k + 1}",
                                 G[k, m], J[k, m], tol, "abs", scale=scale))
    return _report("grad_check", rows, tol, "abs")


def div_check(op: CurlInverseOp, F, points, h: float | None = None,
              tol: float = 1e-3) -> CheckReport:
    """Certify div(BF) = F: finite-difference divergence of the divergence
    inverse against F itself, relative to the scale max |F| over the point
    set (F may pass through zero, so componentwise relative error would be
    meaningless).  The identity needs F to have zero mean, so a last,
    informational row carries int_Omega F against 0, relative to the same
    scale; it never fails."""
    h = 1e-3 * op.domain.diameter if h is None else float(h)
    pts = _interior_points(op, points, max(h, 1e-3), "div_check")
    refs = np.array([float(F(x)) for x in pts])
    scale = max(float(np.max(np.abs(refs))), 1e-300)
    rows = []
    for x, ref in zip(pts, refs):
        d = fd_div(lambda p: bogovskii(op, F, p), x, h)
        rows.append(_row("div_check", x, "div", d, ref, tol, "rel", scale=scale))
    rep = _report("div_check", rows, tol, "rel")
    mean = domain_integral(op, F)
    mean_row = CheckRow("div_check", (float("nan"),) * 3, "domain_integral",
                        mean, 0.0, abs(mean), abs(mean) / scale, True)
    return replace(rep, rows=rep.rows + (mean_row,))


def boundary_check(op: CurlInverseOp, g, n_points: int = 100,
                   tol: float = 0.0, seed: int = 0) -> CheckReport:
    """Certify the boundary behavior of the potential.

    Exterior points (2 n_points of them, at radial overshoots up to one
    diameter) must give exactly (0, 0, 0), bit for bit.  Along inward radial
    offsets 1e-2 and 1e-3 of the diameter, |Rg| must decrease toward the
    boundary for at least 95% of n_points directions; the report carries
    the shortfall of that fraction as a synthetic row."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    dom = op.domain
    diam = dom.diameter
    rows = []

    dirs = sample_directions(2 * n_points, rng)
    rb = boundary_distance(dom, dirs)
    off = diam * rng.uniform(0.01, 1.0, 2 * n_points)
    for u, r0, d in zip(dirs, rb, off):
        x = (r0 + d) * u
        v = curl_inverse(op, g, x)
        rows.append(_row("boundary_check", x, "exterior_sup",
                         float(np.max(np.abs(v))), 0.0, tol, "abs", scale=1.0))

    dirs = sample_directions(n_points, rng)
    rb = boundary_distance(dom, dirs)
    decreases = 0
    for u, r0 in zip(dirs, rb):
        v_far = curl_inverse(op, g, (r0 - 1e-2 * diam) * u)
        v_near = curl_inverse(op, g, (r0 - 1e-3 * diam) * u)
        if np.linalg.norm(v_near) < np.linalg.norm(v_far):
            decreases += 1
    frac = decreases / n_points
    rows.append(CheckRow("boundary_check", (float("nan"),) * 3,
                         "decrease_fraction", frac, 0.95,
                         max(0.0, 0.95 - frac), max(0.0, 0.95 - frac) / 0.95,
                         max(0.0, 0.95 - frac) <= tol))
    return _report("boundary_check", rows, tol, "abs")


@dataclass(frozen=True)
class EpsTable:
    """Truncation study |R^eps g - Rg| at one point for a decreasing list of
    cutoff radii.  monotone: errors strictly decrease along the list."""

    point: tuple
    eps: tuple
    errors: tuple
    base_norm: float
    monotone: bool

    @property
    def final_over_first(self) -> float:
        return self.errors[-1] / max(self.errors[0], 1e-300)

    def summary(self) -> str:
        e = ", ".join(f"{v:.3e}" for v in self.errors)
        return (f"eps_study at {self.point}: errors [{e}], "
                f"monotone={self.monotone}, "
                f"final/first={self.final_over_first:.3f}")


def eps_study(op: CurlInverseOp, g, x, eps_list) -> EpsTable:
    """Sup-norm distance of the truncated potential from the full one, for
    each cutoff radius in the given decreasing list of at least two."""
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise ValueError("eps list needs at least two radii to show a decrease")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps list must be strictly decreasing")
    x = _interior_points(op, [x], 0.0, "eps_study")[0]
    base = curl_inverse(op, g, x)
    errs = []
    for e in eps_list:
        v = curl_inverse_eps(op, g, x, e)
        errs.append(float(np.max(np.abs(v - base))))
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    return EpsTable(tuple(float(c) for c in x), eps_list, tuple(errs),
                    float(np.max(np.abs(base))), monotone)


def eps_report(tab: EpsTable) -> CheckReport:
    """The truncation study as a report: one row per cutoff radius, then the
    verdict rows.  Passes iff the errors decrease strictly and the last is
    at most a quarter of the first."""
    max_ratio = 0.25
    ratio_ok = tab.final_over_first <= max_ratio
    miss = max(0.0, tab.final_over_first - max_ratio)
    rows = [CheckRow("eps_study", tab.point, f"eps={e:g}", err, 0.0, err,
                     err / max(tab.base_norm, 1e-300), True)
            for e, err in zip(tab.eps, tab.errors)]
    rows.append(CheckRow("eps_study", tab.point, "monotone",
                         float(tab.monotone), 1.0,
                         0.0 if tab.monotone else 1.0,
                         0.0 if tab.monotone else 1.0, tab.monotone))
    rows.append(CheckRow("eps_study", tab.point, "final_over_first",
                         tab.final_over_first, max_ratio, miss,
                         miss / max_ratio, ratio_ok))
    return CheckReport("eps_study", tuple(rows), max_ratio, "abs", 1,
                       max(r.abs_err for r in rows),
                       max(r.rel_err for r in rows),
                       tab.monotone and ratio_ok, rows[-1])


def dini_report(g: VectorField, table: ModulusTable) -> CheckReport:
    """Audit a field's smoothness label against its sampled modulus: one
    row per separation, then the verdict row.  Passes iff the Dini tail
    test diverges exactly when the label is "non-dini"."""
    expected = g.smoothness == "non-dini"
    passed = table.diverging == expected
    nowhere = (float("nan"),) * 3
    rows = [CheckRow("dini", nowhere, f"omega(rho={r:.3e})", w, 0.0, w, w, True)
            for r, w in zip(table.radii, table.omega)]
    miss = float(table.diverging != expected)
    rows.append(CheckRow("dini", nowhere, "diverging", float(table.diverging),
                         float(expected), miss, miss, passed))
    return CheckReport("dini", tuple(rows), 0.0, "abs", len(rows), 0.0, 0.0,
                       passed, rows[-1])


def _curl_inverse_reference(op: CurlInverseOp, g, x) -> np.ndarray:
    """The potential with kernel_N_reference's dense rule in place of
    kernel_N's graded one: the same volume rule, another inner rule."""
    mol = op.mollifier
    return _zero_extended(op, x, lambda x, y: np.cross(
        g(y), kernel_N_reference(x, y, mol)))


def forms_check(op: CurlInverseOp, g, points, tol: float = 1e-10) -> CheckReport:
    """Certify the graded inner rule of the kernel: the potential through
    kernel_N (curl_inverse) against the potential through the dense
    reference rule, at interior points, relative to the max magnitude per
    point (a vector component can vanish by symmetry; the vector scale
    cannot, except for g = 0 where absolute and relative agree anyway).
    The two rules agree to ~2e-14 at the default budget."""
    pts = _interior_points(op, points, 0.0, "forms_check")
    rows = []
    for x in pts:
        graded = curl_inverse(op, g, x)
        dense = _curl_inverse_reference(op, g, x)
        scale = max(float(np.max(np.abs(graded))),
                    float(np.max(np.abs(dense))), 1e-300)
        for c in range(3):
            rows.append(_row("forms_check", x, f"graded-dense.v{c + 1}",
                             graded[c], dense[c], tol, "rel", scale=scale))
    return _report("forms_check", rows, tol, "rel")

"""The three workloads, the accuracy panel and the set-up probe.

Every workload is a closed loop with one caller: the next input is sent
only after the previous one is answered and checked.  Inputs come from
the seed alone.

grid     ``starcurl solve`` run in-process on seeded 3x3x3 ``trig`` lattices
         over ball:r0=2, each lattice once at threads=1 and once at
         threads=2.  The user's "sample the potential" traffic: kernels and
         smoothing do almost all the work, both angular rules run (the
         lattice centre sits inside the mollifier support, the rest is
         outside it), and CSV/VTK export runs.  verify, B, gradR and T
         do not run.
certify  the verification traffic of curl-check, grad-check and div-solve
         with field ``nonsol`` (nonzero divergence and boundary flux) at
         seeded interior points cycling through ball, ellipsoid and box:
         per point an FD Jacobian of R (6 R calls), R, R^eps, gradR,
         B[div g] and T[g.nu], then the decomposition residual.
radial   R at seeded interior points of a radial table of
         ellipsoid(2, 2.5, 3), checked against R on the exact ellipsoid.
         Ray segmentation and the per-ray quadrature loop dominate, so a
         kernel speed-up should barely move it.

Accuracy metrics come from a fixed panel (``panel``): the point
(0.9, -0.4, 0.6) on each domain.  Off the ball the decomposition residual
swings from 1e-7 to 0.9 between interior points, so a maximum over a few
seeded points would move more between seeds than any bound; a fixed panel
makes the accuracy metrics a function of the code alone.  The panel point
is the one where the off-ball defect shows (residual 0.3 on the ellipsoid).
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from tracer import Tracer

BALL = "ball:r0=2"
ELLIPSOID = "ellipsoid:a=2,b=2.5,c=3"
BOX = "box:h=1.5,1.5,1.5"
CERTIFY_DOMAINS = (("ball", BALL), ("ellipsoid", ELLIPSOID), ("box", BOX))
PANEL_X = (0.9, -0.4, 0.6)
WARM_X = (0.3, 0.2, 0.1)
EPS = 0.1            # R^eps cutoff radius (first step of the default eps-study)
FD_H = 2e-3          # grad-check default step
MARGIN = 0.1         # radial clearance of seeded points (CLI default)
RESID_GATE = 5e-3    # decomposition residual the ball tests assert
GRAD_GATE = 1e-3     # grad-check default tolerance
TABLE_SANITY = 5e-2  # gross-error guard on the radial table (today 1e-4..3e-3)
LATTICE = (3, 3, 3)
N_INPUTS = 400       # inputs generated per seed; a run uses a prefix
# A 35 s run holds 15 (certify) to 170 (grid) samples.  The highest
# percentile with ten samples beyond it would sit below the median on
# certify, so the tail is p90 and the run record states n.
TAIL_PCT = 90

WORKLOADS = ("grid", "certify", "radial")


class Clock:
    """Wall and CPU seconds since construction.  Timed single-threaded work
    is reported in CPU seconds of this process: on an idle core that equals
    wall time, and it leaves out the time a shared host gives the core to
    other tenants, which moved wall times by 15-20% from one minute to the
    next on the 2-core machine the bounds were set on."""

    def __init__(self):
        self.w0, self.c0 = time.perf_counter(), time.process_time()

    def wall(self):
        return time.perf_counter() - self.w0

    def cpu(self):
        return time.process_time() - self.c0


class CheckFailed(Exception):
    """An output of the program failed the benchmark's correctness check."""


def _finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=float))):
            raise CheckFailed("non-finite output")


# -- set-up ---------------------------------------------------------------


@dataclass
class Context:
    """What a workload needs after set-up."""

    workload: str
    ops: dict = field(default_factory=dict)      # name -> CurlInverseOp
    g: object = None                             # the VectorField
    scale: dict = field(default_factory=dict)    # name -> sup |g| on the domain


def ellipsoid_table():
    from starcurl.geometry import boundary_distance, ellipsoid, radial_from_function
    exact = ellipsoid(2.0, 2.5, 3.0)
    return radial_from_function(lambda u: boundary_distance(exact, u))


def field_scale(g, domain):
    """sup |g| over the domain, sampled as curl-check's tolerance does."""
    from starcurl.geometry import sample_interior
    pts = sample_interior(domain, 4096, np.random.default_rng(0))
    return float(np.max(np.abs(g(pts))))


def setup(workload: str):
    """Import the package, build the workload's domains and operators,
    and make one warm-up R call.  Returns (CPU seconds, Context)."""
    clock = Clock()
    import starcurl.cli  # noqa: F401  (grid runs the CLI in-process)
    from starcurl.fields import registry_get
    from starcurl.geometry import parse_domain
    from starcurl.operators import CurlInverseOp, curl_inverse

    ctx = Context(workload)
    if workload == "grid":
        ctx.g = registry_get("trig")
        ctx.ops["ball"] = CurlInverseOp(parse_domain(BALL))
        warm = "ball"
    elif workload == "certify":
        ctx.g = registry_get("nonsol")
        for name, spec in CERTIFY_DOMAINS:
            ctx.ops[name] = CurlInverseOp(parse_domain(spec))
            ctx.scale[name] = field_scale(ctx.g, ctx.ops[name].domain)
        warm = "ball"
    elif workload == "radial":
        ctx.g = registry_get("nonsol")
        ctx.ops["table"] = CurlInverseOp(ellipsoid_table())
        ctx.ops["exact"] = CurlInverseOp(parse_domain(ELLIPSOID))
        warm = "table"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    v = curl_inverse(ctx.ops[warm], ctx.g, np.array(WARM_X))
    _finite(v)
    return clock.cpu(), ctx


# -- inputs ---------------------------------------------------------------


def make_inputs(ctx: Context, seed: int):
    """Deterministic inputs for the workload from the seed alone."""
    from starcurl.geometry import sample_interior

    rng = np.random.default_rng(seed)
    if ctx.workload == "grid":
        out = []
        for _ in range(N_INPUTS):
            s = rng.uniform(1.15, 1.3)
            origin = -s + rng.uniform(-0.15, 0.15, 3)
            out.append((tuple(origin), (s, s, s)))
        return out
    if ctx.workload == "certify":
        names = [n for n, _ in CERTIFY_DOMAINS]
        return [(names[i % 3],
                 sample_interior(ctx.ops[names[i % 3]].domain, 1, rng,
                                 margin=MARGIN)[0])
                for i in range(N_INPUTS)]
    pts = sample_interior(ctx.ops["table"].domain, N_INPUTS, rng, margin=MARGIN)
    return list(pts)


# -- the closed loop --------------------------------------------------------


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    results: list = field(default_factory=list)


def closed_loop(items, op, seconds: float, max_items: int | None = None):
    """Send items to ``op`` one at a time until ``seconds`` have passed (at
    least one item).  ``op`` returns a dict of numbers; an item fails when
    op raises or returns a non-finite number, and the loop goes on."""
    res = LoopResult()
    deadline = time.perf_counter() + seconds
    for item in items:
        if res.attempted and (time.perf_counter() >= deadline
                              or (max_items and res.attempted >= max_items)):
            break
        res.attempted += 1
        try:
            out = op(item)
            for k, v in out.items():
                if not np.all(np.isfinite(np.asarray(v, dtype=float))):
                    raise CheckFailed(f"{k} is not finite")
        except Exception:   # a failed operation is counted, not fatal
            res.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        res.results.append(out)
    return res


# -- trace targets ------------------------------------------------------------


def _rows(a):
    a = np.asarray(a)
    return a.size // 3 if a.ndim else 1


def trace_targets(tr: Tracer):
    """Every function the traced run wraps, where its caller looks it up."""
    import starcurl.cli as C
    import starcurl.geometry as Gm
    import starcurl.operators as O
    import starcurl.quadrature as Q
    import starcurl.verify as V
    from starcurl.smoothing import Mollifier

    def with_integrand(fn):
        # the integrand is operators code: its time must not count as the
        # quadrature's self time, and its row count is the node count
        def call(f, *args, **kwargs):
            return fn(tr.wrap("operators.integrand", f,
                              count=lambda a, out: len(a[0])), *args, **kwargs)
        return call

    size = lambda a, out: np.size(out)
    pairs = lambda a, out: _rows(a[1])
    t = []
    for attr in ("psi", "grad_psi"):
        useful = ((lambda a, out: np.count_nonzero(out)) if attr == "psi" else
                  (lambda a, out: np.count_nonzero(np.any(out != 0.0, axis=-1))))
        count = size if attr == "psi" else (lambda a, out: np.size(out) // 3)
        t.append((Mollifier, attr, f"smoothing.{attr}", count, useful))
    for attr in ("kernel_N", "kernel_N_tilde", "grad_kernel_N", "kernel_aux"):
        t.append((O, attr, f"kernels.{attr}", pairs, None))
    t.append((O, "integrate_ball_singular", "quadrature.integrate_ball_singular",
              None, None))
    for attr in ("integrate_sphere_cap", "integrate_sphere_surface"):
        t.append((O, attr, f"quadrature.{attr}", None, None))
    t.append((O, "boundary_quadrature", "quadrature.boundary_quadrature", None, None))
    t.append((O, "contains", "geometry.contains", size, None))
    t.append((Gm, "contains", "geometry.contains", size, None))
    t.append((Q, "ray_segments", "geometry.ray_segments", None, None))
    for attr in ("curl_inverse", "curl_inverse_eps", "bogovskii",
                 "grad_curl_inverse", "boundary_flux_term", "eval_grid"):
        t.append((O, attr, f"operators.{attr}", None, None))
    t.append((V, "curl_inverse", "operators.curl_inverse", None, None))
    t.append((V, "fd_jacobian", "verify.fd_jacobian", None, None))
    t.append((C, "eval_grid", "operators.eval_grid", None, None))
    nbytes = lambda a, out: os.path.getsize(a[1])
    t.append((C, "grid_to_csv", "export.grid_to_csv", nbytes, None))
    t.append((C, "grid_to_vtk", "export.grid_to_vtk", nbytes, None))
    t.append((C, "main", "cli.main", None, None))
    integrators = ("integrate_ball_singular", "integrate_sphere_cap",
                   "integrate_sphere_surface")
    fns = [with_integrand(getattr(owner, attr)) if attr in integrators
           else getattr(owner, attr) for owner, attr, *_ in t]
    # the grid's field reaches the CLI by name: wrap what the parser returns
    parse = C.parse_field
    t.append((C, "parse_field", "fields.parse_field", None, None))
    fns.append(lambda spec: traced_field(tr, parse(spec)))
    return [(owner, attr, name, fn, count, useful)
            for (owner, attr, name, count, useful), fn in zip(t, fns)]


def traced(tr: Tracer):
    """Context manager installing every span wrapper for its block."""
    return tr.patched(trace_targets(tr))


def traced_field(tr: Tracer, g):
    """The field with its callables wrapped as fields.eval spans."""
    count = lambda a, out: _rows(a[0])
    return replace(g, eval=tr.wrap("fields.eval", g.eval, count),
                   div=tr.wrap("fields.eval", g.div, count) if g.div else None)


@contextlib.contextmanager
def point_timer(sink: list):
    """CPU time of each R call eval_grid makes (the grid's per-point
    latency); only valid while eval_grid runs on one thread."""
    import starcurl.operators as O
    orig = O.curl_inverse

    def timed(*args, **kwargs):
        clock = Clock()
        out = orig(*args, **kwargs)
        sink.append(clock.cpu())
        return out

    O.curl_inverse = timed
    try:
        yield
    finally:
        O.curl_inverse = orig


# -- grid ---------------------------------------------------------------------


def _solve(out_dir, lattice, threads):
    """One ``starcurl solve`` in-process; returns (Clock readings (wall,
    cpu), csv bytes)."""
    import starcurl.cli as C

    origin, spacing = lattice
    fmt = lambda t: ",".join(f"{v:.17g}" for v in t)
    argv = ["solve", "--domain", BALL, "--field", "trig",
            "--grid.origin=" + fmt(origin), "--grid.spacing=" + fmt(spacing),
            "--grid.counts=" + ",".join(map(str, LATTICE)),
            "--threads", str(threads), "--out-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        clock = Clock()
        rc = C.main(argv)
        took = clock.wall(), clock.cpu()
    if rc != 0:
        raise CheckFailed(f"solve exited with {rc}")
    with open(os.path.join(out_dir, "solve.csv"), "rb") as fh:
        return took, fh.read()


def _check_grid_csv(ctx, data: bytes):
    """Exterior samples are exactly zero, every value is finite, and one
    inside sample equals a direct R call bit for bit.  Returns the number
    of inside points."""
    from starcurl.operators import curl_inverse

    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    vals = np.array([[float(c) for c in r[:6]] for r in rows])
    inside = np.array([r[6] == "1" for r in rows])
    _finite(vals)
    if np.any(vals[~inside, 3:] != 0.0):
        raise CheckFailed("nonzero potential outside the domain")
    if not inside.any():
        raise CheckFailed("lattice has no inside point")
    k = int(np.nonzero(inside)[0][0])
    direct = curl_inverse(ctx.ops["ball"], ctx.g, vals[k, :3])
    if not np.array_equal(direct, vals[k, 3:]):
        raise CheckFailed("solve.csv differs from a direct R call")
    return int(inside.sum())


def grid_op(ctx, out_root, tr: Tracer | None):
    def op(lattice):
        samples = []
        with point_timer(samples):
            t1, csv1 = _solve(os.path.join(out_root, "t1"), lattice, 1)
        t2, csv2 = _solve(os.path.join(out_root, "t2"), lattice, 2)
        if csv1 != csv2:
            raise CheckFailed("solve.csv differs between threads=1 and threads=2")
        n_in = _check_grid_csv(ctx, csv1)
        if len(samples) != n_in:
            raise CheckFailed("eval_grid made the wrong number of R calls")
        out = {"points": n_in, "t1_cpu_s": t1[1], "t1_s": t1[0], "t2_s": t2[0],
               "pt_s": samples}
        if tr is not None:
            with traced(tr):
                tt, csv3 = _solve(os.path.join(out_root, "tr"), lattice, 1)
            if csv3 != csv1:
                raise CheckFailed("traced solve differs from untraced solve")
            out.update(traced_s=tt[0], traced_cpu_s=tt[1], untraced_cpu_s=t1[1])
        return out
    return op


# -- certify ------------------------------------------------------------------


def certificate(op, g, x, fd=True):
    """The values of one certify point, through module attribute lookups
    so that the traced run sees every call.  ``fd`` adds the FD Jacobian."""
    import starcurl.operators as O
    import starcurl.verify as V

    out = {}
    if fd:
        out["J"] = V.fd_jacobian(lambda p: O.curl_inverse(op, g, p), x, FD_H)
    R = O.curl_inverse(op, g, x)
    Re = O.curl_inverse_eps(op, g, x, EPS)
    G = O.grad_curl_inverse(op, g, x)
    with warnings.catch_warnings():
        # div(nonsol) has nonzero mean; B is still the quantity certified
        warnings.simplefilter("ignore")
        B = O.bogovskii(op, g.div, x)
    T = O.boundary_flux_term(op, g, x)
    out.update(R=R, Re=Re, G=G, B=B, T=T)
    return out


def decomposition_residual(c, g, x, scale):
    """max |curl_an Rg - g + B[div g] - T[g.nu]| / scale."""
    from starcurl.kernels import LEVI_CIVITA

    curl = np.einsum("ilm,ml->i", LEVI_CIVITA, c["G"])
    res = curl - np.asarray(g(x)) + c["B"] - c["T"]
    return float(np.max(np.abs(res))) / scale


def grad_error(c):
    """max |gradR - FD Jacobian| / max |FD Jacobian|."""
    return float(np.max(np.abs(c["G"] - c["J"])) / np.max(np.abs(c["J"])))


def certify_op(ctx, tr: Tracer | None):
    g = ctx.g

    def op(item):
        name, x = item
        clock = Clock()
        c = certificate(ctx.ops[name], g, x)
        cpu = clock.cpu()
        _finite(*c.values())
        resid = decomposition_residual(c, g, x, ctx.scale[name])
        gerr = grad_error(c)
        if name == "ball" and not (resid <= RESID_GATE and gerr <= GRAD_GATE):
            raise CheckFailed(f"ball certificate at {x}: residual {resid:.3e}, "
                              f"grad error {gerr:.3e}")
        out = {"pt_s": cpu}
        if tr is not None:
            gt = traced_field(tr, g)
            clock = Clock()
            with traced(tr):
                ct = certificate(ctx.ops[name], gt, x)
            out.update(traced_s=clock.wall(), traced_cpu_s=clock.cpu(),
                       untraced_cpu_s=cpu)
            for k in c:
                if not np.array_equal(c[k], ct[k]):
                    raise CheckFailed(f"traced {k} differs from untraced")
        return out
    return op


# -- radial -------------------------------------------------------------------


def radial_op(ctx, tr: Tracer | None):
    import starcurl.operators as O
    g = ctx.g

    def op(x):
        clock = Clock()
        v = O.curl_inverse(ctx.ops["table"], g, x)
        cpu = clock.cpu()
        exact = O.curl_inverse(ctx.ops["exact"], g, x)
        _finite(v, exact)
        err = float(np.max(np.abs(v - exact)) / np.max(np.abs(exact)))
        if not err <= TABLE_SANITY:
            raise CheckFailed(f"radial table R off by {err:.3e} at {x}")
        out = {"pt_s": cpu}
        if tr is not None:
            gt = traced_field(tr, g)
            clock = Clock()
            with traced(tr):
                vt = O.curl_inverse(ctx.ops["table"], gt, x)
            out.update(traced_s=clock.wall(), traced_cpu_s=clock.cpu(),
                       untraced_cpu_s=cpu)
            if not np.array_equal(v, vt):
                raise CheckFailed("traced R differs from untraced")
        return out
    return op


def make_op(ctx, out_root, tr):
    if ctx.workload == "grid":
        return grid_op(ctx, out_root, tr)
    if ctx.workload == "certify":
        return certify_op(ctx, tr)
    return radial_op(ctx, tr)


# -- accuracy panel -------------------------------------------------------------


def panel():
    """Operator values and accuracy figures at the fixed panel point.

    Returns {"values": {key: list}, "metrics": {name: float}}; the values
    are the accuracy fingerprint compared against fingerprint.json."""
    from starcurl.fields import registry_get
    from starcurl.geometry import parse_domain
    from starcurl.operators import CurlInverseOp, curl_inverse

    g = registry_get("nonsol")
    x = np.array(PANEL_X)
    values, resid = {}, {}
    metrics = {}
    for name, spec in CERTIFY_DOMAINS:
        op = CurlInverseOp(parse_domain(spec))
        c = certificate(op, g, x, fd=name == "ball")
        values.update({f"{name}.{k}": np.asarray(v).tolist()
                       for k, v in c.items() if k != "J"})
        resid[name] = decomposition_residual(c, g, x, field_scale(g, op.domain))
        if name == "ball":
            metrics["grad_fd_err"] = grad_error(c)
    v_tab = curl_inverse(CurlInverseOp(ellipsoid_table()), g, x)
    values["radial.R"] = v_tab.tolist()
    exact = np.asarray(values["ellipsoid.R"])
    metrics["resid_ball"] = resid["ball"]
    metrics["resid_offball"] = max(resid["ellipsoid"], resid["box"])
    metrics["table_err"] = float(np.max(np.abs(v_tab - exact)) / np.max(np.abs(exact)))
    return {"values": values, "metrics": metrics}


def fingerprint_drift(values: dict, reference: dict) -> float:
    """Largest relative difference of any stored value from the reference,
    each array relative to its own max magnitude."""
    worst = 0.0
    for key, ref in reference.items():
        ref = np.asarray(ref, dtype=float)
        v = np.asarray(values[key], dtype=float)
        denom = max(float(np.max(np.abs(ref))), 1e-300)
        worst = max(worst, float(np.max(np.abs(v - ref))) / denom)
    return worst


# -- statistics ---------------------------------------------------------------


def tail(samples):
    """(value, percentile, n): the TAIL_PCT percentile of the samples."""
    return float(np.percentile(samples, TAIL_PCT)), TAIL_PCT, len(samples)

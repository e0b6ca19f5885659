"""starcurl benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 35 --trace 0

Run from a checkout: the package is imported from ``src/``.  Workloads
(see workloads.py): ``grid``, ``certify``, ``radial``.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, measured with nothing wrapped; with ``--trace 1`` they are
the ``per_layer`` list: each input is then run once untraced and once
with spans around every package call, and the difference is reported as
``trace.overhead`` (in CPU time).  The lines before it give the same numbers for people,
plus a run record (machine, versions, budget, points).

Times of single-threaded work (set-up, ``pts_per_s``, ``pt_p50_s``,
``pt_tail_s``) are CPU seconds of the benchmark process; see
``workloads.Clock``.  Wall-clock figures (grid at threads=2, spans) are
printed for people and in the per-layer metrics.

``--smoke`` runs one input and a single set-up, for the tests and a quick
sanity check; never record its output as a baseline.
``--write-fingerprint`` stores the accuracy panel's values as the
reference in perfbench/fingerprint.json.

set-up (``setup_s``) is the median over three set-ups, the run's own and
two in child processes: import, domain and operator construction (the
radial table is tabulated here) and one warm-up R call.  The accuracy panel runs in a
child process too, so peak memory belongs to the workload alone.  Its values
are a function of the package sources, so a checkout computes it once and
later runs read it from ``.perfbench_out/`` (keyed by a hash of ``src/``, the
panel code and the Python and numpy versions).
"""

import os

# numpy's einsum/tensordot may start BLAS threads; every run here is
# single-threaded except grid's threads=2 pass.  Set before numpy loads,
# inherited by the child processes.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

import numpy as np  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

OPERATORS = ("curl_inverse", "curl_inverse_eps", "bogovskii",
             "grad_curl_inverse", "boundary_flux_term", "eval_grid")
KERNELS = ("kernel_N", "kernel_N_tilde", "grad_kernel_N", "kernel_aux")
PSI_KERNELS = ("kernel_N", "kernel_N_tilde", "grad_kernel_N")
LAYERS = ("smoothing", "kernels", "quadrature", "geometry", "fields",
          "operators", "verify", "export", "cli")


def use_checkout_sources():
    """Import starcurl from this checkout's src/, and from nowhere else."""
    if not (SRC / "starcurl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no starcurl package under {SRC}")
    sys.path.insert(0, str(SRC))


def child(*flags):
    """Run this script in a child process and return its last JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *flags],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_key():
    """Hash of everything the accuracy panel's values depend on."""
    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    files = sorted(p for p in SRC.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def panel_result():
    """The accuracy panel: computed in a child process the first time a
    checkout runs, read back afterwards (the values do not change while the
    sources do not)."""
    path = OUT / f"panel-{source_key()}.json"
    if path.is_file():
        return json.loads(path.read_text())
    pnl = child("--panel")
    OUT.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(pnl))
    os.replace(tmp, path)    # atomic: a concurrent run reads all or nothing
    return pnl


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metrics ----------------------------------------------------------------


def n_points(ctx, results):
    if ctx.workload == "grid":
        return sum(r["points"] for r in results)
    return len(results)


def end_to_end(ctx, results, setups, accuracy):
    """Every end-to-end metric, plus the figures only people read."""
    if ctx.workload == "grid":
        samples = [s for r in results for s in r["pt_s"]]
        t1 = sum(r["t1_s"] for r in results)
        t2 = sum(r["t2_s"] for r in results)
        pts = n_points(ctx, results)
        rate = pts / sum(r["t1_cpu_s"] for r in results)
        # wall-clock figures of the thread pool, for people only
        extra = {"pts_per_s_2t": pts / t2, "thread_eff": t1 / (2.0 * t2)}
    else:
        samples = [r["pt_s"] for r in results]
        rate, extra = len(samples) / sum(samples), {}
    tail, pct, n = W.tail(samples)
    m = {"setup_s": statistics.median(setups), "pts_per_s": rate,
         "pt_p50_s": statistics.median(samples), "pt_tail_s": tail,
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    m.update(accuracy)
    extra.update(tail_pct=pct, n_samples=n, samples_s=samples)
    return m, extra


def per_layer(ctx, results, spans, drift):
    """Every per-layer metric from the traced spans; a layer that did not
    run in this workload reads 0."""
    S = T.summary(spans)
    none = T.NameStats()
    get = lambda name: S.get(name, none)
    ratio = lambda a, b: a / b if b else 0.0
    pts = n_points(ctx, results)
    m = {}

    psi_below = T.descendant_totals(
        spans, ["operators.curl_inverse"] + [f"kernels.{k}" for k in PSI_KERNELS],
        "smoothing.psi", "count")
    for attr in ("psi", "grad_psi"):
        s = get(f"smoothing.{attr}")
        m[f"smoothing.{attr}.evals"] = s.count
        m[f"smoothing.{attr}.s"] = s.total_s
        m[f"smoothing.{attr}.useful_ratio"] = ratio(s.useful, s.count)
    R = get("operators.curl_inverse")
    m["smoothing.psi.evals_per_R"] = ratio(psi_below["operators.curl_inverse"], R.calls)

    for k in KERNELS:
        s = get(f"kernels.{k}")
        m[f"kernels.{k}.pairs"] = s.count
        m[f"kernels.{k}.self_s"] = s.self_s
    m["kernels.psi_evals_per_pair"] = ratio(
        sum(psi_below[f"kernels.{k}"] for k in PSI_KERNELS),
        sum(get(f"kernels.{k}").count for k in PSI_KERNELS))

    ibs = get("quadrature.integrate_ball_singular")
    nodes = T.descendant_totals(spans, ["quadrature.integrate_ball_singular"],
                                "operators.integrand", "count")
    m["quadrature.integrate_ball_singular.calls"] = ibs.calls
    m["quadrature.integrate_ball_singular.nodes_per_call"] = ratio(
        nodes["quadrature.integrate_ball_singular"], ibs.calls)
    m["quadrature.integrate_ball_singular.self_s"] = ibs.self_s
    m["quadrature.boundary_quadrature.s"] = get("quadrature.boundary_quadrature").total_s
    m["quadrature.integrate_sphere_cap.s"] = get("quadrature.integrate_sphere_cap").total_s

    s = get("geometry.contains")
    m.update({"geometry.contains.calls": s.calls, "geometry.contains.points": s.count,
              "geometry.contains.s": s.total_s})
    s = get("geometry.ray_segments")
    m.update({"geometry.ray_segments.calls": s.calls, "geometry.ray_segments.s": s.total_s,
              "geometry.ray_segments.calls_per_point": ratio(s.calls, pts)})
    s = get("fields.eval")
    m.update({"fields.eval.points": s.count, "fields.eval.s": s.total_s})

    ball_ints = T.descendant_totals(spans, [f"operators.{o}" for o in OPERATORS],
                                    "quadrature.integrate_ball_singular")
    for o in OPERATORS:
        s = get(f"operators.{o}")
        m[f"operators.{o}.calls"] = s.calls
        m[f"operators.{o}.p50_s"] = s.p50_s
        m[f"operators.{o}.self_s"] = s.self_s
        m[f"operators.{o}.ball_integrals_per_call"] = ratio(ball_ints[f"operators.{o}"], s.calls)
    m["operators.eval_grid.thread_eff"] = (
        ratio(sum(r["t1_s"] for r in results), 2.0 * sum(r["t2_s"] for r in results))
        if ctx.workload == "grid" else 0.0)
    m["operators.fingerprint_max_rel"] = drift

    s = get("verify.fd_jacobian")
    m.update({"verify.fd_jacobian.calls": s.calls, "verify.fd_jacobian.s": s.total_s,
              "verify.R_calls_per_point": ratio(R.calls, pts)})
    csv_, vtk = get("export.grid_to_csv"), get("export.grid_to_vtk")
    m.update({"export.grid_to_csv.s": csv_.total_s, "export.grid_to_vtk.s": vtk.total_s,
              "export.bytes": csv_.count + vtk.count,
              "cli.self_s": get("cli.main").self_s})

    traced = sum(r["traced_s"] for r in results)
    layer = T.layer_self_times(spans)
    for name in LAYERS:
        m[f"layer.{name}.self_share"] = ratio(layer.get(name, 0.0), traced)
    m["trace.overhead"] = ratio(sum(r["traced_cpu_s"] for r in results),
                                sum(r["untraced_cpu_s"] for r in results)) - 1.0
    return m


# -- the run ----------------------------------------------------------------


def measure(workload, seed, seconds, trace, smoke):
    """Set up, run the closed loop, return (setup seconds, ctx, loop, tracer)."""
    setup_s, ctx = W.setup(workload)
    tr = T.Tracer() if trace else None
    out_root = OUT / str(os.getpid())
    try:
        loop = W.closed_loop(W.make_inputs(ctx, seed),
                             W.make_op(ctx, str(out_root), tr), seconds,
                             max_items=1 if smoke else None)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)    # OUT keeps the panel
    return setup_s, ctx, loop, tr


def run_record(args, ctx, loop, setups, extra):
    from starcurl.quadrature import QuadratureConfig, sphere_rule_from_count

    quad = QuadratureConfig()
    rules = {}
    for key in ("sphere_nodes", "n_surface"):
        r = sphere_rule_from_count(getattr(quad, key))
        rules[key] = f"{getattr(quad, key)} -> {r.n_polar}x{r.n_azimuth}"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "quad": asdict(quad), "sphere_rules": rules,
        "points": n_points(ctx, loop.results), "inputs": loop.attempted,
        "fail_ratio": loop.failed / loop.attempted,
        "setup_samples_s": setups, "panel_point": W.PANEL_X, **extra,
    }


def bench(args):
    spec = load_spec()
    setup_s, ctx, loop, tr = measure(args.workload, args.seed, args.seconds,
                                     args.trace, args.smoke)
    if not loop.results:
        raise SystemExit(f"perfbench: all {loop.attempted} operations failed")
    setups = [setup_s] + [child("--setup-probe", args.workload)["setup_s"]
                          for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)]
    pnl = panel_result()
    reference = json.loads((HERE / "fingerprint.json").read_text())
    drift = W.fingerprint_drift(pnl["values"], reference["values"])

    e2e, extra = end_to_end(ctx, loop.results, setups, pnl["metrics"])
    if args.trace:
        metrics, kind = per_layer(ctx, loop.results, tr.spans, drift), "per_layer"
    else:
        metrics, kind = e2e, "end_to_end"
    units = {d["name"]: d["unit"] for d in spec[kind]}
    if set(metrics) != set(units):
        raise SystemExit("perfbench: metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' SMOKE (not a baseline)' if args.smoke else ''}: "
          f"{loop.attempted} attempted, {loop.failed} failed")
    for name, v in {**e2e, "fingerprint_max_rel": drift,
                    "fail_ratio": loop.failed / loop.attempted, **extra}.items():
        if name != "samples_s":
            print(f"  {name:<24} {v:.6g}")
    if args.trace:
        for name, v in metrics.items():
            print(f"  {name:<56} {v:.6g} {units[name]}")
    print("record: " + json.dumps(run_record(args, ctx, loop, setups, extra)))
    print(json.dumps({
        "correct": loop.failed == 0, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one input and one set-up; never a baseline")
    p.add_argument("--write-fingerprint", action="store_true",
                   help="store the accuracy panel as the reference")
    p.add_argument("--setup-probe", choices=W.WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("--panel", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    use_checkout_sources()
    if args.setup_probe:
        print(json.dumps({"setup_s": W.setup(args.setup_probe)[0]}))
    elif args.panel:
        print(json.dumps(W.panel()))
    elif args.write_fingerprint:
        pnl = W.panel()
        (HERE / "fingerprint.json").write_text(json.dumps(
            {"point": W.PANEL_X, "values": pnl["values"]}, indent=1) + "\n")
    elif args.workload:
        bench(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()

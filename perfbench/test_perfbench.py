"""Tests for the benchmark itself.

    python3 -m pytest perfbench

They use the smoke mode (one input per workload), so they take about a
minute; none of their numbers is a baseline.
"""

import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run
import tracer as T
import workloads as W

run.use_checkout_sources()

EXACT_COUNTERS = (
    "quadrature.integrate_ball_singular.nodes_per_call",
    "smoothing.psi.evals_per_R",
    "verify.R_calls_per_point",
    "geometry.ray_segments.calls_per_point",
    "kernels.psi_evals_per_pair",
)


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def test_raising_and_nan_operations_are_counted_and_the_run_goes_on():
    def op(item):
        if item == 1:
            raise RuntimeError("operation raised")
        if item == 2:
            return {"v": float("nan")}
        if item == 3:
            return {"v": [1.0, float("inf")]}
        return {"v": 1.0}

    res = W.closed_loop(range(5), op, seconds=60.0)
    assert (res.attempted, res.failed, len(res.results)) == (5, 3, 2)


def test_closed_loop_sends_at_least_one_item_and_stops_at_the_deadline():
    res = W.closed_loop(range(100), lambda i: {"v": time.sleep(0.01) or 1.0},
                        seconds=0.0)
    assert res.attempted == 1
    res = W.closed_loop(range(100), lambda i: {"v": time.sleep(0.01) or 1.0},
                        seconds=0.05)
    assert 2 <= res.attempted < 100


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [T.Span("a", -1, 0.0, 10.0),
             T.Span("b", 0, 1.0, 4.0),
             T.Span("c", 1, 2.0, 3.0),
             T.Span("d", 0, 3.5, 6.0)]     # overlaps b: union 1..6
    assert T.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])
    assert T.layer_self_times(
        [T.Span("x.f", -1, 0.0, 2.0), T.Span("y.g", 0, 0.5, 1.0)]
    ) == pytest.approx({"x": 1.5, "y": 0.5})


def test_wrapped_calls_nest_count_and_restore():
    tr = T.Tracer()
    ns = SimpleNamespace(inner=lambda n: list(range(n)))
    ns.outer = lambda: ns.inner(3) + ns.inner(4)
    with tr.patched([(ns, "inner", "m.inner", ns.inner,
                      lambda a, out: len(out), None),
                     (ns, "outer", "m.outer", ns.outer, None, None)]):
        assert ns.outer() == [0, 1, 2, 0, 1, 2, 3]
    assert ns.inner(2) == [0, 1] and len(tr.spans) == 3   # originals back
    assert [(s.name, s.parent, s.count) for s in tr.spans] == [
        ("m.outer", -1, 0), ("m.inner", 0, 3), ("m.inner", 0, 4)]
    outer = tr.spans[0]
    st = T.self_times(tr.spans)
    assert sum(st) == pytest.approx(outer.end - outer.start, abs=1e-12)
    s = T.summary(tr.spans)["m.inner"]
    assert (s.calls, s.count) == (2, 7)
    assert T.descendant_totals(tr.spans, ["m.outer"], "m.inner", "count") == {"m.outer": 7}


def test_printed_metric_names_and_units_match_benchmark_json():
    spec = run.load_spec()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", "grid", "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] == 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == {
            d["name"]: d["unit"] for d in spec[kind]}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_exact_counters_repeat_bit_for_bit(workload):
    def counters():
        _, ctx, loop, tr = run.measure(workload, 5, 0.0, True, True)
        assert loop.failed == 0
        m = run.per_layer(ctx, loop.results, tr.spans, 0.0)
        return {k: m[k] for k in EXACT_COUNTERS}

    first, second = counters(), counters()
    assert first == second
    assert first["quadrature.integrate_ball_singular.nodes_per_call"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "grid", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

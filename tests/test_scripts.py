"""The study scripts start: each one imports what it needs from the package
and prints its usage, and the decomposition script closes its residual.
The benchmark's tracer finds every package name it wraps, and every name
the package exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import starcurl

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    res = _run_with_package([str(script), "--help"])
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def test_flux_decomposition_residual_is_small():
    # default ball and field constant:1,0,0; the last column is the residual
    script = ROOT / "scripts" / "flux_decomposition.py"
    res = _run_with_package([str(script), "--n", "1"])
    assert res.returncode == 0, res.stderr
    rows = res.stdout.strip().splitlines()[2:]
    assert len(rows) == 1
    assert float(rows[0].split()[-1]) <= 5e-3, res.stdout


def test_perfbench_trace_targets_resolve():
    # trace_targets looks up each wrapped name with getattr, so a renamed or
    # deleted package function fails here, not only in the benchmark's suite
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from tracer import Tracer; from workloads import trace_targets; "
            "assert trace_targets(Tracer())")
    res = _run_with_package(["-B", "-c", code, str(ROOT / "perfbench")])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("module", ["starcurl"] + [
    f"starcurl.{m.name}" for m in pkgutil.iter_modules(starcurl.__path__)])
def test_star_import_resolves_every_public_name(module):
    # a renamed or deleted export must not leave a stale __all__ entry
    names = {}
    exec(f"from {module} import *", names)
    public = importlib.import_module(module).__all__
    assert len(set(public)) == len(public)
    assert [n for n in public if n not in names] == []


def _run_with_package(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)

"""Command-line front end.

One flat INI config drives every subcommand; flags override file values,
and the effective configuration is dumped next to the outputs so any run
can be reproduced from its artifacts alone.  Reports land as CSV with a
one-line summary on stdout.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad configuration
(including a check that the domain cannot run), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import Callable

import numpy as np

from .export import grid_to_csv, grid_to_vtk, report_to_csv
from .fields import VectorField, modulus_of_continuity, parse_field
from .geometry import contains, parse_domain, sample_interior, validate_star_shape
from .operators import CurlInverseOp, domain_integral, eval_grid
from .quadrature import QuadratureConfig
from .verify import (boundary_check, curl_check, dini_report, div_check,
                     eps_report, eps_study, forms_check, grad_check)

__all__ = ["RunConfig", "load_config", "dump_config", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  String specs stay strings here so the
    round trip config -> dump -> reload is the identity; parsing into
    domain/field objects happens at execution time."""

    domain: str = "ball:r0=2"
    field: str = "rigid"
    seed: int = 0
    threads: int = 1
    out_dir: str = "."
    quad: QuadratureConfig = dc_field(default_factory=QuadratureConfig)
    grid_origin: tuple = (-2.2, -2.2, -2.2)
    grid_spacing: tuple = (0.55, 0.55, 0.55)
    grid_counts: tuple = (9, 9, 9)
    # check knobs; "auto" defers to the per-command default
    h: str = "auto"
    tol: str = "auto"
    n_points: str = "auto"
    margin: float = 0.1
    eps_list: tuple = (0.4, 0.2, 0.1, 0.05)
    point: tuple = (0.3, 0.0, 0.0)
    scalar: str = "linear"


def _fmt_scalar(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _fmt_tuple(t) -> str:
    return ",".join(f"{float(v):.17g}" for v in t)


def _fmt_ints(t) -> str:
    return ",".join(str(v) for v in t)


def _parse_floats(s: str) -> tuple:
    return tuple(float(v) for v in s.split(","))


def _parse_ints(s: str) -> tuple:
    return tuple(int(v) for v in s.split(","))


@dataclass(frozen=True)
class _Option:
    """One configuration value: its INI section and key, its command-line
    flag, and how its text is read and written.  [quad] keys set the
    QuadratureConfig field of that name, [grid] keys set grid_<key>, and
    the other keys set the RunConfig field of that name."""

    section: str
    key: str
    flag: str
    parse: Callable = str
    fmt: Callable = _fmt_scalar
    help: str | None = None
    choices: tuple | None = None

    @property
    def attr(self) -> str:
        return f"grid_{self.key}" if self.section == "grid" else self.key

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace(".", "_").replace("-", "_")


# the order here is the order of effective.ini and of the --help listing
_OPTIONS = (
    _Option("run", "domain", "--domain",
            help="e.g. ball:r0=2, ellipsoid:a=2,b=3,c=2.5, box:h=2,2,3, "
                 "radial:file=PATH"),
    _Option("run", "field", "--field", help="e.g. rigid, trig, constant:1,0,0"),
    _Option("run", "seed", "--seed", int),
    _Option("run", "threads", "--threads", int),
    _Option("run", "out_dir", "--out-dir"),
    *(_Option("quad", f.name, f"--quad.{f.name}", type(f.default))
      for f in fields(QuadratureConfig)),
    _Option("grid", "origin", "--grid.origin", _parse_floats, _fmt_tuple),
    _Option("grid", "spacing", "--grid.spacing", _parse_floats, _fmt_tuple),
    _Option("grid", "counts", "--grid.counts", _parse_ints, _fmt_ints),
    _Option("check", "h", "--h", help="FD step; 'auto' = 1e-3 * diameter"),
    _Option("check", "tol", "--tol",
            help="check tolerance; 'auto' = per-command default, "
                 "scale-aware for curl-check"),
    _Option("check", "n_points", "--n-points", help="check sample size"),
    _Option("check", "margin", "--margin", float,
            help="radial clearance for interior check points"),
    _Option("check", "eps_list", "--eps", _parse_floats, _fmt_tuple,
            help="comma list of cutoff radii, decreasing"),
    _Option("check", "point", "--point", _parse_floats, _fmt_tuple,
            help="evaluation point x,y,z for eps-study"),
    _Option("check", "scalar", "--scalar", help="right-hand side for div-solve",
            choices=("linear", "coslin", "divfield")),
)

_BY_KEY = {(o.section, o.key): o for o in _OPTIONS}


def _with_values(cfg: RunConfig, values) -> RunConfig:
    """cfg with each (option, value) pair applied; [quad] values replace
    fields of cfg.quad."""
    updates, quad_kw = {}, {}
    for opt, v in values:
        (quad_kw if opt.section == "quad" else updates)[opt.attr] = v
    if quad_kw:
        updates["quad"] = replace(cfg.quad, **quad_kw)
    return replace(cfg, **updates) if updates else cfg


def load_config(path: str) -> RunConfig:
    """Read a flat INI file into a RunConfig; unknown keys are an error so a
    typo cannot silently fall back to a default."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    read = cp.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")

    def values():
        for section in cp.sections():
            for key, val in cp.items(section):
                if (section, key) not in _BY_KEY:
                    raise ValueError(f"unknown config key [{section}] {key}")
                opt = _BY_KEY[(section, key)]
                yield opt, opt.parse(val)

    return _with_values(RunConfig(), values())


def dump_config(cfg: RunConfig, path: str) -> None:
    """Write the effective configuration; load_config(dump) == cfg."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for opt in _OPTIONS:
        if not cp.has_section(opt.section):
            cp.add_section(opt.section)
        owner = cfg.quad if opt.section == "quad" else cfg
        cp[opt.section][opt.key] = opt.fmt(getattr(owner, opt.attr))
    with open(path, "w") as fh:
        cp.write(fh)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="starcurl",
        description="curl/divergence inverse operators on star-shaped "
                    "domains: solve, verify, study.")
    p.add_argument("command", choices=tuple(_COMMANDS))
    p.add_argument("--config", help="INI config file; flags override it")
    for opt in _OPTIONS:
        # numbers are converted by argparse; strings and tuples by opt.parse
        kind = opt.parse if opt.parse in (int, float) else None
        p.add_argument(opt.flag, dest=opt.dest, type=kind, help=opt.help,
                       choices=opt.choices)
    return p


def _merge_flags(cfg: RunConfig, ns: argparse.Namespace) -> RunConfig:
    return _with_values(cfg, ((opt, opt.parse(getattr(ns, opt.dest)))
                              for opt in _OPTIONS
                              if getattr(ns, opt.dest) is not None))


def _validate(cfg: RunConfig) -> None:
    """Reject spec strings, choices and numeric knobs that no command could
    use, whether they came from the config file or from a flag."""
    dom = parse_domain(cfg.domain)
    parse_field(cfg.field)
    for opt in _OPTIONS:
        if opt.choices and getattr(cfg, opt.attr) not in opt.choices:
            raise ValueError(f"{opt.key} must be one of {', '.join(opt.choices)}, "
                             f"got {getattr(cfg, opt.attr)!r}")
    if cfg.h != "auto" and not 0.0 < float(cfg.h) < math.inf:
        raise ValueError(f"h must be a positive finite step, got {cfg.h}")
    if cfg.tol != "auto" and not 0.0 <= float(cfg.tol) < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {cfg.tol}")
    if not 0.0 <= cfg.margin < dom.circumradius:
        raise ValueError(f"margin must be non-negative and below the domain's "
                         f"circumradius {dom.circumradius:g}, got {cfg.margin}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    eps = cfg.eps_list
    if not (all(0.0 < e < math.inf for e in eps)
            and all(a > b for a, b in zip(eps, eps[1:]))):
        raise ValueError("eps must be positive finite radii in strictly "
                         "decreasing order, got " + _fmt_tuple(eps))
    if cfg.n_points != "auto" and int(cfg.n_points) < 1:
        raise ValueError(f"n_points must be at least 1, got {cfg.n_points}")
    if cfg.threads < 1:
        raise ValueError(f"threads must be at least 1, got {cfg.threads}")
    if len(cfg.grid_counts) != 3 or min(cfg.grid_counts) < 1:
        raise ValueError("grid counts must be three positive integers, got "
                         + _fmt_ints(cfg.grid_counts))
    for name, v in (("grid origin", cfg.grid_origin),
                    ("grid spacing", cfg.grid_spacing), ("point", cfg.point)):
        if len(v) != 3 or not all(math.isfinite(c) for c in v):
            raise ValueError(f"{name} must be three finite numbers, got "
                             + _fmt_tuple(v))
    if not contains(dom, cfg.point):
        raise ValueError("point must lie in the domain, got " + _fmt_tuple(cfg.point))
    if min(cfg.grid_spacing) <= 0.0:
        raise ValueError("grid spacing must be positive, got "
                         + _fmt_tuple(cfg.grid_spacing))


# -- commands -------------------------------------------------------------------
#
# A driver takes (cfg, op, g, n, tol, csv_path) and returns (passed, text):
# it writes its CSV, and text is what goes to stdout.


def _verdict(passed: bool) -> str:
    return "[PASS]" if passed else "[FAIL]"


def _points(cfg: RunConfig, op: CurlInverseOp, n: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    return sample_interior(op.domain, n, rng, margin=cfg.margin)


def _step(cfg: RunConfig) -> dict:
    """The FD step as a keyword; "auto" leaves each check its own default."""
    return {} if cfg.h == "auto" else {"h": float(cfg.h)}


def _reported(rep, path: str):
    report_to_csv(rep, path)
    return rep.passed, rep.summary()


def _solve(cfg, op, g, n, tol, path):
    grid = eval_grid(op, g, cfg.grid_origin, cfg.grid_spacing,
                     cfg.grid_counts, threads=cfg.threads)
    grid_to_csv(grid, path)
    grid_to_vtk(grid, os.path.join(cfg.out_dir, "solve.vtk"))
    total = int(np.prod(cfg.grid_counts))
    return True, (f"solve: {total} points ({int(grid.inside.sum())} inside) "
                  f"-> solve.csv, solve.vtk")


def _curl_check(cfg, op, g, n, tol, path):
    return _reported(curl_check(op, g, _points(cfg, op, n), tol=tol,
                                **_step(cfg)), path)


def _grad_check(cfg, op, g, n, tol, path):
    return _reported(grad_check(op, g, _points(cfg, op, n), tol=tol,
                                **_step(cfg)), path)


def _equiv_check(cfg, op, g, n, tol, path):
    return _reported(forms_check(op, g, _points(cfg, op, n), tol=tol), path)


def _boundary_check(cfg, op, g, n, tol, path):
    return _reported(boundary_check(op, g, n_points=n, tol=tol,
                                    seed=cfg.seed), path)


def _scalar_rhs(cfg: RunConfig, op: CurlInverseOp, g: VectorField):
    """Right-hand sides for the divergence solve.  `coslin` subtracts the
    domain mean so the solvability constraint holds; `divfield` uses the
    closed-form divergence of the configured field."""
    if cfg.scalar == "linear":
        return lambda y: np.asarray(y, dtype=float)[..., 0], "y1"
    if cfg.scalar == "coslin":
        raw = lambda y: np.cos(np.asarray(y, dtype=float)[..., 0])
        vol = domain_integral(op, lambda y: np.ones(np.asarray(y).shape[0]))
        mean = domain_integral(op, raw) / vol
        return lambda y: raw(y) - mean, f"cos(y1) - {mean:.6g}"
    if g.div is None:
        raise ValueError(f"field {g.name!r} carries no closed-form divergence")
    return g.div, f"div {g.name}"


def _div_solve(cfg, op, g, n, tol, path):
    F, label = _scalar_rhs(cfg, op, g)
    passed, text = _reported(div_check(op, F, _points(cfg, op, n), tol=tol,
                                       **_step(cfg)), path)
    return passed, f"rhs: {label}\n{text}"


def _eps_study(cfg, op, g, n, tol, path):
    tab = eps_study(op, g, cfg.point, cfg.eps_list)
    passed, _ = _reported(eps_report(tab), path)
    return passed, f"{tab.summary()} {_verdict(passed)}"


def _dini(cfg, op, g, n, tol, path):
    table = modulus_of_continuity(g, op.domain, seed=cfg.seed)
    passed, _ = _reported(dini_report(g, table), path)
    return passed, (f"dini: field={g.name} smoothness={g.smoothness} "
                    f"integral={table.dini_integral:.4f} diverging: "
                    f"{'true' if table.diverging else 'false'} "
                    f"{_verdict(passed)}")


def _validate_domain(cfg, op, g, n, tol, path):
    violations, witnesses = validate_star_shape(op.domain, seed=cfg.seed)
    lines = [f"validate-domain: {cfg.domain} -> {violations} violations"]
    lines += [f"  witness: segment from {b} to {z} leaves at t={t}"
              for b, z, t in witnesses[:5]]
    return violations == 0, "\n".join(lines)


def _curl_tol(cfg: RunConfig, g: VectorField, op: CurlInverseOp) -> float:
    """Scale-aware curl-check tolerance from the sampled sup of |g|."""
    rng = np.random.default_rng(cfg.seed)
    sup = float(np.max(np.abs(g(sample_interior(op.domain, 4096, rng)))))
    loose = g.smoothness.startswith(("hoelder", "non-dini", "dini"))
    return 5e-2 if loose else 1e-3 * (1.0 + sup)


@dataclass(frozen=True)
class _Command:
    """A subcommand: its driver, the sample size and tolerance that stand
    in for "auto" (tol may be a function of (cfg, g, op)), and its CSV."""

    driver: Callable
    n_points: int | None = None
    tol: float | Callable | None = None
    csv: str | None = None


_COMMANDS = {
    "solve": _Command(_solve, csv="solve.csv"),
    "curl-check": _Command(_curl_check, 20, _curl_tol, "curl_check.csv"),
    "grad-check": _Command(_grad_check, 10, 1e-3, "grad_check.csv"),
    "eps-study": _Command(_eps_study, csv="eps_study.csv"),
    "equiv-check": _Command(_equiv_check, 10, 1e-10, "equiv_check.csv"),
    "boundary-check": _Command(_boundary_check, 100, 0.0,
                               "boundary_check.csv"),
    "div-solve": _Command(_div_solve, 10, 1e-3, "div_solve.csv"),
    "dini": _Command(_dini, csv="dini.csv"),
    "validate-domain": _Command(_validate_domain),
}


def _run(cfg: RunConfig, command: str) -> int:
    cmd = _COMMANDS[command]
    dom = parse_domain(cfg.domain)
    g = parse_field(cfg.field)
    op = CurlInverseOp(dom, quad=cfg.quad)
    n = tol = None
    if cmd.n_points is not None:
        n = cmd.n_points if cfg.n_points == "auto" else int(cfg.n_points)
        tol = cmd.tol if cfg.tol == "auto" else float(cfg.tol)
        if callable(tol):
            tol = tol(cfg, g, op)
    path = os.path.join(cfg.out_dir, cmd.csv) if cmd.csv else None
    passed, text = cmd.driver(cfg, op, g, n, tol, path)
    print(text)
    return 0 if passed else 1


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = load_config(ns.config) if ns.config else RunConfig()
        cfg = _merge_flags(cfg, ns)
        _validate(cfg)
    except (ValueError, KeyError, configparser.Error) as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        dump_config(cfg, os.path.join(cfg.out_dir, "effective.ini"))
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 3
    try:
        return _run(cfg, ns.command)
    except (ValueError, KeyError, NotImplementedError) as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the command line driver: config round trips, exit
codes, and the files each command leaves behind.  All runs go through
main(argv) in process with budgets cut far below the defaults."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from starcurl.cli import (RunConfig, _build_parser, _merge_flags, _validate,
                          dump_config, load_config, main)
from starcurl.geometry import (boundary_distance, ellipsoid,
                               radial_from_function, save_radial_table)
from starcurl.quadrature import QuadratureConfig


def run(tmp_path, command, *flags):
    return main([command, "--out-dir", str(tmp_path), *flags])


# -- configuration ------------------------------------------------------------


def test_config_round_trip_is_identity(tmp_path):
    cfg = RunConfig(domain="ellipsoid:a=2,b=3,c=2.5", field="constant:1,0,0",
                    seed=7, threads=2, out_dir="runs",
                    quad=QuadratureConfig(n_alpha=24),
                    grid_origin=(-1.1, -2.2, -3.3), grid_counts=(5, 6, 7),
                    h="2e-3", tol="1e-4", n_points="12", margin=0.17,
                    eps_list=(0.3, 0.15, 0.05), point=(0.1, 0.2, 0.3),
                    scalar="coslin")
    p1 = tmp_path / "a.ini"
    p2 = tmp_path / "b.ini"
    dump_config(cfg, str(p1))
    back = load_config(str(p1))
    assert back == cfg
    dump_config(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# effective.ini of the RunConfig below, byte for byte
GOLDEN_INI = """\
[run]
domain = box:h=1.5,2,2.5
field = constant:0.5,-2,3
seed = 11
threads = 3
out_dir = runs/a

[quad]
n_alpha = 12
n_rho = 20
sphere_nodes = 590
n_surface = 266

[grid]
origin = -1.1000000000000001,0,0.0025000000000000001
spacing = 0.10000000000000001,0.20000000000000001,0.33333333333333331
counts = 4,5,6

[check]
h = 2e-3
tol = 1e-4
n_points = 12
margin = 0.17000000000000001
eps_list = 0.29999999999999999,0.14999999999999999,0.050000000000000003
point = 0.10000000000000001,-0.20000000000000001,0.29999999999999999
scalar = divfield

"""


def test_effective_ini_bytes_are_pinned(tmp_path):
    cfg = RunConfig(domain="box:h=1.5,2,2.5", field="constant:0.5,-2,3",
                    seed=11, threads=3, out_dir="runs/a",
                    quad=QuadratureConfig(n_alpha=12, n_rho=20,
                                          sphere_nodes=590, n_surface=266),
                    grid_origin=(-1.1, 0.0, 2.5e-3),
                    grid_spacing=(0.1, 0.2, 1.0 / 3.0), grid_counts=(4, 5, 6),
                    h="2e-3", tol="1e-4", n_points="12", margin=0.17,
                    eps_list=(0.3, 0.15, 0.05), point=(0.1, -0.2, 0.3),
                    scalar="divfield")
    path = tmp_path / "effective.ini"
    dump_config(cfg, str(path))
    assert path.read_bytes() == GOLDEN_INI.encode("ascii")
    assert load_config(str(path)) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[check]\ntolx = 1e-3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(p))
    assert main(["curl-check", "--config", str(p)]) == 2


def test_config_file_must_exist(tmp_path):
    missing = str(tmp_path / "nope.ini")
    with pytest.raises(ValueError, match="not found"):
        load_config(missing)
    assert main(["curl-check", "--config", missing]) == 2


def test_bad_specs_exit_2(tmp_path, capsys):
    assert run(tmp_path, "curl-check", "--field", "vortex") == 2
    assert run(tmp_path, "curl-check", "--domain", "torus:r=2") == 2
    assert run(tmp_path, "curl-check", "--tol", "tight") == 2
    # radial tables too small to interpolate (one cos(theta) row, no grid)
    # or with a radius that is not finite
    for name, text in (("one_row.txt", "1,1\n1.5\n"), ("empty.txt", "0,0\n"),
                       ("inf.txt", "2,2\n1.5\n1.5\ninf\n1.5\n"),
                       ("nan.txt", "2,2\n1.5\n1.5\nnan\n1.5\n")):
        table = tmp_path / name
        table.write_text(text)
        assert run(tmp_path, "validate-domain",
                   "--domain", f"radial:file={table}") == 2
    err = capsys.readouterr().err
    assert "bad configuration: radial table grid 1 x 1" in err
    assert "bad configuration: radial table grid 0 x 0" in err
    assert err.count("bad configuration: radial table radii must be finite") == 2


@pytest.mark.parametrize("argv", [
    ("curl-check", "--n-points", "0"),
    ("grad-check", "--n-points", "0"),
    ("equiv-check", "--n-points", "0"),
    ("boundary-check", "--n-points", "0"),
    ("div-solve", "--n-points", "-3"),
    ("solve", "--threads", "-4"),
    ("solve", "--threads", "0"),
    ("solve", "--grid.counts", "0,3,3"),
    ("solve", "--grid.counts", "3,3"),
    ("solve", "--grid.counts", "3,3,3,3"),
    ("solve", "--grid.origin", "1,2"),
    ("solve", "--grid.origin", "0,inf,0"),
    ("solve", "--grid.spacing", "0,0,0"),
    ("solve", "--grid.spacing", "0.5,-0.5,0.5"),
    ("solve", "--grid.spacing", "nan,1,1"),
    ("eps-study", "--point", "0.3,0"),
    ("eps-study", "--point", "0.3,0,nan"),
    ("curl-check", "--n-points", "1", "--tol", "nan"),
    ("curl-check", "--n-points", "1", "--tol", "-1"),
    ("grad-check", "--h", "0"),
    ("grad-check", "--h", "nan"),
    ("eps-study", "--eps", "0.4,-0.2"),
    ("eps-study", "--eps", "0.1,0.2"),
    ("eps-study", "--eps", "0.4"),
    ("curl-check", "--seed", "-1"),
    ("curl-check", "--n-points", "1", "--margin", "nan"),
    ("curl-check", "--n-points", "1", "--margin", "-5"),
    ("curl-check", "--n-points", "1", "--margin", "5"),
    ("curl-check", "--field", "constant:1,0"),
    ("curl-check", "--field", "constant:1,0,0,0"),
    ("solve", "--field", "constant:nan,0,0", "--grid.counts", "1,1,1",
     "--grid.origin", "0,0,0"),
    ("solve", "--domain", "ball:r0=2,rr=3"),
    ("solve", "--domain", "ellipsoid:a=2,b=2.5,c=3,a=4"),
    ("eps-study", "--point", "5,0,0"),
], ids=" ".join)
def test_bad_counts_exit_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert "bad configuration" in capsys.readouterr().err
    assert not (tmp_path / "effective.ini").exists()


def test_removed_r_factor_is_refused(tmp_path, capsys):
    # B_R's radius is fixed: neither the flag nor the INI key exists
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "grad-check", "--n-points", "1", "--quad.r_factor", "1.05")
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad.r_factor" in capsys.readouterr().err
    ini = tmp_path / "old.ini"
    ini.write_text("[quad]\nr_factor = 1.05\n")
    assert main(["grad-check", "--config", str(ini), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert "unknown config key [quad] r_factor" in capsys.readouterr().err
    assert not (tmp_path / "out" / "effective.ini").exists()


def test_bad_config_file_choice_exits_2(tmp_path, capsys):
    # the file path must check the same choices as the --scalar flag
    ini = tmp_path / "bad.ini"
    ini.write_text("[check]\nscalar = bogus\n")
    out = tmp_path / "out"
    assert main(["div-solve", "--config", str(ini), "--field", "nonsol",
                 "--n-points", "1", "--out-dir", str(out)]) == 2
    assert "scalar must be one of" in capsys.readouterr().err
    assert not (out / "effective.ini").exists()


def test_readme_commands_parse_and_validate():
    # every `starcurl ...` line of the README is a command the CLI accepts;
    # parsed, merged and validated only, never run
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln.strip() for ln in readme.read_text().splitlines()]
    commands = [ln for ln in lines if ln.startswith("starcurl ")]
    assert commands
    for line in commands:
        ns = _build_parser().parse_args(shlex.split(line)[1:])
        _validate(_merge_flags(RunConfig(), ns))


def test_unwritable_out_dir_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["eps-study", "--out-dir", str(blocker / "sub")]) == 3


# -- solve ---------------------------------------------------------------------


SOLVE_FLAGS = ("--grid.origin=-1.9,-1.9,-1.9", "--grid.spacing", "1.9,1.9,1.9",
               "--grid.counts", "3,3,3")


def test_solve_outputs_and_determinism(tmp_path, capsys):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    assert run(dirs[0], "solve", *SOLVE_FLAGS) == 0
    assert run(dirs[1], "solve", *SOLVE_FLAGS) == 0
    assert run(dirs[2], "solve", *SOLVE_FLAGS, "--threads", "2") == 0
    out = capsys.readouterr().out
    assert "27 points (7 inside)" in out

    for name in ("solve.csv", "solve.vtk", "effective.ini"):
        assert (dirs[0] / name).is_file()
    # identical bytes across re-runs and across thread counts
    for name in ("solve.csv", "solve.vtk"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref

    rows = (dirs[0] / "solve.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,z,vx,vy,vz,inside"
    assert len(rows) == 28
    for line in rows[1:]:
        x, y, z, vx, vy, vz, inside = line.split(",")
        if inside == "0":
            assert (vx, vy, vz) == ("0", "0", "0")
        outside = np.linalg.norm([float(x), float(y), float(z)]) >= 2.0
        assert inside == ("0" if outside else "1")


def test_effective_config_reloads(tmp_path):
    assert run(tmp_path, "solve", *SOLVE_FLAGS, "--field", "trig") == 0
    cfg = load_config(str(tmp_path / "effective.ini"))
    assert cfg.field == "trig"
    assert cfg.grid_counts == (3, 3, 3)


# -- checks --------------------------------------------------------------------


def test_curl_check_exit_codes(tmp_path, capsys):
    assert run(tmp_path / "ok", "curl-check", "--n-points", "2",
               "--seed", "1") == 0
    assert (tmp_path / "ok" / "curl_check.csv").is_file()
    # a field with boundary flux passes against g - B[div g] + T[g . nu]
    assert run(tmp_path / "flux", "curl-check", "--field", "constant:1,0,0",
               "--n-points", "1") == 0
    assert "[FAIL]" not in capsys.readouterr().out
    # and no quadrature meets a zero tolerance
    assert run(tmp_path / "bad", "curl-check", "--field", "constant:1,0,0",
               "--n-points", "1", "--tol", "0") == 1
    assert "[FAIL]" in capsys.readouterr().out
    # tabulated radial domains have no surface rule, so no T[g . nu]
    table = tmp_path / "sphere.txt"
    save_radial_table(radial_from_function(lambda u: np.full(u.shape[:-1], 2.0),
                                           n_polar=8, n_azimuth=16), str(table))
    assert run(tmp_path / "radial", "curl-check", "--n-points", "1",
               "--domain", f"radial:file={table}") == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and "flux term T[g . nu]" in err


def test_grad_check_cli(tmp_path):
    assert run(tmp_path, "grad-check", "--n-points", "1") == 0
    assert (tmp_path / "grad_check.csv").is_file()


def test_eps_study_cli(tmp_path, capsys):
    assert run(tmp_path, "eps-study") == 0
    assert (tmp_path / "eps_study.csv").is_file()
    assert "monotone=True" in capsys.readouterr().out


def test_equiv_check_cli(tmp_path):
    assert run(tmp_path, "equiv-check", "--n-points", "2") == 0
    assert (tmp_path / "equiv_check.csv").is_file()


@pytest.mark.parametrize("domain", ["ball:r0=2", "ellipsoid:a=2,b=2.5,c=3",
                                    "box:h=1.5,1.5,1.5", "table"])
def test_equiv_check_on_every_domain_kind(tmp_path, capsys, domain):
    # graded against dense inner rule at the default tolerance 1e-10; the
    # table is the 32 x 64 tabulation of ellipsoid(2, 2.5, 3)
    if domain == "table":
        table = tmp_path / "ellipsoid.txt"
        exact = ellipsoid(2.0, 2.5, 3.0)
        save_radial_table(radial_from_function(
            lambda u: boundary_distance(exact, u)), str(table))
        domain = f"radial:file={table}"
    assert run(tmp_path, "equiv-check", "--n-points", "2",
               "--domain", domain) == 0
    assert "tol=1.0e-10" in capsys.readouterr().out


def test_boundary_check_cli(tmp_path):
    assert run(tmp_path, "boundary-check", "--n-points", "10") == 0
    assert (tmp_path / "boundary_check.csv").is_file()


def test_div_solve_reports_centered_rhs(tmp_path, capsys):
    assert run(tmp_path, "div-solve", "--scalar", "coslin",
               "--n-points", "2") == 0
    out = capsys.readouterr().out
    assert "rhs: cos(y1) -" in out
    mean = float(out.split("rhs: cos(y1) -")[1].split()[0])
    # domain mean of cos(y1) over ball(2): 3 (sin 2 - 2 cos 2) / 8
    assert abs(mean - 3.0 * (np.sin(2.0) - 2.0 * np.cos(2.0)) / 8.0) < 1e-4


def test_dini_cli_matches_label(tmp_path, capsys):
    assert run(tmp_path, "dini", "--field", "hoelder") == 0
    out = capsys.readouterr().out
    assert "diverging: false" in out and "[PASS]" in out
    assert (tmp_path / "dini.csv").is_file()


def test_validate_domain_cli(tmp_path, capsys):
    assert run(tmp_path, "validate-domain") == 0
    spike = radial_from_function(
        lambda u: 1.2 + 1.5 * np.maximum(0.0, u[..., 2]) ** 40,
        n_polar=64, n_azimuth=128)
    table = tmp_path / "spike.txt"
    save_radial_table(spike, str(table))
    assert run(tmp_path, "validate-domain",
               "--domain", f"radial:file={table}") == 1
    out = capsys.readouterr().out
    assert "0 violations" in out
    assert "witness" in out

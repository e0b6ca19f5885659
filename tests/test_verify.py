"""Tests for the verification harness: finite-difference tools, check
drivers, and their report types.  Driver budgets here are deliberately
small; the full certification runs live in the acceptance suite."""

import numpy as np
import pytest

from starcurl import kernels
from starcurl.cli import main
from starcurl.fields import registry_get
from starcurl.geometry import ball
from starcurl.operators import CurlInverseOp
from starcurl.verify import (
    CheckReport,
    CheckRow,
    boundary_check,
    curl_check,
    div_check,
    eps_study,
    fd_curl,
    fd_div,
    fd_jacobian,
    forms_check,
    grad_check,
)

RIGID = registry_get("rigid")
E1 = registry_get("constant", 1.0, 0.0, 0.0)


def source_y1(y):
    return np.asarray(y)[..., 0].copy()


# -- finite differences ------------------------------------------------------


def test_fd_step_must_be_positive():
    for h in (0.0, -1e-3):
        with pytest.raises(ValueError, match="positive"):
            fd_jacobian(lambda x: x, np.zeros(3), h)


def test_fd_jacobian_exact_on_affine_maps(rng):
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=3)
    J = fd_jacobian(lambda p: A @ p + b, x, 1e-3)
    assert np.max(np.abs(J - A)) < 1e-9


def test_fd_jacobian_second_order_on_cubic():
    # central differences are exact through quadratics; a cubic is the
    # lowest degree with visible truncation, and there err(h) = c h^2
    def v(p):
        return np.array([p[0] ** 3, p[1] ** 3 + 2.0 * p[0], p[0] * p[1] * p[2]])

    def dv(p):
        return np.array([
            [3.0 * p[0] ** 2, 0.0, 0.0],
            [2.0, 3.0 * p[1] ** 2, 0.0],
            [p[1] * p[2], p[0] * p[2], p[0] * p[1]],
        ])

    x = np.array([0.5, 0.4, 0.3])
    hs = np.array([1e-1, 3e-2, 1e-2])
    errs = [np.max(np.abs(fd_jacobian(v, x, h) - dv(x))) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_fd_curl_and_div_on_analytic_fields(rng):
    # the abc flow is a curl eigenfield; the rigid rotation is solenoidal
    abc = registry_get("abc")
    x = rng.uniform(-0.5, 0.5, 3)
    assert np.max(np.abs(fd_curl(abc.eval, x, 1e-5) - abc.eval(x))) < 1e-7
    assert abs(fd_div(RIGID.eval, x, 1e-5)) < 1e-9


# -- report plumbing ---------------------------------------------------------


def test_report_fields_and_summary(op):
    rep = forms_check(op, RIGID, [[0.3, -0.2, 0.1]])
    assert isinstance(rep, CheckReport)
    assert rep.test == "forms_check"
    assert rep.n_points == 1
    assert len(rep.rows) == 3          # graded against dense, 3 comps
    assert isinstance(rep.worst, CheckRow)
    assert rep.passed and rep.max_rel_err <= rep.tolerance
    s = rep.summary()
    assert "forms_check" in s and "PASS" in s and "1 points" in s


def test_failing_report_says_fail(op):
    # no quadrature reproduces the reference exactly
    rep = curl_check(op, E1, [[0.3, 0.1, 0.0]], tol=0.0)
    assert not rep.passed
    assert "FAIL" in rep.summary()
    assert rep.worst.abs_err == rep.max_abs_err


# -- interior point screening -------------------------------------------------


def test_points_must_be_3_vectors(op):
    with pytest.raises(ValueError, match="3-vectors"):
        curl_check(op, RIGID, [[0.1, 0.2]])


def test_points_must_clear_the_boundary(op):
    with pytest.raises(ValueError, match="clearance"):
        curl_check(op, RIGID, [[1.999, 0.0, 0.0]])
    with pytest.raises(ValueError, match="clearance"):
        grad_check(op, RIGID, [[2.5, 0.0, 0.0]])


def test_exterior_points_are_refused(op):
    # outside the domain R is exactly zero, so a comparison there passes
    # or fails on zeros and measures nothing
    with pytest.raises(ValueError, match="forms_check"):
        forms_check(op, RIGID, [[5.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="eps_study"):
        eps_study(op, RIGID, [5.0, 0.0, 0.0], [0.4, 0.2])


# -- drivers ------------------------------------------------------------------


def test_curl_check_certifies_tangent_field(op):
    rep = curl_check(op, RIGID, [[0.3, 0.1, 0.0], [-0.2, 0.4, 0.5]])
    assert rep.passed
    assert rep.max_abs_err < 1e-3
    # both the finite-difference and the analytic route appear per point
    comps = {r.component for r in rep.rows}
    assert comps == {f"{route}.v{c}" for route in ("fd", "an") for c in (1, 2, 3)}


def test_curl_check_certifies_normal_flux_field(op):
    # a constant field pushes flux through the boundary, and the curl of
    # its potential picks up the surface term T[g . nu] of order one; the
    # reference carries it, so the field passes like a tangent one
    rep = curl_check(op, E1, [[0.3, 0.1, 0.0]])
    assert rep.passed
    assert rep.max_abs_err < 1e-3


def test_grad_check_small_budget(op):
    rep = grad_check(op, RIGID, [[0.3, -0.2, 0.1]])
    assert rep.passed and len(rep.rows) == 9
    assert rep.max_abs_err < 1e-3


def test_div_check_linear_source(op):
    rep = div_check(op, source_y1, [[0.2, 0.1, 0.0], [-0.3, 0.2, 0.1]])
    assert rep.passed
    assert rep.max_rel_err < 1e-4


def test_div_check_reports_domain_integral(op):
    # div(BF) = F needs a mean-zero F; the last row carries int F over the
    # domain, here the volume of the ball of radius 2, and never fails
    rep = div_check(op, lambda y: np.ones(np.shape(y)[:-1]), [[0.2, 0.0, 0.0]])
    *checked, mean = rep.rows
    assert mean.component == "domain_integral" and mean.passed
    assert abs(mean.value - 32.0 * np.pi / 3.0) < 1e-6
    assert np.isnan(mean.point).all()
    assert rep.max_abs_err == max(r.abs_err for r in checked)
    assert div_check(op, source_y1, [[0.2, 0.1, 0.0]]).rows[-1].abs_err < 1e-12


def test_boundary_check_exterior_zeros_and_decay(op):
    rep = boundary_check(op, RIGID, n_points=10)
    assert rep.passed
    ext = [r for r in rep.rows if r.component == "exterior_sup"]
    assert len(ext) == 20
    assert all(r.value == 0.0 for r in ext)
    frac = rep.rows[-1]
    assert frac.component == "decrease_fraction" and frac.value >= 0.95


def test_forms_check_fails_when_the_graded_rule_breaks(op, monkeypatch,
                                                      tmp_path):
    # graded panel edges bunched at the middle of the interval move R by
    # ~1.3e-8; the dense rule does not use them, so the check and the CLI fail
    monkeypatch.setattr(kernels, "_EDGES", (0.0, 0.4, 0.45, 0.55, 0.6, 1.0))
    rep = forms_check(op, RIGID, [[0.3, -0.2, 0.1]])
    assert not rep.passed and rep.max_rel_err > 1e-9, rep.summary()
    assert main(["equiv-check", "--n-points", "2",
                 "--out-dir", str(tmp_path)]) == 1


def test_boundary_check_needs_a_point(op):
    with pytest.raises(ValueError, match="n_points"):
        boundary_check(op, RIGID, n_points=0)


# -- truncation study ----------------------------------------------------------


def test_eps_study_requires_decreasing_list(op):
    for bad in ([0.4, 0.4], [0.2, 0.3]):
        with pytest.raises(ValueError, match="decreasing"):
            eps_study(op, RIGID, [0.3, 0.0, 0.0], bad)


def test_eps_study_requires_two_radii(op):
    # one radius has nothing to decrease against, and none has no first row
    for short in ([], [0.4]):
        with pytest.raises(ValueError, match="at least two"):
            eps_study(op, RIGID, [0.3, 0.0, 0.0], short)


def test_eps_study_table(op):
    tab = eps_study(op, RIGID, [0.3, 0.0, 0.0], [0.4, 0.2])
    assert tab.monotone
    assert tab.errors[1] < tab.errors[0]
    assert tab.final_over_first == tab.errors[1] / tab.errors[0]
    assert tab.base_norm > 0.0
    s = tab.summary()
    assert "monotone=True" in s and "final/first" in s

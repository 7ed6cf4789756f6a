"""Acceptance suite: eleven top-level criteria, one verdict line each.

Each test prints a single `[ACCEPTANCE nn] ... PASS` line (visible with -s or
in captured output) and asserts the criterion at its stated tolerance.
"""
import json
import math
import time

import numpy as np
import pytest

from riccati2d import (
    ComplexField,
    Contour,
    DomainSpec,
    ExprField,
    GridField,
    Point,
    cauchy_laplace_reductions,
    cauchy_riccati,
    cauchy_schrodinger,
    constant_field,
    darboux_potential_eta,
    darboux_u_from_v,
    darboux_v_from_u,
    default_matrix,
    euler_first_Q_from_W,
    euler_first_W_from_Q,
    exp_family,
    exp_reconstruct,
    factorization_apply,
    harmonic_family,
    laplacian,
    log_derivative,
    max_abs,
    perturb,
    picard_identity,
    riccati_residual,
    schrodinger_residual,
    separable_family,
    vekua_residual,
)
from riccati2d.cli import main, mask_timings, parse_config, run
from riccati2d.errors import NotASolutionError
from riccati2d.theorems import analytic_exp, analytic_power, euler_second_baseline
from conftest import make_problem


def verdict(number, text, ok):
    line = f"[ACCEPTANCE {number:02d}] {text}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_01_oracle_residual_suite():
    """Matrix of >= 12 oracles: both residuals < 1e-10, total runtime < 5 s."""
    start = time.perf_counter()
    sols = default_matrix()
    worst = 0.0
    for sol in sols:
        prob = sol.problem()
        worst = max(
            worst,
            max_abs(riccati_residual(log_derivative(sol.u), prob)),
            max_abs(schrodinger_residual(sol.u, prob)),
        )
    elapsed = time.perf_counter() - start
    verdict(
        1,
        f"oracle suite ({len(sols)} solutions) max residual {worst:.2e} < 1e-10, "
        f"{elapsed:.2f} s < 5 s",
        len(sols) >= 12 and worst < 1e-10 and elapsed < 5.0,
    )


def test_02_reconstruction_round_trip():
    """exp_reconstruct(log_derivative(u)) = u / u(base) to relative 1e-8, 41x41."""
    worst = 0.0
    for sol in default_matrix():
        prob = sol.problem()
        u_back = exp_reconstruct(log_derivative(sol.u), prob)
        u0 = sol.u.evaluate(prob.domain.base)
        xg, yg = prob.domain.mesh(41, 41)
        want = sol.u(xg, yg) / u0
        rel = np.max(np.abs(u_back(xg, yg) - want)) / np.max(np.abs(want))
        worst = max(worst, rel)
    verdict(2, f"round trip relative error {worst:.2e} < 1e-8", worst < 1e-8)


def test_03_factorization():
    """Both factorized forms match to 1e-10 for three test fields; 0.1-perturbed
    input opens a gap above 1e-3."""
    sol = exp_family(1.0, math.atan2(0.8, 0.6))
    prob = sol.problem()
    worst = 0.0
    for phi_text in ("x**2", "x*y", "sin(x)*cosh(y)"):
        phi = ExprField(prob.domain, phi_text)
        lhs, rhs1, rhs2 = factorization_apply(sol.Q, phi, prob)
        worst = max(worst, max_abs(lhs - rhs1), max_abs(lhs - rhs2))
    bad = perturb(sol, 0.1)
    phi = ExprField(prob.domain, "x**2")
    lhs, rhs1, _ = factorization_apply(bad.Q, phi, prob)
    gap = max_abs(lhs - rhs1)
    verdict(
        3,
        f"factorization agreement {worst:.2e} < 1e-10, perturbed gap {gap:.2e} > 1e-3",
        worst < 1e-10 and gap > 1e-3,
    )


def test_04_conjugate_transform():
    """f = e^x, u = e^(0.6x+0.8y), nu = 1: closed-form partner, transformed
    equation residual, and round trip up to a multiple of f, all < 1e-8."""
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41, Point(0.0, 0.0))
    prob = make_problem(dom, 1.0)
    f = ExprField(dom, "exp(x)")
    u = ExprField(dom, "exp(0.6*x + 0.8*y)")
    v = darboux_v_from_u(u, f, prob)
    closed_form = ExprField(dom, "0 - 0.5*exp(0.6*x + 0.8*y) + 0.5*exp(0-x)")
    e1 = max_abs(v - closed_form)
    eta = darboux_potential_eta(f, prob)
    e2 = max_abs(-laplacian(v) + eta * v, nx=21, ny=21)
    u_back = darboux_u_from_v(v, f, prob)
    alpha = (u_back.evaluate(dom.base) - u.evaluate(dom.base)) / f.evaluate(dom.base)
    xg, yg = dom.mesh(21, 21)
    e3 = float(np.max(np.abs(u_back(xg, yg) - alpha * f(xg, yg) - u(xg, yg))))
    worst = max(e1, e2, e3)
    verdict(
        4,
        f"conjugate transform: closed form {e1:.2e}, equation {e2:.2e}, "
        f"round trip {e3:.2e}, all < 1e-8",
        worst < 1e-8,
    )


def test_05_first_order_construction():
    """Constructed W satisfies the first-order system to 1e-8 and returns Q."""
    sol0 = exp_family(1.0, 0.0)
    sol1 = exp_family(1.0, math.atan2(0.8, 0.6))
    prob = sol0.problem()
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, prob)
    f0 = exp_reconstruct(sol0.Q, prob)
    e1 = max_abs(vekua_residual(W, f0), nx=15, ny=15)
    Q_back = euler_first_Q_from_W(W)
    xg, yg = prob.domain.mesh(15, 15)
    e2 = float(np.max(np.abs(Q_back(xg, yg) - sol1.Q(xg, yg))))
    verdict(
        5,
        f"first-order construction: system residual {e1:.2e}, Q recovery {e2:.2e}, "
        f"both < 1e-8",
        max(e1, e2) < 1e-8,
    )


def test_06_four_solution_identity(unit_square):
    """Constant case matches hand-derived term values exactly; nonconstant
    quadruple < 1e-8; grid inputs refine at order 2 (ratio 4 +/- 25%)."""
    from riccati2d.theorems import picard_term

    prob = make_problem(unit_square, 1.0)
    Qs = [constant_field(q, unit_square) for q in (0.5, -0.5j, complex(0.3, -0.4), -0.5)]
    terms = {
        (0, 1): complex(-0.5, -0.5),
        (2, 3): complex(0.2, -0.4),
        (0, 3): 0.0,
        (2, 1): complex(-0.3, -0.9),
    }
    term_err = max(
        abs(picard_term(Qs[i], Qs[j]).evaluate(Point(0.5, 0.5)) - want)
        for (i, j), want in terms.items()
    )
    const_sum = picard_identity(*Qs, prob, tolerance=1e-12).residual

    def quadruple(dom):
        return [
            separable_family(1.0, 0.0, branch1="cosh", shift1=1.0, domain=dom).Q,
            separable_family(0.0, 1.0, branch2="cosh", shift2=1.0, domain=dom).Q,
            exp_family(1.0, 0.0, domain=dom).Q,
            exp_family(1.0, math.atan2(0.8, 0.6), domain=dom).Q,
        ]

    nonconst = picard_identity(*quadruple(unit_square), prob, tolerance=1e-8).residual

    residuals = []
    for n in (17, 33, 65, 129):
        dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n, Point(0.0, 0.0))
        grid_qs = [ComplexField(Q.re.to_grid(dom), Q.im.to_grid(dom)) for Q in quadruple(dom)]
        residuals.append(
            picard_identity(*grid_qs, make_problem(dom, 1.0), solution_tol=1.0).residual
        )
    ratios = [c / f for c, f in zip(residuals, residuals[1:])]
    ratios_ok = all(3.0 <= r <= 5.0 for r in ratios)
    verdict(
        6,
        f"four-solution identity: terms exact ({term_err:.1e}), constant sum "
        f"{const_sum:.1e} < 1e-12, nonconstant {nonconst:.1e} < 1e-8, grid ratios "
        f"{[round(r, 2) for r in ratios]} in [3, 5]",
        term_err < 1e-13 and const_sum < 1e-12 and nonconst < 1e-8 and ratios_ok,
    )


def test_07_contour_theorems(centered_square):
    """Both contour identities < 1e-10 on the 256-node unit circle; node
    doubling gains >= x4 until the 1e-12 floor; perturbed input > 1e-3."""
    dom = centered_square
    prob = make_problem(dom, 1.0)
    gamma = Contour.circle(0.0, 0.0, 1.0, 256)
    Q0 = exp_family(1.0, 0.0, domain=dom).Q
    Q1 = exp_family(1.0, math.atan2(0.8, 0.6), domain=dom).Q
    r1 = cauchy_riccati(Q0, Q1, gamma, prob).residual
    f = ExprField(dom, "exp(x)")
    u = ExprField(dom, "exp(0.6*x + 0.8*y)")
    r2 = cauchy_schrodinger(f, u, gamma, prob).residual

    table = cauchy_riccati(Q0, Q1, gamma.with_nodes(16), prob, refine=3).refinement_table
    doubling_ok = True
    for (_, coarse), (_, fine) in zip(table, table[1:]):
        if coarse < 1e-12:
            break
        doubling_ok = doubling_ok and coarse / max(fine, 1e-16) >= 4.0

    bad = Q1 + constant_field(0.1, dom)
    neg = cauchy_riccati(Q0, bad, gamma, prob, solution_tol=1.0).residual
    verdict(
        7,
        f"contour theorems: residuals {r1:.1e}, {r2:.1e} < 1e-10, doubling >= x4, "
        f"perturbed {neg:.1e} > 1e-3",
        r1 < 1e-10 and r2 < 1e-10 and doubling_ok and neg > 1e-3,
    )


def test_08_potential_free_reductions(centered_square):
    """Harmonic cases < 1e-10; non-harmonic input rejected."""
    gamma = Contour.circle(0.0, 0.0, 1.0, 256)
    r1 = cauchy_laplace_reductions(
        ExprField(centered_square, "x**2 - y**2 + 3*x*y"), gamma, kind="derivative"
    ).residual
    r2 = cauchy_laplace_reductions(
        ExprField(centered_square, "4 + x"), gamma, kind="reciprocal"
    ).residual
    try:
        cauchy_laplace_reductions(
            ExprField(centered_square, "x**2 + y**2"), gamma, kind="derivative"
        )
        rejected = False
    except NotASolutionError:
        rejected = True
    verdict(
        8,
        f"potential-free reductions: {r1:.1e}, {r2:.1e} < 1e-10, non-harmonic rejected",
        r1 < 1e-10 and r2 < 1e-10 and rejected,
    )


def test_09_power_series_baseline(centered_square):
    """exp(z) residual on |z| <= 0.4 decays geometrically at the
    Taylor-remainder rate (+/- 0.15); polynomial exact at N = degree."""
    h = 0.4 / math.sqrt(2)
    region = DomainSpec(-h, h, -h, h, 33, 33)
    table = euler_second_baseline(
        analytic_exp(centered_square), Point(0.0, 0.0), 10, region=region
    ).refinement_table
    xg, yg = region.mesh()
    rmax = float(np.max(np.hypot(xg, yg)))
    ratio_ok = True
    for (n, coarse), (_, fine) in zip(table, table[1:]):
        if fine < 1e-9:
            break
        ratio_ok = ratio_ok and abs(fine / coarse - rmax / (n + 1)) < 0.15

    poly_dom = DomainSpec(1.5, 2.5, -0.4, 0.4, 33, 33)
    poly = euler_second_baseline(
        analytic_power(2, poly_dom), Point(0.0, 0.0), 4, region=poly_dom
    )
    poly_exact = all(v < 1e-12 for _, v in poly.refinement_table)
    verdict(
        9,
        f"series baseline: final residual {table[-1][1]:.1e}, decay at predicted "
        f"rate, degree-2 input exact at N=2 ({poly.residual:.1e})",
        table[-1][1] < 1e-8 and ratio_ok and poly_exact,
    )


def fit_order(ns, errs):
    hs = [1.0 / (n - 1) for n in ns]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def test_10_grid_convergence():
    """All FD-backed checkers show empirical order 2.0 +/- 0.3 over three halvings."""
    ns = (17, 33, 65, 129)
    orders = {}

    # first-order residual checker on grid-backed Q
    sol = separable_family(1.0, 1.0, branch1="cosh", branch2="cosh")
    errs = []
    for n in ns:
        dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n, Point(0.0, 0.0))
        Q = ComplexField(sol.Q.re.to_grid(dom), sol.Q.im.to_grid(dom))
        errs.append(max_abs(riccati_residual(Q, make_problem(dom, 2.0)), margin=2))
    orders["first-order residual"] = fit_order(ns, errs)

    # second-order residual checker on grid-backed u
    errs = []
    for n in ns:
        dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n, Point(0.0, 0.0))
        u = GridField(dom, sol.u(*dom.mesh()))
        errs.append(max_abs(schrodinger_residual(u, make_problem(dom, 2.0)), margin=2))
    orders["second-order residual"] = fit_order(ns, errs)

    # four-solution identity on grid-backed inputs
    errs = []
    for n in ns:
        dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n, Point(0.0, 0.0))
        qs = [
            separable_family(1.0, 0.0, branch1="cosh", shift1=1.0, domain=dom).Q,
            separable_family(0.0, 1.0, branch2="cosh", shift2=1.0, domain=dom).Q,
            exp_family(1.0, 0.0, domain=dom).Q,
            exp_family(1.0, math.atan2(0.8, 0.6), domain=dom).Q,
        ]
        grid_qs = [ComplexField(Q.re.to_grid(dom), Q.im.to_grid(dom)) for Q in qs]
        errs.append(picard_identity(*grid_qs, make_problem(dom, 1.0), solution_tol=1.0).residual)
    orders["four-solution identity"] = fit_order(ns, errs)

    ok = all(1.7 <= p <= 2.3 for p in orders.values())
    summary = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    verdict(10, f"grid convergence orders: {summary}, all within 2.0 +/- 0.3", ok)


def test_11_cli_contract(tmp_path):
    """Golden-report determinism (timings masked) and the exit-status contract."""
    cfg = parse_config("case = all\n")
    identical = mask_timings(run(cfg)) == mask_timings(run(cfg))

    def cfg_file(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    out = str(tmp_path / "r.json")
    codes = (
        main(["--config", cfg_file("ok.cfg", "case = riccati-residual\n"), "--out", out]),
        main(["--config", cfg_file("fail.cfg", "case = picard\ntolerance = 1e-30\n"), "--out", out]),
        main(["--config", cfg_file("bad.cfg", "case = nosuch\n")]),
        main(["--config", str(tmp_path / "absent.cfg")]),
    )
    report = json.loads((tmp_path / "r.json").read_text())
    shaped = all(
        set(e) >= {"case", "residual", "tolerance", "pass", "refinement", "elapsed_ms"}
        for e in report["identities"]
    )
    verdict(
        11,
        f"CLI: deterministic report {identical}, exit codes {codes} == (0, 1, 2, 3), "
        f"report fields complete",
        identical and codes == (0, 1, 2, 3) and shaped,
    )

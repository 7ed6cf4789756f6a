"""Identity checkers: four-solution identity, contour theorems, power-series
baseline for the log-derivative convergence."""
import math

import numpy as np
import pytest

from riccati2d import (
    ComplexField,
    Contour,
    ContourError,
    DegeneratePairError,
    DomainSpec,
    ExprField,
    NotASolutionError,
    Point,
    ZeroSetError,
    cauchy_laplace_reductions,
    cauchy_riccati,
    cauchy_schrodinger,
    constant_field,
    exp_family,
    perturb,
    picard_identity,
    separable_family,
)
from riccati2d.theorems import (
    analytic_exp,
    analytic_power,
    euler_second_baseline,
    picard_term,
    taylor_coefficients,
)
from conftest import make_problem


# ---------------------------------------------------------------------------
# Four-solution identity
# ---------------------------------------------------------------------------

CONSTANT_QS = (0.5, -0.5j, complex(0.3, -0.4), -0.5)
# hand-derived: T(Qi,Qj) = 2i Im(conj(Qi) Qj) / (Qi - Qj) for constants
CONSTANT_TERMS = {
    (0, 1): complex(-0.5, -0.5),
    (2, 3): complex(0.2, -0.4),
    (0, 3): 0.0,
    (2, 1): complex(-0.3, -0.9),
}


def constant_setup(unit_square):
    nu = 4.0 * abs(CONSTANT_QS[0]) ** 2  # = 1; all four have |Q|^2 = 1/4
    prob = make_problem(unit_square, nu)
    Qs = [constant_field(q, unit_square) for q in CONSTANT_QS]
    return prob, Qs


def test_constant_term_values(unit_square):
    _, Qs = constant_setup(unit_square)
    for (i, j), want in CONSTANT_TERMS.items():
        got = picard_term(Qs[i], Qs[j]).evaluate(Point(0.5, 0.5))
        assert got == pytest.approx(want, abs=1e-13)


def test_constant_identity_sum(unit_square):
    prob, Qs = constant_setup(unit_square)
    result = picard_identity(*Qs, prob, tolerance=1e-12)
    assert result.passed
    assert result.residual < 1e-12


def nonconstant_quadruple(domain):
    """Four distinct solutions for nu = 1 whose pairwise differences never vanish."""
    return [
        separable_family(1.0, 0.0, branch1="cosh", shift1=1.0, domain=domain).Q,
        separable_family(0.0, 1.0, branch2="cosh", shift2=1.0, domain=domain).Q,
        exp_family(1.0, 0.0, domain=domain).Q,
        exp_family(1.0, math.atan2(0.8, 0.6), domain=domain).Q,
    ]


def test_nonconstant_identity(unit_square):
    prob = make_problem(unit_square, 1.0)
    result = picard_identity(*nonconstant_quadruple(unit_square), prob, tolerance=1e-8)
    assert result.passed


def test_degenerate_pair_rejected(unit_square):
    prob = make_problem(unit_square, 1.0)
    Qs = [constant_field(q, unit_square) for q in (0.5, 0.5, -0.5j, -0.5)]
    with pytest.raises(DegeneratePairError):
        picard_identity(*Qs, prob)


def test_non_solution_rejected(unit_square):
    prob, Qs = constant_setup(unit_square)
    Qs[0] = constant_field(0.5 + 0.1, unit_square)
    with pytest.raises(NotASolutionError):
        picard_identity(*Qs, prob)


def grid_quadruple(n):
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n, Point(0.0, 0.0))
    Qs = []
    for Q in nonconstant_quadruple(dom):
        Qs.append(ComplexField(Q.re.to_grid(dom), Q.im.to_grid(dom)))
    return dom, Qs


def test_grid_refinement_order_two():
    residuals = []
    for n in (17, 33, 65, 129):
        dom, Qs = grid_quadruple(n)
        prob = make_problem(dom, 1.0)
        # grid-backed inputs carry O(h^2) residual themselves: relax the gate
        res = picard_identity(*Qs, prob, solution_tol=1.0)
        residuals.append(res.residual)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.0 <= coarse / fine <= 5.0  # 4 +/- 25%


# ---------------------------------------------------------------------------
# Contour theorems
# ---------------------------------------------------------------------------


def circle_setup():
    dom = DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0.0, 0.0))
    prob = make_problem(dom, 1.0)
    gamma = Contour.circle(0.0, 0.0, 1.0, 256)
    Q0 = exp_family(1.0, 0.0, domain=dom).Q
    Q1 = exp_family(1.0, math.atan2(0.8, 0.6), domain=dom).Q
    return dom, prob, gamma, Q0, Q1


def test_cauchy_riccati_passes():
    _, prob, gamma, Q0, Q1 = circle_setup()
    result = cauchy_riccati(Q0, Q1, gamma, prob, tolerance=1e-10)
    assert result.passed


def test_cauchy_riccati_node_doubling():
    _, prob, gamma, Q0, Q1 = circle_setup()
    result = cauchy_riccati(Q0, Q1, gamma.with_nodes(16), prob, refine=3)
    values = [v for _, v in result.refinement_table]
    for coarse, fine in zip(values, values[1:]):
        if coarse < 1e-12:
            break
        assert coarse / max(fine, 1e-16) > 4.0


def test_cauchy_riccati_negative_control():
    dom, prob, gamma, Q0, Q1 = circle_setup()
    bad = Q1 + constant_field(0.1, dom)
    result = cauchy_riccati(Q0, bad, gamma, prob, solution_tol=1.0)
    assert result.residual > 1e-3
    assert not result.passed


def test_cauchy_riccati_requires_closed_contour():
    _, prob, _, Q0, Q1 = circle_setup()
    open_path = Contour.polyline([(-1, 0), (1, 0)])
    with pytest.raises(ContourError):
        cauchy_riccati(Q0, Q1, open_path, prob)


def test_cauchy_schrodinger_passes():
    dom, prob, gamma, _, _ = circle_setup()
    f = ExprField(dom, "exp(x)")
    u = ExprField(dom, "exp(0.6*x + 0.8*y)")
    result = cauchy_schrodinger(f, u, gamma, prob, tolerance=1e-10)
    assert result.passed


def test_cauchy_schrodinger_rejects_non_solution():
    dom, prob, gamma, _, _ = circle_setup()
    f = ExprField(dom, "exp(x)")
    with pytest.raises(NotASolutionError):
        cauchy_schrodinger(f, ExprField(dom, "x**2"), gamma, prob)


def test_laplace_reductions_pass(centered_square):
    gamma = Contour.circle(0.0, 0.0, 1.0, 256)
    harmonic = ExprField(centered_square, "x**2 - y**2 + 3*x*y")
    assert cauchy_laplace_reductions(harmonic, gamma, kind="derivative").passed
    positive = ExprField(centered_square, "4 + x")
    assert cauchy_laplace_reductions(positive, gamma, kind="reciprocal").passed


def test_laplace_reductions_reject_non_harmonic(centered_square):
    gamma = Contour.circle(0.0, 0.0, 1.0, 256)
    with pytest.raises(NotASolutionError):
        cauchy_laplace_reductions(
            ExprField(centered_square, "x**2 + y**2"), gamma, kind="derivative"
        )


# ---------------------------------------------------------------------------
# Power-series baseline
# ---------------------------------------------------------------------------


def test_taylor_coefficients_of_exp(centered_square):
    W = analytic_exp(centered_square)
    coeffs = taylor_coefficients(W, Point(0.0, 0.0), 8, radius=0.12)
    for n, a in enumerate(coeffs):
        # rounding noise in the circle samples is amplified by 1 / radius^n
        assert a == pytest.approx(1.0 / math.factorial(n), abs=1e-14 / 0.12**n)


def exp_region():
    h = 0.4 / math.sqrt(2)  # square inscribed in |z| <= 0.4
    return DomainSpec(-h, h, -h, h, 33, 33)


def test_baseline_exp_converges(centered_square):
    result = euler_second_baseline(
        analytic_exp(centered_square), Point(0.0, 0.0), 10, region=exp_region()
    )
    assert result.passed
    values = [v for _, v in result.refinement_table]
    assert values[0] > 0.1 and values[-1] < 1e-8


def test_baseline_exp_ratio_matches_taylor_remainder(centered_square):
    """Observed decay ratio tracks max|z| / (N+1) within +/- 0.15 above the floor."""
    result = euler_second_baseline(
        analytic_exp(centered_square), Point(0.0, 0.0), 10, region=exp_region()
    )
    xg, yg = exp_region().mesh()
    rmax = float(np.max(np.hypot(xg, yg)))
    table = result.refinement_table
    for (n, coarse), (_, fine) in zip(table, table[1:]):
        if fine < 1e-9:  # coefficient-noise floor
            break
        assert abs(fine / coarse - rmax / (n + 1)) < 0.15


def test_baseline_monotone_until_floor(centered_square):
    result = euler_second_baseline(
        analytic_exp(centered_square), Point(0.0, 0.0), 10, region=exp_region()
    )
    values = [v for _, v in result.refinement_table]
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse + 1e-12


def test_baseline_polynomial_exact_at_degree():
    dom = DomainSpec(1.5, 2.5, -0.4, 0.4, 33, 33)
    W = analytic_power(2, dom)
    result = euler_second_baseline(W, Point(0.0, 0.0), 4, region=dom)
    # the table starts at the first retained coefficient (degree 2) and is
    # machine-exact from there on
    assert result.refinement_table[0][0] == 2.0
    assert all(v < 1e-12 for _, v in result.refinement_table)


def test_baseline_rejects_non_analytic(centered_square):
    W = ComplexField(
        ExprField(centered_square, "x"), ExprField(centered_square, "0 - y")
    )  # conj(z)
    with pytest.raises(NotASolutionError):
        euler_second_baseline(W, Point(0.0, 0.0), 4)


def test_baseline_rejects_vanishing_real_part(centered_square):
    W = analytic_power(1, centered_square)  # Re W = x vanishes on the axis
    with pytest.raises(ZeroSetError):
        euler_second_baseline(W, Point(0.0, 0.0), 3)

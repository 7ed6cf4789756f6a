"""First/second-order residuals, reconstruction round trips, factorization,
conjugate-pair (Darboux-type) transform, and the first Euler-type construction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati2d import (
    Check,
    CompatibilityError,
    ComplexField,
    Contour,
    DegeneratePairError,
    DomainSpec,
    ExprField,
    Field,
    GateError,
    NonvanishingError,
    NotASolutionError,
    OracleSolution,
    ParameterError,
    Point,
    ZeroSetError,
    cauchy_schrodinger,
    check_nonvanishing,
    constant_field,
    darboux_potential_eta,
    darboux_u_from_v,
    darboux_v_from_u,
    euler_first_Q_from_W,
    euler_first_W_from_Q,
    exp_family,
    exp_reconstruct,
    factorization_apply,
    laplacian,
    log_derivative,
    max_abs,
    op_A,
    op_Abar,
    perturb,
    picard_identity,
    riccati_residual,
    schrodinger_residual,
    separable_family,
    vekua_residual,
)
from riccati2d import expressions as ex
from riccati2d.oracle import _self_check
from riccati2d.riccati import (
    _require_bounded,
    _require_riccati_solution,
    _require_schrodinger_solution,
)
from riccati2d.theorems import analytic_power, euler_second_baseline
from conftest import make_problem


def test_residuals_vanish_on_oracle():
    sol = exp_family(1.0, math.atan2(0.8, 0.6))
    assert max_abs(riccati_residual(sol.Q, sol.nu)) < 1e-13
    assert max_abs(schrodinger_residual(sol.u, sol.nu)) < 1e-13


def test_residual_detects_perturbation():
    sol = perturb(exp_family(1.0, 0.0), 0.1)
    resid = max_abs(riccati_residual(sol.Q, sol.nu))
    # |Q + eps|^2 - |Q|^2 = 2 eps Re Q + eps^2 = 2*0.1*0.5 + 0.01
    assert resid == pytest.approx(0.11, rel=1e-10)


def test_log_derivative_matches_oracle_q():
    for sol in (exp_family(1.0, 0.3), separable_family(1.0, 1.0, "cosh", "cosh")):
        assert max_abs(log_derivative(sol.u) - sol.Q) < 1e-12


def test_log_derivative_zero_denominator(unit_square):
    with pytest.raises(ZeroSetError):
        log_derivative(ExprField(unit_square, "x - 0.5"))


def test_exp_reconstruct_round_trip():
    """exp_reconstruct(log_derivative(u)) = u / u(base) for every oracle."""
    for sol in (
        exp_family(1.0, 0.0),
        exp_family(1.0, math.atan2(0.8, 0.6)),
        separable_family(1.0, 1.0),
        separable_family(0.0, -1.0),
    ):
        u_back = exp_reconstruct(sol.Q)
        u0 = sol.u.evaluate(sol.domain.base)
        assert max_abs(u_back - sol.u * (1.0 / u0)) < 1e-9


def test_reconstruction_solves_schrodinger():
    """The reconstructed field is itself a solution (exact operator partials)."""
    sol = separable_family(0.0, -1.0)
    u_back = exp_reconstruct(sol.Q)
    assert max_abs(schrodinger_residual(u_back, sol.nu)) < 1e-10


PHIS = ["x**2", "x*y", "sin(x)*cosh(y)"]


@pytest.mark.parametrize("phi_text", PHIS)
def test_factorization_identity(phi_text):
    sol = exp_family(1.0, math.atan2(0.8, 0.6))
    phi = ExprField(sol.domain, phi_text)
    lhs, rhs1, rhs2 = factorization_apply(sol.Q, phi, sol.nu)
    assert max_abs(lhs - rhs1) < 1e-12
    assert max_abs(lhs - rhs2) < 1e-12


def test_factorization_gap_equals_residual_times_phi():
    sol = perturb(exp_family(1.0, 0.0), 0.1)
    phi = ExprField(sol.domain, "x**2")
    lhs, rhs1, _ = factorization_apply(sol.Q, phi, sol.nu)
    gap = lhs - rhs1
    predicted = riccati_residual(sol.Q, sol.nu) * phi
    assert max_abs(gap - predicted) < 1e-12  # lhs - rhs1 = residual * phi
    assert max_abs(gap) > 1e-3  # negative control


def darboux_setup():
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41, Point(0.0, 0.0))
    f = ExprField(dom, "exp(x)")
    u = ExprField(dom, "exp(0.6*x + 0.8*y)")
    return make_problem(dom, 1.0), f, u


def test_darboux_closed_form():
    """v = -0.5 e^{0.6x+0.8y} + 0.5 e^{-x} for f = e^x, u = e^{0.6x+0.8y}."""
    _, f, u = darboux_setup()
    v = darboux_v_from_u(u, f)
    want = ExprField(f.domain, "0 - 0.5*exp(0.6*x + 0.8*y) + 0.5*exp(0-x)")
    assert max_abs(v - want) < 1e-10
    assert v.evaluate(Point(1.0, 0.0)) == pytest.approx(
        -0.5 * math.exp(0.6) + 0.5 * math.exp(-1.0), abs=1e-10
    )


def test_darboux_image_solves_transformed_equation():
    nu, f, u = darboux_setup()
    v = darboux_v_from_u(u, f)
    eta = darboux_potential_eta(f, nu)
    assert max_abs(eta - constant_field(1.0, nu.domain)) < 1e-12
    assert max_abs(-laplacian(v) + eta * v, nx=21, ny=21) < 1e-10


def test_darboux_round_trip_up_to_multiple_of_f():
    _, f, u = darboux_setup()
    v = darboux_v_from_u(u, f)
    u_back = darboux_u_from_v(v, f)
    base = f.domain.base
    alpha = (u_back.evaluate(base) - u.evaluate(base)) / f.evaluate(base)
    xg, yg = f.domain.mesh(21, 21)
    err = np.max(np.abs(u_back(xg, yg) - alpha * f(xg, yg) - u(xg, yg)))
    assert err < 1e-10


def euler_setup():
    sol0 = exp_family(1.0, 0.0)
    sol1 = exp_family(1.0, math.atan2(0.8, 0.6))
    return sol0, sol1, sol0.nu


def test_euler_first_vekua_residual():
    sol0, sol1, nu = euler_setup()
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, nu)
    f0 = exp_reconstruct(sol0.Q)
    assert max_abs(vekua_residual(W, f0), nx=15, ny=15) < 1e-10


def test_euler_first_q_recovery():
    sol0, sol1, nu = euler_setup()
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, nu)
    Q_back = euler_first_Q_from_W(W)
    xg, yg = sol0.domain.mesh(15, 15)
    assert np.max(np.abs(Q_back(xg, yg) - sol1.Q(xg, yg))) < 1e-10


_ANGLES = st.floats(-math.pi, math.pi)
_SHIFTS = st.floats(-1.0, 1.0)
_EULER_PAIRS = st.one_of(
    st.builds(
        lambda nu, t0, t1: (exp_family(nu, t0), exp_family(nu, t1)),
        st.floats(0.25, 4.0), _ANGLES, _ANGLES,
    ),
    st.builds(
        lambda s1, s2, s: (
            separable_family(1.0, 1.0, "cosh", "cosh", shift1=s1, shift2=s2),
            separable_family(2.0, 0.0, "cosh", shift1=s),
        ),
        _SHIFTS, _SHIFTS, _SHIFTS,
    ),
)


@given(pair=_EULER_PAIRS)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_euler_first_is_the_darboux_conjugate(pair):
    """W = e^{A[Q1]} + i v, v the Darboux conjugate of e^{A[Q1]} with respect to
    f0 = e^{A[Q0]}: W solves the Vekua equation of f0 and gives Q1 back."""
    sol0, sol1 = pair
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, sol0.nu)
    f0 = exp_reconstruct(sol0.Q)
    assert max_abs(vekua_residual(W, f0), nx=15, ny=15) < 1e-12
    assert max_abs(euler_first_Q_from_W(W) - sol1.Q, 15, 15) < 1e-12
    v = darboux_v_from_u(exp_reconstruct(sol1.Q), f0)
    assert max_abs(W.im - v) < 1e-13


def test_euler_first_rejects_non_solution():
    sol0, sol1, nu = euler_setup()
    bad = perturb(sol1, 0.1)
    with pytest.raises(NotASolutionError):
        euler_first_W_from_Q(bad.Q, sol0.Q, nu)


def test_vekua_residual_of_analytic_for_constant_f(unit_square):
    """With f constant the system degenerates to the Cauchy-Riemann equations."""
    W = ComplexField(ExprField(unit_square, "x"), ExprField(unit_square, "y"))
    f = constant_field(2.0, unit_square)
    assert max_abs(vekua_residual(W, f)) < 1e-13


def _oracle_with(u, Q, nu):
    return OracleSolution(u, nu, Q, "nan-test", {})


@pytest.mark.parametrize(
    "gate, error",
    [
        (lambda u, f, Q, nu: op_Abar(Q), CompatibilityError),
        (lambda u, f, Q, nu: _require_riccati_solution(Q, nu, "Q"), NotASolutionError),
        (lambda u, f, Q, nu: _require_schrodinger_solution(f, nu, "f"), NotASolutionError),
        (lambda u, f, Q, nu: _require_bounded(Q, "Q"), ParameterError),
        (lambda u, f, Q, nu: check_nonvanishing(f, "f"), NonvanishingError),
        (lambda u, f, Q, nu: log_derivative(f), ZeroSetError),
        (
            lambda u, f, Q, nu: cauchy_schrodinger(
                Field(f.domain, 1.0), f, Contour.circle(0.5, 0.5, 0.25), Field(f.domain, 0.0)
            ),
            NotASolutionError,
        ),
        (lambda u, f, Q, nu: euler_second_baseline(Q, Point(0.5, 0.5), 4), NotASolutionError),
        (lambda u, f, Q, nu: _self_check(_oracle_with(f, Q, nu)), ParameterError),
        (lambda u, f, Q, nu: _self_check(_oracle_with(u, Q, nu)), NotASolutionError),
    ],
    ids=[
        "compatible", "riccati", "schrodinger", "bounded", "nonvanishing",
        "denominator", "harmonic", "analytic", "oracle-u", "oracle-Q",
    ],
)
def test_nan_fails_every_gate(unit_square, gate, error):
    """A NaN residual or minimum is a failed gate, never a pass."""
    f = ExprField(unit_square, math.nan * ex.Exp(ex.X + ex.Y))  # NaN values and partials
    u = ExprField(unit_square, "exp(x)")  # a real solution for nu = 1
    with pytest.raises(error):
        gate(u, f, ComplexField(f, f), make_problem(unit_square))


def _pinned_inputs(square):
    nu = make_problem(square)
    Q = exp_family(1.0, 0.5).Q
    centred = DomainSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    return {
        "compatible": lambda: op_Abar(
            ComplexField(ExprField(square, "y"), ExprField(square, "0"))
        ),
        "compatible-plus": lambda: op_A(
            ComplexField(ExprField(square, "y"), ExprField(square, "x"))
        ),
        "nonvanishing": lambda: check_nonvanishing(ExprField(square, "x*y"), "f"),
        "denominator": lambda: log_derivative(ExprField(square, "x - 0.5")),
        "region": lambda: euler_second_baseline(
            analytic_power(1, centred), Point(0.0, 0.0), 4, region=centred
        ),
        "pair": lambda: picard_identity(
            Q, Q, exp_family(1.0, 2.0).Q, exp_family(1.0, 4.0).Q, nu
        ),
        "harmonic": lambda: cauchy_schrodinger(
            Field(square, 1.0),
            ExprField(square, "x*x"),
            Contour.circle(0.5, 0.5, 0.25),
            Field(square, 0.0),
        ),
        "bounded": lambda: _require_bounded(constant_field(2e6, square), "Q0"),
        "oracle-u": lambda: separable_family(-1.0, 0.0, shift1=math.pi / 2),
    }


_PINNED_GATES = [
    (
        "compatible",
        CompatibilityError,
        "compatibility condition casirot violated: max residual 1.000e+00 "
        "exceeds tolerance 1.000e-08",
        Check("casirot", 1.0, 1e-8, False),
    ),
    (  # op_A(Phi) is op_Abar(conj(Phi)), whose condition is named for Phi
        "compatible-plus",
        CompatibilityError,
        "compatibility condition casirot_plus violated: max residual 2.000e+00 "
        "exceeds tolerance 1.000e-08",
        Check("casirot_plus", 2.0, 1e-8, False),
    ),
    (
        "nonvanishing",
        NonvanishingError,
        "f must be nonvanishing: sampled min |f| = 0.000e+00 at (0.0, 0.0)",
        Check("f", 0.0, 1e-10, False, (0.0, 0.0)),
    ),
    (
        "denominator",
        ZeroSetError,
        "u vanishes in the region: min |u| = 0.000e+00 at (0.5, 0.0)",
        Check("u", 0.0, 1e-10, False, (0.5, 0.0)),
    ),
    (
        "region",
        ZeroSetError,
        "Re W vanishes in the region: min |Re W| = 0.000e+00 at (0.0, -1.0)",
        Check("Re W", 0.0, 1e-8, False, (0.0, -1.0)),
    ),
    (
        "pair",
        DegeneratePairError,
        "degenerate pair Q1-Q2: min |difference| = 0.000e+00",
        Check("Q1-Q2", 0.0, 1e-8, False, (0.0, 0.0)),
    ),
    (
        "harmonic",
        NotASolutionError,
        "u is not a solution: residual 2.000e+00 exceeds 1.000e-06",
        Check("u", 2.0, 1e-6, False),
    ),
    (
        "bounded",
        ParameterError,
        "Q0 exceeds the boundedness proxy: max |Q0| = 2.000e+06",
        None,
    ),
    (
        "oracle-u",
        ParameterError,
        "separable_family oracle: u nearly vanishes (min |u| = 6.123e-17 at (0.0, 0.0))",
        None,
    ),
]


@pytest.mark.parametrize(
    "gate, error, message, check", _PINNED_GATES, ids=[case[0] for case in _PINNED_GATES]
)
def test_gate_messages_are_pinned(unit_square, gate, error, message, check):
    """Every gate's message text, and each GateError's failed Check."""
    with pytest.raises(error) as caught:
        _pinned_inputs(unit_square)[gate]()
    err = caught.value
    assert type(err) is error and str(err) == message
    if check is None:
        assert not isinstance(err, GateError)
    else:
        assert err.check == check

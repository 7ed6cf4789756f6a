"""Oracle families: self-checks, closed-form values, negative controls."""
import math

import numpy as np
import pytest

from riccati2d import (
    DomainSpec,
    ParameterError,
    Point,
    default_matrix,
    exp_family,
    harmonic_family,
    log_derivative,
    max_abs,
    perturb,
    riccati_residual,
    schrodinger_residual,
    separable_family,
)


def test_default_matrix_size_and_families():
    sols = default_matrix()
    assert len(sols) >= 12
    families = {s.family for s in sols}
    assert families == {"exp_family", "separable_family", "harmonic_family"}
    for fam in families:
        assert sum(s.family == fam for s in sols) >= 4


def test_matrix_invariants():
    for sol in default_matrix():
        assert max_abs(schrodinger_residual(sol.u, sol.nu)) < 1e-12
        assert max_abs(riccati_residual(sol.Q, sol.nu)) < 1e-12
        assert max_abs(log_derivative(sol.u) - sol.Q) < 1e-12


def test_exp_family_values():
    sol = exp_family(1.0, 0.0)
    assert sol.Q.evaluate(Point(0.3, 0.7)) == pytest.approx(0.5)
    sol = exp_family(1.0, math.atan2(0.8, 0.6))
    assert sol.Q.evaluate(Point(0.3, 0.7)) == pytest.approx(complex(0.3, -0.4))
    xg, yg = sol.domain.mesh(5, 5)
    np.testing.assert_allclose(sol.u(xg, yg), np.exp(0.6 * xg + 0.8 * yg), rtol=1e-13)


def test_exp_family_zero_nu_is_trivial():
    sol = exp_family(0.0, 1.234)
    assert max_abs(sol.u - 1.0) < 1e-15
    assert max_abs(sol.Q) < 1e-15


def test_exp_family_rejects_negative_nu():
    with pytest.raises(ParameterError):
        exp_family(-1.0, 0.0)


def test_separable_values():
    sol = separable_family(1.0, 1.0)
    assert sol.Q.evaluate(Point(0.2, 0.9)) == pytest.approx(complex(0.5, -0.5))
    assert sol.nu.evaluate(Point(0.5, 0.5)) == pytest.approx(2.0)
    neg = separable_family(0.0, -1.0)
    assert neg.nu.evaluate(Point(0.0, 0.0)) == pytest.approx(-1.0)
    assert neg.domain.y_max <= 1.3  # cos branch keeps away from its zeros


def test_separable_cos_zero_rejected():
    wide = DomainSpec(0.0, 1.0, -2.0, 2.0, 41, 41, Point(0.0, 0.0))
    with pytest.raises(ParameterError):
        separable_family(0.0, -1.0, domain=wide)


def test_harmonic_values():
    lin = harmonic_family("translate", 1, Point(-4.0, 0.0))
    xg, yg = lin.domain.mesh(5, 5)
    np.testing.assert_allclose(lin.u(xg, yg), xg + 4.0, rtol=1e-14)
    np.testing.assert_allclose(lin.Q.re(xg, yg), 0.5 / (xg + 4.0), rtol=1e-13)
    quad = harmonic_family(
        "translate", 2, Point(-2.0, 0.0), domain=DomainSpec(-0.4, 0.4, -0.4, 0.4, 41, 41)
    )
    np.testing.assert_allclose(
        quad.u(*quad.domain.mesh(5, 5)),
        (quad.domain.mesh(5, 5)[0] + 2.0) ** 2 - quad.domain.mesh(5, 5)[1] ** 2,
        rtol=1e-13,
    )


def test_harmonic_zero_set_rejected():
    with pytest.raises(ParameterError):
        harmonic_family("translate", 1, Point(0.5, 0.0))  # u = x - 0.5 vanishes
    with pytest.raises(ParameterError):  # at no node, but between x = 0.5 and 0.525
        harmonic_family("translate", 1, Point(0.51, 0.0))


def test_harmonic_rejects_bad_kind_and_degree():
    with pytest.raises(ParameterError):
        harmonic_family("spiral", 1)
    with pytest.raises(ParameterError):
        harmonic_family("monomial", -2)


def test_perturb_negative_control():
    sol = exp_family(1.0, 0.0)
    bad = perturb(sol, 0.1)
    assert not bad.valid
    assert bad.family.endswith("+perturbed")
    resid = max_abs(riccati_residual(bad.Q, bad.nu))
    assert resid > 1e-3
    # |Q+eps|^2 - |Q|^2 with Q = 1/2, eps = 0.1
    assert resid == pytest.approx(0.6**2 - 0.5**2, rel=1e-12)


def test_perturb_rejects_zero_epsilon():
    with pytest.raises(ParameterError):
        perturb(exp_family(1.0, 0.0), 0.0)

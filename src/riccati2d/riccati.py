"""The planar Schrodinger / complex Riccati correspondence.

Residual diagnostics, the logarithmic derivative and its exponential inverse,
the second-order operator factorization, the Darboux transform pair, and the
first Euler-type conversions between Riccati solutions and solutions of the
associated real-linear first-order system.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASolutionError, ParameterError, ZeroSetError
from .field import (
    NONVANISHING_EPS,
    DomainSpec,
    Field,
    check_nonvanishing,
    d_z,
    d_zbar,
    exp_field,
    gradient_norm_ratio,
    laplacian,
    max_abs,
    min_abs_location,
)
from .quadrature import AntiderivativeConfig, op_A, op_Abar

SOLUTION_TOL = 1e-6
BOUNDEDNESS_LIMIT = 1e6


@dataclass(frozen=True)
class RiccatiProblem:
    """Potential, rectangle and antiderivative configuration for one equation."""

    nu: Field
    domain: DomainSpec
    cfg: AntiderivativeConfig


def riccati_residual(Q: Field, prob: RiccatiProblem) -> Field:
    """Pointwise d_zbar(Q) + |Q|^2 - nu/4 (zero iff Q solves the equation)."""
    return d_zbar(Q) + (Q.abs2() - 0.25 * prob.nu)


def schrodinger_residual(u: Field, prob: RiccatiProblem) -> Field:
    """Pointwise (-Laplace + nu) u."""
    return -laplacian(u) + prob.nu * u


def _require_residual(residual: Field, what: str, tol: float) -> None:
    """The gate of a hypothesis stated as a residual: NotASolutionError naming
    ``what`` unless max |residual| <= tol (NaN fails)."""
    peak = max_abs(residual)
    if not peak <= tol:
        raise NotASolutionError(what, peak, tol)


def _require_riccati_solution(
    Q: Field, prob: RiccatiProblem, what: str, tol: float | None = None
) -> None:
    _require_residual(riccati_residual(Q, prob), what, SOLUTION_TOL if tol is None else tol)


def _require_schrodinger_solution(u: Field, prob: RiccatiProblem, what: str) -> None:
    _require_residual(schrodinger_residual(u, prob), what, SOLUTION_TOL)


def _require_bounded(Q: Field, what: str) -> None:
    peak = max_abs(Q)
    if not peak <= BOUNDEDNESS_LIMIT:
        raise ParameterError(f"{what} exceeds the boundedness proxy: max |{what}| = {peak:.3e}")


def _require_nonzero_denominator(f, name: str) -> None:
    m, at = min_abs_location(f)
    if not m > NONVANISHING_EPS:
        raise ZeroSetError(name, m, (at.x, at.y))


def log_derivative(u: Field) -> Field:
    """Q = d_z(u) / u for a nonvanishing real field u."""
    _require_nonzero_denominator(u, "u")
    return d_z(u) / u


def exp_reconstruct(Q: Field, prob: RiccatiProblem) -> Field:
    """u = exp of the d_z-antiderivative of Q; normalized so u(base) = e^c."""
    return exp_field(op_A(Q, prob.cfg))


def factorization_apply(Q: Field, phi: Field, prob: RiccatiProblem) -> tuple[Field, Field, Field]:
    """Both factorized forms of (Laplace - nu)/4 applied to a real field phi.

    Returns (lhs, rhs1, rhs2); the three agree pointwise iff Q solves the
    Riccati equation, and lhs - rhs1 equals the Riccati residual times phi.
    The conjugation in each factor applies before multiplication by Q.
    """
    lhs = 0.25 * (laplacian(phi) - prob.nu * phi)
    psi = d_z(phi) - Q * phi  # phi is real, so C[phi] = phi
    rhs1 = d_zbar(psi) + Q * psi.conj()
    chi = d_zbar(phi) - Q.conj() * phi
    rhs2 = d_z(chi) + Q.conj() * chi.conj()
    return lhs, rhs1, rhs2


def vekua_residual(W: Field, f: Field) -> Field:
    """Pointwise d_zbar(W) - (d_zbar(f)/f) * conj(W) for nonvanishing f."""
    check_nonvanishing(f, "f")
    return d_zbar(W) - (d_zbar(f) / f) * W.conj()


def darboux_v_from_u(u: Field, f: Field, prob: RiccatiProblem) -> Field:
    """Conjugate partner v of u with respect to the generator f.

    v = (1/f) * Abar(i f^2 d_zbar(u/f)); unique up to an additive c/f, fixed
    here by the base-point convention v(base) = c / f(base).
    """
    check_nonvanishing(f, "f")
    arg = 1j * (d_zbar(u / f) * (f * f))
    return op_Abar(arg, prob.cfg) / f


def darboux_u_from_v(v: Field, f: Field, prob: RiccatiProblem) -> Field:
    """Inverse transform: u = -f * Abar(i f^-2 d_zbar(f v)), up to an additive c*f."""
    check_nonvanishing(f, "f")
    arg = 1j * (d_zbar(f * v) / (f * f))
    return -(f * op_Abar(arg, prob.cfg))


def darboux_potential_eta(f: Field, prob: RiccatiProblem) -> Field:
    """Transformed potential eta = 2 (|grad f| / f)^2 - nu."""
    return 2.0 * gradient_norm_ratio(f) - prob.nu


def euler_first_W_from_Q(Q: Field, Q0: Field, prob: RiccatiProblem) -> Field:
    """Solution W of the real-linear system generated by Q0, with Re W = e^{A[Q]}.

    W = e^{A[Q]} + i e^{-A[Q0]} Abar[i e^{2 A[Q0]} d_zbar(e^{A[Q - Q0]})].
    Both inputs must solve the Riccati equation to tolerance and Q0 must be
    bounded on the closed rectangle.
    """
    _require_riccati_solution(Q0, prob, "Q0")
    _require_riccati_solution(Q, prob, "Q")
    _require_bounded(Q0, "Q0")
    f0 = exp_field(op_A(Q0, prob.cfg))
    u = exp_field(op_A(Q, prob.cfg))
    e_diff = exp_field(op_A(Q - Q0, prob.cfg))
    arg = 1j * (d_zbar(e_diff) * (f0 * f0))
    v = op_Abar(arg, prob.cfg) / f0
    return u + 1j * v


def euler_first_Q_from_W(W: Field) -> Field:
    """Recover the Riccati solution Q = d_z(Re W) / Re W."""
    _require_nonzero_denominator(W.re, "Re W")
    return d_z(W.re) / W.re

"""The planar Schrodinger / complex Riccati correspondence.

Residual diagnostics, the logarithmic derivative and its exponential inverse,
the second-order operator factorization, the Darboux transform pair, and the
first Euler-type conversions between Riccati solutions and solutions of the
associated real-linear first-order system, W = e^{A[Q]} + i (its Darboux conjugate).

An equation is fixed by its potential alone, the field ``nu`` of the functions
that read it; antiderivatives start at the base of their integrand's rectangle.
"""
from __future__ import annotations

from .errors import NotASolutionError, ParameterError, ZeroSetError
from .field import (
    NONVANISHING_EPS,
    Field,
    check_nonvanishing,
    d_z,
    d_zbar,
    exp_field,
    gradient_norm_ratio,
    laplacian,
    require_above,
    require_at_most,
)
from .quadrature import op_A, op_Abar

SOLUTION_TOL = 1e-6
BOUNDEDNESS_LIMIT = 1e6


def riccati_residual(Q: Field, nu: Field) -> Field:
    """Pointwise d_zbar(Q) + |Q|^2 - nu/4 (zero iff Q solves the equation)."""
    return d_zbar(Q) + (Q.abs2() - 0.25 * nu)


def schrodinger_residual(u: Field, nu: Field) -> Field:
    """Pointwise (-Laplace + nu) u."""
    return -laplacian(u) + nu * u


def _require_riccati_solution(Q: Field, nu: Field, what: str, tol=None) -> None:
    tol = SOLUTION_TOL if tol is None else tol
    require_at_most(riccati_residual(Q, nu), tol, NotASolutionError, what)


def _require_schrodinger_solution(u: Field, nu: Field, what: str) -> None:
    require_at_most(schrodinger_residual(u, nu), SOLUTION_TOL, NotASolutionError, what)


def _require_bounded(Q: Field, what: str) -> None:
    def unbounded(c):  # not a GateError: a proxy, not a hypothesis of a theorem
        return ParameterError(f"{what} exceeds the boundedness proxy: max |{what}| = {c.value:.3e}")

    require_at_most(Q, BOUNDEDNESS_LIMIT, unbounded, what)


def log_derivative(u: Field) -> Field:
    """Q = d_z(u) / u for a nonvanishing real field u."""
    require_above(u, NONVANISHING_EPS, ZeroSetError, "u")
    return d_z(u) / u


def exp_reconstruct(Q: Field) -> Field:
    """u = exp of the d_z-antiderivative of Q; normalized so u(base) = 1.  Kept on Q,
    so every reconstruction from one field is one leaf, integrated once."""
    u = Q.__dict__.get("_exp_reconstruct")
    if u is None:
        u = Q.__dict__["_exp_reconstruct"] = exp_field(op_A(Q))
    return u


def factorization_apply(Q: Field, phi: Field, nu: Field) -> tuple[Field, Field, Field]:
    """Both factorized forms of (Laplace - nu)/4 applied to a real field phi.

    Returns (lhs, rhs1, rhs2); the three agree pointwise iff Q solves the
    Riccati equation, and lhs - rhs1 equals the Riccati residual times phi.
    The conjugation in each factor applies before multiplication by Q.
    """
    lhs = 0.25 * (laplacian(phi) - nu * phi)
    psi = d_z(phi) - Q * phi  # phi is real, so C[phi] = phi
    rhs1 = d_zbar(psi) + Q * psi.conj()
    chi = d_zbar(phi) - Q.conj() * phi
    rhs2 = d_z(chi) + Q.conj() * chi.conj()
    return lhs, rhs1, rhs2


def vekua_residual(W: Field, f: Field) -> Field:
    """Pointwise d_zbar(W) - (d_zbar(f)/f) * conj(W) for nonvanishing f."""
    check_nonvanishing(f, "f")
    return d_zbar(W) - (d_zbar(f) / f) * W.conj()


def darboux_v_from_u(u: Field, f: Field) -> Field:
    """Conjugate partner v of u with respect to the generator f.

    v = (1/f) * Abar(i f^2 d_zbar(u/f)); unique up to an additive c/f, fixed
    here by the base-point convention v(base) = 0.
    """
    check_nonvanishing(f, "f")
    arg = 1j * (d_zbar(u / f) * (f * f))
    return op_Abar(arg) / f


def darboux_u_from_v(v: Field, f: Field) -> Field:
    """Inverse transform: u = -f * Abar(i f^-2 d_zbar(f v)), up to an additive c*f.  For
    v = L / f, f v folds to v's leaf L, so the integrand is L's exact partials."""
    check_nonvanishing(f, "f")
    arg = 1j * (d_zbar(f * v) / (f * f))
    return -(f * op_Abar(arg))


def darboux_potential_eta(f: Field, nu: Field) -> Field:
    """Transformed potential eta = 2 (|grad f| / f)^2 - nu."""
    return 2.0 * gradient_norm_ratio(f) - nu


def euler_first_W_from_Q(Q: Field, Q0: Field, nu: Field) -> Field:
    """Solution W = u + i v of the real-linear system generated by Q0: u = e^{A[Q]}
    and v its Darboux conjugate with respect to f0 = e^{A[Q0]}, as u / f0 = e^{A[Q - Q0]}.

    Both inputs must solve the Riccati equation to tolerance and Q0 must be
    bounded on the closed rectangle.
    """
    _require_riccati_solution(Q0, nu, "Q0")
    _require_riccati_solution(Q, nu, "Q")
    _require_bounded(Q0, "Q0")
    f0, u = exp_reconstruct(Q0), exp_reconstruct(Q)
    return u + 1j * darboux_v_from_u(u, f0)


def euler_first_Q_from_W(W: Field) -> Field:
    """Recover the Riccati solution Q = d_z(Re W) / Re W."""
    require_above(W.re, NONVANISHING_EPS, ZeroSetError, "Re W")
    return d_z(W.re) / W.re

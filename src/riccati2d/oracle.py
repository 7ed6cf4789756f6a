"""Closed-form ground-truth solution families and controlled perturbations.

Every valid oracle self-checks at construction: its u must satisfy the
second-order equation, its Q the first-order one, both to 1e-12, and u must
be nonvanishing on its rectangle, that of u, at whose base antiderivatives of
its fields start.  All oracles are expression-backed so they carry no
finite-difference error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import expressions as ex
from .errors import NotASolutionError, ParameterError
from .field import (
    DomainSpec,
    Field,
    Point,
    constant_field,
    d_z,
    require_above,
    require_at_most,
)
from .riccati import riccati_residual, schrodinger_residual

SELF_CHECK_TOL = 1e-12
ZERO_SET_MARGIN = 1e-6


@dataclass(frozen=True)
class OracleSolution:
    u: Field
    nu: Field
    Q: Field
    family: str
    params: dict
    valid: bool = True

    @property
    def domain(self) -> DomainSpec:
        return self.u.domain


def _self_check(sol: OracleSolution) -> OracleSolution:
    nu, tol, family = sol.nu, SELF_CHECK_TOL, sol.family

    def vanishes(check):  # not a GateError: the oracle itself is invalid
        m, at = check.value, check.at
        return ParameterError(f"{family} oracle: u nearly vanishes (min |u| = {m:.3e} at {at})")

    require_above(sol.u, ZERO_SET_MARGIN, vanishes, "u")
    require_at_most(schrodinger_residual(sol.u, nu), tol, NotASolutionError, f"{family} oracle u")
    require_at_most(riccati_residual(sol.Q, nu), tol, NotASolutionError, f"{family} oracle Q")
    return sol


_UNIT_SQUARE = DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41, Point(0.0, 0.0))


def exp_family(
    nu_const: float, theta: float, domain: Optional[DomainSpec] = None
) -> OracleSolution:
    """u = exp(a x + b y) with a = sqrt(nu) cos(theta), b = sqrt(nu) sin(theta)."""
    if nu_const < 0:
        raise ParameterError("exp_family requires nu_const >= 0")
    dom = domain or _UNIT_SQUARE
    root = math.sqrt(nu_const)
    a, b = root * math.cos(theta), root * math.sin(theta)
    u = Field(dom, ex.Exp(ex.Const(a) * ex.X + ex.Const(b) * ex.Y))
    Q = constant_field(complex(a / 2.0, -b / 2.0), dom)
    params = {"nu": nu_const, "theta": theta}
    return _self_check(OracleSolution(u, constant_field(nu_const, dom), Q, "exp_family", params))


def _axis_factor(nu: float, var: ex.Expr, branch: str, half_width_cap: float):
    """1-D factor F with F'' = nu F, its log-derivative, and a safe half-width."""
    if nu > 0:
        k = math.sqrt(nu)
        if branch == "cosh":
            F = ex.Cosh(ex.Const(k) * var)
            logd = ex.Const(k) * ex.Sinh(ex.Const(k) * var) / ex.Cosh(ex.Const(k) * var)
        else:
            F = ex.Exp(ex.Const(k) * var)
            logd = ex.Const(k)
        return F, logd, half_width_cap
    if nu == 0:
        return ex.ONE, ex.ZERO, half_width_cap
    k = math.sqrt(-nu)
    # keep |k t| comfortably below pi/2 so the cosine factor cannot vanish
    width = min(half_width_cap, 1.3 / k)
    F = ex.Cos(ex.Const(k) * var)
    logd = ex.Const(-k) * ex.Sin(ex.Const(k) * var) / ex.Cos(ex.Const(k) * var)
    return F, logd, width


def separable_family(
    nu1: float,
    nu2: float,
    branch1: str = "exp",
    branch2: str = "exp",
    shift1: float = 0.0,
    shift2: float = 0.0,
    domain: Optional[DomainSpec] = None,
) -> OracleSolution:
    """Product solution u = X(x) Y(y) with X'' = nu1 X, Y'' = nu2 Y, nu = nu1 + nu2.

    The optional shifts translate each 1-D factor, e.g. cosh(k (x + shift1)).
    """
    Fx, logdx, wx = _axis_factor(nu1, ex.X + ex.Const(shift1), branch1, 1.0)
    Fy, logdy, wy = _axis_factor(nu2, ex.Y + ex.Const(shift2), branch2, 1.0)
    if domain is None:
        x_lo, x_hi = (0.0, 1.0) if nu1 >= 0 else (-wx, wx)
        y_lo, y_hi = (0.0, 1.0) if nu2 >= 0 else (-wy, wy)
        domain = DomainSpec(x_lo, x_hi, y_lo, y_hi, 41, 41, Point(0.0, 0.0))
    else:
        for nu, w, lo, hi in (
            (nu1, wx, domain.x_min + shift1, domain.x_max + shift1),
            (nu2, wy, domain.y_min + shift2, domain.y_max + shift2),
        ):
            if nu < 0 and max(abs(lo), abs(hi)) * math.sqrt(-nu) >= math.pi / 2:
                raise ParameterError(
                    "separable_family: cosine factor vanishes inside the requested domain"
                )
    u = Field(domain, Fx * Fy)
    Q = Field(domain, 0.5 * logdx - 0.5j * logdy)
    params = {"nu1": nu1, "nu2": nu2, "branch1": branch1, "branch2": branch2}
    nu = constant_field(nu1 + nu2, domain)
    return _self_check(OracleSolution(u, nu, Q, "separable_family", params))


_MONOMIAL_DOMAIN = DomainSpec(1.5, 2.5, -0.4, 0.4, 41, 41, Point(2.0, 0.0))


def harmonic_family(
    kind: str, n: int, shift: Point = Point(0.0, 0.0), domain: Optional[DomainSpec] = None
) -> OracleSolution:
    """u = Re (z - shift)^n, a harmonic polynomial with nu = 0.

    kind "monomial" uses shift 0 on a rectangle away from the zero set of
    Re z^n; kind "translate" uses the given shift on the unit square.
    """
    if n < 0:
        raise ParameterError("harmonic_family requires n >= 0")
    if kind == "monomial":
        shift = Point(0.0, 0.0)
        dom = domain or (_UNIT_SQUARE if n == 0 else _MONOMIAL_DOMAIN)
    elif kind == "translate":
        dom = domain or _UNIT_SQUARE
    else:
        raise ParameterError(f"unknown harmonic kind {kind!r}")
    z_n = ex.powi(ex.X + 1j * ex.Y - complex(shift.x, shift.y), n)
    u = Field(dom, ex.real(z_n))
    Q = d_z(u) / u
    params = {"kind": kind, "n": n, "shift": (shift.x, shift.y)}
    sol = OracleSolution(u, constant_field(0.0, dom), Q, "harmonic_family", params)
    try:
        return _self_check(sol)
    except ParameterError:
        raise ParameterError(
            f"harmonic_family: zero set of Re(z - shift)^{n} intersects the domain"
        ) from None


def perturb(sol: OracleSolution, epsilon: float) -> OracleSolution:
    """Shift Q by a nonzero constant to produce a certified non-solution."""
    if epsilon == 0:
        raise ParameterError("perturbation epsilon must be nonzero")
    Q_bad = sol.Q + epsilon
    return replace(
        sol,
        Q=Q_bad,
        family=sol.family + "+perturbed",
        params={**sol.params, "epsilon": epsilon},
        valid=False,
    )


def default_matrix() -> list[OracleSolution]:
    """The standard >= 12 oracle test matrix (4 exponential, 4 separable, 4 harmonic)."""
    sols = [
        exp_family(1.0, 0.0),
        exp_family(1.0, math.atan2(0.8, 0.6)),
        exp_family(1.0, math.pi / 2),
        exp_family(2.0, math.pi),
        separable_family(1.0, 1.0),
        separable_family(1.0, 0.0),
        separable_family(0.0, -1.0),
        separable_family(1.0, 1.0, branch1="cosh", branch2="cosh"),
        harmonic_family("translate", 1, Point(-4.0, 0.0)),
        harmonic_family("monomial", 0),
        harmonic_family("monomial", 2),
        harmonic_family("translate", 3, Point(-4.0, 0.0)),
    ]
    return sols

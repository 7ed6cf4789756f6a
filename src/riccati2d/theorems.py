"""Named identities verified as numeric checks with pass/fail verdicts.

Each checker re-verifies its own hypotheses (solution-hood, nonvanishing,
closedness) before asserting the conclusion, so a failure always names the
violated hypothesis rather than silently producing a large residual.  Each
returns the ``Check`` that ``verdict`` makes of its residual and tolerance.
The potential-free reductions are ``cauchy_schrodinger`` at nu = 0 with the
constant 1 as f or as u.
"""
from __future__ import annotations

import math

import numpy as np

from . import expressions as ex
from .errors import Check, ContourError, DegeneratePairError, NotASolutionError, ZeroSetError
from .field import (
    DomainSpec,
    Field,
    Point,
    check_nonvanishing,
    d_z,
    d_zbar,
    max_abs,
    require_above,
    require_at_most,
)
from .quadrature import Contour, line_integral_dz
from .riccati import (
    _require_bounded,
    _require_riccati_solution,
    _require_schrodinger_solution,
    exp_reconstruct,
)

PICARD_MARGIN_CELLS = 2
PAIR_DEGENERACY_EPS = 1e-8
ANALYTIC_TOL = 1e-8
TAYLOR_CIRCLE_FRACTION = 0.1
TAYLOR_CIRCLE_NODES = 128


def verdict(name: str, residual: float, tolerance: float, table) -> Check:
    """The identity ``name`` passes when ``residual < tolerance`` (NaN fails)."""
    return Check(name, residual, tolerance, residual < tolerance, refinement=tuple(table))


# ---------------------------------------------------------------------------
# Picard's four-solution identity
# ---------------------------------------------------------------------------


def picard_term(Qi: Field, Qj: Field) -> Field:
    """[d_zbar(Qi - Qj) + 2i Im(conj(Qi) Qj)] / (Qi - Qj)."""
    diff = Qi - Qj
    cross = (Qi.conj() * Qj).im
    return (d_zbar(diff) + 2j * cross) / diff


def picard_identity(
    Q1: Field,
    Q2: Field,
    Q3: Field,
    Q4: Field,
    nu: Field,
    tolerance: float = 1e-8,
    solution_tol: float | None = None,
) -> Check:
    """Four-term alternating sum that vanishes for any four Riccati solutions.

    ``solution_tol`` relaxes the solution-hood gate for grid-backed inputs,
    whose own residual is only O(h^2).
    """
    Qs = (Q1, Q2, Q3, Q4)
    for k, Q in enumerate(Qs, start=1):
        _require_riccati_solution(Q, nu, f"Q{k}", tol=solution_tol)
    pairs = ((0, 1), (2, 3), (0, 3), (2, 1))
    for i, j in pairs:
        require_above(Qs[i] - Qs[j], PAIR_DEGENERACY_EPS, DegeneratePairError, f"Q{i + 1}-Q{j + 1}")
    total = (
        picard_term(Q1, Q2)
        + picard_term(Q3, Q4)
        - picard_term(Q1, Q4)
        - picard_term(Q3, Q2)
    )
    residual = max_abs(total, margin=PICARD_MARGIN_CELLS)
    return verdict("picard", residual, tolerance, [(float(nu.domain.nx), residual)])


# ---------------------------------------------------------------------------
# Cauchy-type integral theorems
# ---------------------------------------------------------------------------


def _require_closed(gamma: Contour) -> None:
    if not gamma.closed:
        raise ContourError("contour not closed")


def cauchy_riccati(
    Q0: Field,
    Q1: Field,
    gamma: Contour,
    nu: Field,
    tolerance: float = 1e-10,
    refine: int = 0,
    solution_tol: float | None = None,
) -> Check:
    """|Re I1| + |Im I2| for the two contour integrals built from Q1 -/+ Q0.

    ``solution_tol`` relaxes the solution-hood gate, e.g. for negative
    controls that measure how the residual reacts to a non-solution.
    """
    _require_closed(gamma)
    _require_riccati_solution(Q0, nu, "Q0", tol=solution_tol)
    _require_riccati_solution(Q1, nu, "Q1", tol=solution_tol)
    _require_bounded(Q0, "Q0")
    _require_bounded(Q1, "Q1")
    diff = Q1 - Q0
    e_diff = exp_reconstruct(diff)
    e_sum = exp_reconstruct(Q1 + Q0)
    return _contour_check("cauchy-riccati", diff * e_diff, diff * e_sum, gamma, tolerance, refine)


def cauchy_schrodinger(
    f: Field,
    u: Field,
    gamma: Contour,
    nu: Field,
    tolerance: float = 1e-10,
    refine: int = 0,
) -> Check:
    """|Re int d_z(u/f) dz| + |Im int f^2 d_z(u/f) dz| over a closed contour.

    At nu = 0 the constant 1 is a solution, so f = 1 gives int u_z dz = 0 and
    u = 1 gives Re int d_z(1/f) dz = 0: the potential-free reductions.
    """
    _require_closed(gamma)
    check_nonvanishing(f, "f")
    _require_schrodinger_solution(f, nu, "f")
    _require_schrodinger_solution(u, nu, "u")
    g = d_z(u / f)
    return _contour_check("cauchy-schrodinger", g, g * (f * f), gamma, tolerance, refine)


def _contour_check(name, g1: Field, g2: Field, gamma: Contour, tolerance, refine) -> Check:
    """|Re int g1 dz| + |Im int g2 dz| on ``gamma`` with its nodes doubled
    ``refine`` times, one row a level; the finest level's is the residual.
    A g2 whose tree is g1's is integrated once."""
    table = []
    for level in range(refine + 1):
        c = gamma.with_nodes(gamma.resolution() * 2**level)
        i1 = line_integral_dz(g1, c)
        i2 = i1 if g2.expr is g1.expr else line_integral_dz(g2, c)
        table.append((float(c.resolution()), abs(i1.real) + abs(i2.imag)))
    return verdict(name, table[-1][1], tolerance, table)


# ---------------------------------------------------------------------------
# Second Euler theorem at the classical baseline (analytic powers)
# ---------------------------------------------------------------------------


def analytic_power(n: int, domain: DomainSpec, z0: Point = Point(0.0, 0.0)) -> Field:
    """The analytic field (z - z0)^n as a complex expression field."""
    return Field(domain, ex.powi(ex.X + 1j * ex.Y - complex(z0.x, z0.y), n))


def analytic_exp(domain: DomainSpec) -> Field:
    """The entire field exp(z)."""
    return Field(domain, ex.Exp(ex.X + 1j * ex.Y))


def taylor_coefficients(W: Field, z0: Point, max_degree: int, radius: float) -> tuple[complex, ...]:
    """Coefficients via the contour-integral formula on a circle of TAYLOR_CIRCLE_NODES nodes."""
    t = 2.0 * np.pi * np.arange(TAYLOR_CIRCLE_NODES) / TAYLOR_CIRCLE_NODES
    zx = z0.x + radius * np.cos(t)
    zy = z0.y + radius * np.sin(t)
    w = W(zx, zy)
    phases = np.exp(-1j * t)
    coeffs = []
    for n in range(max_degree + 1):
        coeffs.append(complex(np.mean(w * phases**n) / radius**n))
    return tuple(coeffs)


def euler_second_baseline(
    W: Field,
    z0: Point,
    N: int,
    region: DomainSpec | None = None,
    tolerance: float = 1e-8,
) -> Check:
    """Partial-sum log-derivative convergence for an analytic field.

    At the classical baseline the formal powers are the ordinary powers
    a_n (z - z0)^n, so the reference expansion is the Taylor series.  The
    check compares d_z(Re S_N)/Re S_N against d_z(Re W)/Re W on a test
    subregion avoiding zeros of the retained partial sums.
    """
    require_at_most(d_zbar(W), ANALYTIC_TOL, NotASolutionError, "W (must be analytic)")
    dom = W.domain
    radius = min(z0.x - dom.x_min, dom.x_max - z0.x, z0.y - dom.y_min, dom.y_max - z0.y)
    if radius <= 0:
        # expansion point outside the rectangle: scale by the far corner
        radius = max(
            math.hypot(z0.x - cx, z0.y - cy)
            for cx in (dom.x_min, dom.x_max)
            for cy in (dom.y_min, dom.y_max)
        )
    coeffs = taylor_coefficients(W, z0, N, TAYLOR_CIRCLE_FRACTION * radius)

    if region is None:
        half = 0.4 * radius
        region = DomainSpec(z0.x - half, z0.x + half, z0.y - half, z0.y + half, 33, 33)
    xg, yg = region.mesh()
    dz = xg + 1j * yg - complex(z0.x, z0.y)

    w_re = W.re(xg, yg)
    require_above(w_re, PAIR_DEGENERACY_EPS, ZeroSetError, "Re W", (xg, yg))
    wz = d_z(W)(xg, yg)
    q_exact = 0.5 * wz / w_re

    scale = max(abs(a) for a in coeffs) or 1.0
    retained = [n for n, a in enumerate(coeffs) if abs(a) > 1e-12 * scale]
    if not retained:
        raise ZeroSetError(Check("partial sum", 0.0, 1e-12 * scale, False, (z0.x, z0.y)))
    table: list[tuple[float, float]] = []
    # S_n and S_n' of each degree: those of the degree below plus its own term
    s_n, s_prime = np.zeros_like(dz), np.zeros_like(dz)
    for degree, a in enumerate(coeffs):
        s_n += a * dz**degree
        if degree >= 1:
            s_prime += degree * a * dz ** (degree - 1)
        if degree < retained[0]:
            continue
        require_above(s_n.real, PAIR_DEGENERACY_EPS, ZeroSetError, f"Re S_{degree}", (xg, yg))
        q_n = 0.5 * s_prime / s_n.real
        residual = float(np.max(np.abs(q_n - q_exact)))
        table.append((float(degree), residual))
    return verdict("euler2-baseline", residual, tolerance, table)


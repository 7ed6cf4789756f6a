"""Named identities verified as numeric checks with pass/fail verdicts.

Each checker re-verifies its own hypotheses (solution-hood, nonvanishing,
closedness) before asserting the conclusion, so a failure always names the
violated hypothesis rather than silently producing a large residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import expressions as ex
from .errors import ContourError, DegeneratePairError, ZeroSetError
from .field import (
    DomainSpec,
    Field,
    Point,
    d_z,
    d_zbar,
    exp_field,
    laplacian,
    max_abs,
    min_abs_location,
    check_nonvanishing,
)
from .quadrature import Contour, line_integral_dz, op_A
from .riccati import (
    RiccatiProblem,
    _require_bounded,
    _require_residual,
    _require_riccati_solution,
    _require_schrodinger_solution,
)

PICARD_MARGIN_CELLS = 2
PAIR_DEGENERACY_EPS = 1e-8
HARMONIC_TOL = 1e-6
ANALYTIC_TOL = 1e-8
TAYLOR_CIRCLE_FRACTION = 0.1
TAYLOR_CIRCLE_NODES = 128


@dataclass
class IdentityResult:
    name: str
    residual: float
    tolerance: float
    refinement_table: list[tuple[float, float]] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def to_dict(self) -> dict:
        """Report entry; a non-finite residual is None, so the report stays strict JSON."""
        return {
            "case": self.name,
            "residual": self.residual if math.isfinite(self.residual) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "refinement": [[r, v if math.isfinite(v) else None] for r, v in self.refinement_table],
        }


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
    prob: RiccatiProblem,
    tolerance: float = 1e-8,
    margin: int = PICARD_MARGIN_CELLS,
    solution_tol: float | None = None,
) -> IdentityResult:
    """Four-term alternating sum that vanishes for any four Riccati solutions.

    ``solution_tol`` relaxes the solution-hood gate for grid-backed inputs,
    whose own residual is only O(h^2).
    """
    Qs = (Q1, Q2, Q3, Q4)
    for k, Q in enumerate(Qs, start=1):
        _require_riccati_solution(Q, prob, f"Q{k}", tol=solution_tol)
    pairs = ((0, 1), (2, 3), (0, 3), (2, 1))
    for i, j in pairs:
        dmin, _ = min_abs_location(Qs[i] - Qs[j])
        if not dmin > PAIR_DEGENERACY_EPS:
            raise DegeneratePairError(f"Q{i + 1}-Q{j + 1}", dmin)
    total = (
        picard_term(Q1, Q2)
        + picard_term(Q3, Q4)
        - picard_term(Q1, Q4)
        - picard_term(Q3, Q2)
    )
    residual = max_abs(total, margin=margin)
    return IdentityResult(
        name="picard",
        residual=residual,
        tolerance=tolerance,
        refinement_table=[(float(prob.domain.nx), residual)],
    )


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
    prob: RiccatiProblem,
    tolerance: float = 1e-10,
    refine: int = 0,
    solution_tol: float | None = None,
) -> IdentityResult:
    """|Re I1| + |Im I2| for the two contour integrals built from Q1 -/+ Q0.

    ``solution_tol`` relaxes the solution-hood gate, e.g. for negative
    controls that measure how the residual reacts to a non-solution.
    """
    _require_closed(gamma)
    _require_riccati_solution(Q0, prob, "Q0", tol=solution_tol)
    _require_riccati_solution(Q1, prob, "Q1", tol=solution_tol)
    _require_bounded(Q0, "Q0")
    _require_bounded(Q1, "Q1")
    diff = Q1 - Q0
    e_diff = exp_field(op_A(diff, prob.cfg))
    e_sum = exp_field(op_A(Q1 + Q0, prob.cfg))
    integrand1 = diff * e_diff
    integrand2 = diff * e_sum

    def residual_at(g: Contour) -> float:
        i1 = line_integral_dz(integrand1, g)
        i2 = line_integral_dz(integrand2, g)
        return abs(i1.real) + abs(i2.imag)

    return _with_refinement("cauchy-riccati", residual_at, gamma, tolerance, refine)


def cauchy_schrodinger(
    f: Field,
    u: Field,
    gamma: Contour,
    prob: RiccatiProblem,
    tolerance: float = 1e-10,
    refine: int = 0,
) -> IdentityResult:
    """|Re int d_z(u/f) dz| + |Im int f^2 d_z(u/f) dz| over a closed contour."""
    _require_closed(gamma)
    check_nonvanishing(f, "f")
    _require_schrodinger_solution(f, prob, "f")
    _require_schrodinger_solution(u, prob, "u")
    g = d_z(u / f)
    g_weighted = g * (f * f)

    def residual_at(c: Contour) -> float:
        i1 = line_integral_dz(g, c)
        i2 = line_integral_dz(g_weighted, c)
        return abs(i1.real) + abs(i2.imag)

    return _with_refinement("cauchy-schrodinger", residual_at, gamma, tolerance, refine)


def cauchy_laplace_reductions(
    field: Field,
    gamma: Contour,
    kind: str = "derivative",
    tolerance: float = 1e-10,
    refine: int = 0,
) -> IdentityResult:
    """The nu = 0 reductions: int u_z dz = 0 and Re int d_z(1/f) dz = 0.

    kind "derivative" checks the first for a harmonic field; kind
    "reciprocal" checks the second for a harmonic nonvanishing field.
    """
    _require_closed(gamma)
    _require_residual(laplacian(field), "input (must be harmonic)", HARMONIC_TOL)
    if kind == "derivative":
        integrand = d_z(field)

        def residual_at(c: Contour) -> float:
            return abs(line_integral_dz(integrand, c))

    elif kind == "reciprocal":
        check_nonvanishing(field, "f")
        integrand = d_z(1.0 / field)

        def residual_at(c: Contour) -> float:
            return abs(line_integral_dz(integrand, c).real)

    else:
        raise ValueError(f"unknown reduction kind {kind!r}")
    return _with_refinement(f"laplace-{kind}", residual_at, gamma, tolerance, refine)


def _with_refinement(name, residual_at, gamma: Contour, tolerance, refine) -> IdentityResult:
    table = []
    for level in range(refine + 1):
        g = gamma.with_nodes(gamma.resolution() * 2**level)
        table.append((float(g.resolution()), residual_at(g)))
    return IdentityResult(
        name=name, residual=table[-1][1], tolerance=tolerance, refinement_table=table
    )


# ---------------------------------------------------------------------------
# Second Euler theorem at the classical baseline (analytic powers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalPowerBaseline:
    """Truncated power expansion around z0, valid on |z - z0| < radius."""

    center: Point
    radius: float
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("expansion radius must be positive")

    def value(self, z: np.ndarray, degree: int) -> np.ndarray:
        z0 = complex(self.center.x, self.center.y)
        out = np.zeros_like(z, dtype=complex)
        for n, a in enumerate(self.coefficients[: degree + 1]):
            out += a * (z - z0) ** n
        return out

    def derivative(self, z: np.ndarray, degree: int) -> np.ndarray:
        z0 = complex(self.center.x, self.center.y)
        out = np.zeros_like(z, dtype=complex)
        for n, a in enumerate(self.coefficients[: degree + 1]):
            if n >= 1:
                out += n * a * (z - z0) ** (n - 1)
        return out


def analytic_power(n: int, domain: DomainSpec, z0: Point = Point(0.0, 0.0)) -> Field:
    """The analytic field (z - z0)^n as a complex expression field."""
    return Field(domain, ex.powi(ex.X + 1j * ex.Y - complex(z0.x, z0.y), n))


def analytic_exp(domain: DomainSpec) -> Field:
    """The entire field exp(z)."""
    return Field(domain, ex.Exp(ex.X + 1j * ex.Y))


def taylor_coefficients(
    W: Field, z0: Point, max_degree: int, radius: float, n_nodes: int = TAYLOR_CIRCLE_NODES
) -> tuple[complex, ...]:
    """Coefficients via the contour-integral formula on a small circle."""
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
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
    radius: float | None = None,
) -> IdentityResult:
    """Partial-sum log-derivative convergence for an analytic field.

    At the classical baseline the formal powers are the ordinary powers
    a_n (z - z0)^n, so the reference expansion is the Taylor series.  The
    check compares d_z(Re S_N)/Re S_N against d_z(Re W)/Re W on a test
    subregion avoiding zeros of the retained partial sums.
    """
    _require_residual(d_zbar(W), "W (must be analytic)", ANALYTIC_TOL)
    dom = W.domain
    if radius is None:
        radius = min(z0.x - dom.x_min, dom.x_max - z0.x, z0.y - dom.y_min, dom.y_max - z0.y)
        if radius <= 0:
            # expansion point outside the rectangle: scale by the far corner
            radius = max(
                math.hypot(z0.x - cx, z0.y - cy)
                for cx in (dom.x_min, dom.x_max)
                for cy in (dom.y_min, dom.y_max)
            )
    circle_r = TAYLOR_CIRCLE_FRACTION * radius
    coeffs = taylor_coefficients(W, z0, N, circle_r)
    expansion = FormalPowerBaseline(z0, radius, coeffs)

    if region is None:
        half = 0.4 * radius
        region = DomainSpec(z0.x - half, z0.x + half, z0.y - half, z0.y + half, 33, 33)
    xg, yg = region.mesh()
    z = xg + 1j * yg

    w_re = W.re(xg, yg)
    _require_region_nonzero(w_re, xg, yg, "Re W")
    wz = d_z(W)(xg, yg)
    q_exact = 0.5 * wz / w_re

    scale = max(abs(a) for a in coeffs) or 1.0
    retained = [n for n, a in enumerate(coeffs) if abs(a) > 1e-12 * scale]
    if not retained:
        raise ZeroSetError("partial sum", 0.0, (z0.x, z0.y))
    table: list[tuple[float, float]] = []
    residual = math.inf
    for degree in range(retained[0], N + 1):
        s_re = expansion.value(z, degree).real
        _require_region_nonzero(s_re, xg, yg, f"Re S_{degree}")
        q_n = 0.5 * expansion.derivative(z, degree) / s_re
        residual = float(np.max(np.abs(q_n - q_exact)))
        table.append((float(degree), residual))
    return IdentityResult(
        name="euler2-baseline", residual=residual, tolerance=tolerance, refinement_table=table
    )


def _require_region_nonzero(values: np.ndarray, xg, yg, name: str) -> None:
    k = int(np.argmin(np.abs(values)))
    m = float(np.abs(values.flat[k]))
    if not m > PAIR_DEGENERACY_EPS:
        raise ZeroSetError(name, m, (float(xg.flat[k]), float(yg.flat[k])))

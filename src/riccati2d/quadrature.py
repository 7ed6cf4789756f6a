"""Contours, line integrals and the antiderivative operators.

The antiderivative operators integrate along the canonical L-path (vertical
segment at the base abscissa, then horizontal at the target ordinate), which
is exactly the two-integral reconstruction formula the rest of the package is
built around.  Segment quadrature is composite 8-point Gauss-Legendre with
dyadic panel refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expressions as ex
from .errors import CompatibilityError, ContourError, DomainError, ParameterError
from .field import (
    ComplexField,
    DomainSpec,
    ExprField,
    Point,
    ScalarField,
    max_abs,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

SEGMENT_REL_TOL = 1e-10
MAX_PANELS = 2**14
_MAX_BATCH = 8_000_000  # cap on evaluation-array size during refinement


@dataclass(frozen=True)
class AntiderivativeConfig:
    base: Point
    constant_c: float = 0.0
    compat_tol: float = 1e-8

    def __post_init__(self):
        if self.compat_tol <= 0:
            raise ParameterError("compat_tol must be positive")


def _composite_gl(fn, a, b, panels: int):
    """Composite Gauss-Legendre for int_a^b fn(s) ds with array bounds.

    ``a`` and ``b`` broadcast against each other; ``fn`` receives an array of
    shape (panels*8,) + broadcast-shape and must broadcast accordingly.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    shape = np.broadcast(a, b).shape
    t = ((np.arange(panels)[:, None] + (_GL_NODES[None, :] + 1.0) / 2.0) / panels).reshape(-1)
    w = np.tile(_GL_WEIGHTS / (2.0 * panels), panels)
    expand = (slice(None),) + (None,) * len(shape)
    s = a[None, ...] + t[expand] * (b - a)[None, ...]
    vals = np.asarray(fn(s))
    vals = np.broadcast_to(vals, s.shape)
    return (b - a) * np.sum(w[expand] * vals, axis=0)


def adaptive_segment_integral(
    fn, a, b, rel_tol: float = SEGMENT_REL_TOL, max_panels: int = MAX_PANELS
):
    """Dyadically refine the composite rule until the relative change stalls."""
    size = int(np.prod(np.broadcast(np.asarray(a), np.asarray(b)).shape) or 1)
    prev = None
    panels = 1
    while True:
        val = _composite_gl(fn, a, b, panels)
        if prev is not None:
            delta = float(np.max(np.abs(val - prev)))
            scale = float(np.max(np.abs(val))) + 1.0
            if delta <= rel_tol * scale:
                return val
        if panels >= max_panels or panels * 16 * size > _MAX_BATCH:
            return val
        prev = val
        panels *= 2


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contour:
    kind: str  # "circle" | "polyline"
    closed: bool
    center: Optional[Point] = None
    radius: float = 0.0
    n_nodes: int = 256
    vertices: tuple[Point, ...] = ()
    n_per_segment: int = 32

    @staticmethod
    def circle(cx: float, cy: float, r: float, n_nodes: int = 256) -> "Contour":
        if r <= 0:
            raise ContourError("circle radius must be positive")
        if n_nodes < 16:
            raise ContourError("circles need at least 16 quadrature nodes")
        return Contour(kind="circle", closed=True, center=Point(cx, cy), radius=r, n_nodes=n_nodes)

    @staticmethod
    def polyline(points: Sequence[tuple[float, float]], n_per_segment: int = 32) -> "Contour":
        if len(points) < 2:
            raise ContourError("polyline needs at least two vertices")
        if n_per_segment < 1:
            raise ContourError("polylines need at least one panel per segment")
        verts = tuple(Point(float(x), float(y)) for x, y in points)
        closed = (
            abs(verts[0].x - verts[-1].x) < 1e-14 and abs(verts[0].y - verts[-1].y) < 1e-14
        )
        return Contour(
            kind="polyline", closed=closed, vertices=verts, n_per_segment=n_per_segment
        )

    def with_nodes(self, n_nodes: int) -> "Contour":
        if self.kind == "circle":
            return Contour.circle(self.center.x, self.center.y, self.radius, n_nodes)
        return Contour.polyline([p.as_tuple() for p in self.vertices], n_nodes)

    def resolution(self) -> int:
        return self.n_nodes if self.kind == "circle" else self.n_per_segment

    def check_inside(self, domain: DomainSpec) -> None:
        if self.kind == "circle":
            c, r = self.center, self.radius
            ok = (
                domain.contains(c.x - r, c.y)
                and domain.contains(c.x + r, c.y)
                and domain.contains(c.x, c.y - r)
                and domain.contains(c.x, c.y + r)
            )
            if not ok:
                raise DomainError("circle contour exits the domain rectangle")
        else:
            for p in self.vertices:
                if not domain.contains(p.x, p.y):
                    raise DomainError(f"polyline vertex ({p.x}, {p.y}) outside the domain")


def line_integral_dz(g: ComplexField, gamma: Contour) -> complex:
    """Integral of g dz along the contour.

    Circles use the composite trapezoid rule on the angle (geometric
    convergence for smooth periodic integrands); polylines use per-segment
    composite 8-point Gauss-Legendre.
    """
    gamma.check_inside(g.domain)
    if gamma.kind == "circle":
        n = gamma.n_nodes
        t = 2.0 * np.pi * np.arange(n) / n
        zx = gamma.center.x + gamma.radius * np.cos(t)
        zy = gamma.center.y + gamma.radius * np.sin(t)
        dz = 1j * gamma.radius * np.exp(1j * t)
        vals = g(zx, zy) * dz
        return complex(2.0 * np.pi / n * np.sum(vals))
    total = 0.0 + 0.0j
    for p, q in zip(gamma.vertices[:-1], gamma.vertices[1:]):
        dzx, dzy = q.x - p.x, q.y - p.y

        def integrand(s, p=p, dzx=dzx, dzy=dzy):
            return g(p.x + s * dzx, p.y + s * dzy)

        val = _composite_gl(integrand, 0.0, 1.0, gamma.n_per_segment)
        total += complex(val) * complex(dzx, dzy)
    return total


def integrate_1form(p_field: ScalarField, q_field: ScalarField, gamma: Contour) -> float:
    """Integral of P dx + Q dy along a polyline contour (adaptive per segment)."""
    if gamma.kind != "polyline":
        raise ContourError("integrate_1form expects a polyline contour")
    total = 0.0
    for p, q in zip(gamma.vertices[:-1], gamma.vertices[1:]):
        dzx, dzy = q.x - p.x, q.y - p.y

        def integrand(s, p=p, dzx=dzx, dzy=dzy):
            return p_field(p.x + s * dzx, p.y + s * dzy) * dzx + q_field(
                p.x + s * dzx, p.y + s * dzy
            ) * dzy

        total += float(adaptive_segment_integral(integrand, 0.0, 1.0))
    return total


# ---------------------------------------------------------------------------
# Compatibility and the antiderivative operators
# ---------------------------------------------------------------------------


def compatibility_check(Phi: ComplexField, which: str) -> float:
    """Max sampled |d_y Phi1 -/+ d_x Phi2| for which = casirot / casirot_plus."""
    if which == "casirot":
        resid = Phi.re.dy() - Phi.im.dx()
    elif which == "casirot_plus":
        resid = Phi.re.dy() + Phi.im.dx()
    else:
        raise ParameterError(f"unknown compatibility condition {which!r}")
    return max_abs(resid)


def _require_compatible(Phi: ComplexField, which: str, tol: float) -> None:
    residual = compatibility_check(Phi, which)
    if not residual <= tol:
        raise CompatibilityError(which, residual, tol)


def _l_path_value(Phi: ComplexField, cfg: AntiderivativeConfig, sign: float):
    """2*(int_{x0}^{x} Phi1(s, y) ds + sign * int_{y0}^{y} Phi2(x0, s) ds) + c."""
    phi1, phi2 = Phi.re, Phi.im
    x0, y0 = cfg.base.x, cfg.base.y
    c = cfg.constant_c

    def value(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        x, y = np.broadcast_arrays(x, y)
        i1 = adaptive_segment_integral(
            lambda s: phi1._values(s, np.broadcast_to(y, s.shape)), np.full_like(x, x0), x
        )
        i2 = adaptive_segment_integral(lambda s: phi2._values(np.full_like(s, x0), s), y0, y)
        return 2.0 * (i1 + sign * i2) + c

    return value


def _antiderivative(
    Phi: ComplexField, cfg: AntiderivativeConfig, sign: float, name: str
) -> ExprField:
    """Expression field whose values come from L-path quadrature and whose
    partials are the exact d_x phi = 2 Phi1, d_y phi = sign * 2 Phi2."""
    leaf = ex.Given(
        _l_path_value(Phi, cfg, sign),
        lambda: (2.0 * Phi.re).to_expr(),
        lambda: (2.0 * sign * Phi.im).to_expr(),
        f"{name}[Phi]",
    )
    return ExprField(Phi.domain, leaf)


def op_Abar(Phi: ComplexField, cfg: AntiderivativeConfig) -> ScalarField:
    """Reconstruct the real field phi with d_zbar(phi) = Phi, up to the constant c.

    Requires d_y Phi1 - d_x Phi2 = 0 within cfg.compat_tol.  The returned
    field carries the analytically exact partials d_x phi = 2 Phi1 and
    d_y phi = 2 Phi2, so downstream derivatives do not re-enter quadrature.
    """
    _require_compatible(Phi, "casirot", cfg.compat_tol)
    return _antiderivative(Phi, cfg, +1.0, "op_Abar")


def op_A(Phi: ComplexField, cfg: AntiderivativeConfig) -> ScalarField:
    """Reconstruct the real field phi with d_z(phi) = Phi, up to the constant c.

    Requires d_y Phi1 + d_x Phi2 = 0 within cfg.compat_tol.  Exact partials:
    d_x phi = 2 Phi1, d_y phi = -2 Phi2.
    """
    _require_compatible(Phi, "casirot_plus", cfg.compat_tol)
    return _antiderivative(Phi, cfg, -1.0, "op_A")


def antiderivative_along(
    Phi: ComplexField, gamma: Contour, cfg: AntiderivativeConfig, which: str = "casirot"
) -> float:
    """Antiderivative value at the end of an explicit polyline path from the base.

    Used to confirm path independence of the L-path reconstruction.  The path
    must start at cfg.base; ``which`` picks the 1-form (+Phi2 dy for the
    d_zbar antiderivative, -Phi2 dy for the d_z one).
    """
    if gamma.kind != "polyline":
        raise ContourError("explicit antiderivative paths must be polylines")
    start = gamma.vertices[0]
    if abs(start.x - cfg.base.x) > 1e-12 or abs(start.y - cfg.base.y) > 1e-12:
        raise ContourError("path must start at the configured base point")
    _require_compatible(Phi, which, cfg.compat_tol)
    sign = 1.0 if which == "casirot" else -1.0
    return 2.0 * integrate_1form(Phi.re, sign * Phi.im, gamma) + cfg.constant_c

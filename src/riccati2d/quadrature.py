"""Contours, line integrals and the antiderivative operators.

The antiderivative operators integrate along the canonical L-path (vertical
segment at the base abscissa, then horizontal at the target ordinate), which
is exactly the two-integral reconstruction formula the rest of the package is
built around.  Mesh samples, whose abscissae and ordinates vary along
different axes (as ``Field.sample`` passes them), integrate each cell
between neighbouring abscissae and each cell of the base column once and
add the cells up with cumulative sums from the base; any other points
(contour nodes, dense arrays, single points) get one adaptive L-path each.
Segment quadrature is the embedded Gauss-Kronrod pair G7/K15 (QUADPACK's
``qk15``), whose 15 nodes include the 7 Gauss nodes, so each node is
evaluated once per level.  On one panel a point settles when K15 and G7
agree; after that the panels double and a point settles when K15 agrees with
K15 on half as many panels.  Each point keeps the K15 value of the first level
at which it settled, so its value does not depend on the other points of its
batch.  A non-finite value, or a point still unsettled at MAX_PANELS panels,
raises QuadratureError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expressions as ex
from .errors import (
    CompatibilityError,
    ContourError,
    DomainError,
    ParameterError,
    QuadratureError,
)
from .field import DomainSpec, Field, Point, max_abs

# QUADPACK qk15 on [-1, 1], each panel's 7 Gauss nodes first: _G7_WEIGHTS on
# _K15_NODES[:7] is 7-point Gauss-Legendre (exact to degree 13), and
# _K15_WEIGHTS on all 15 nodes is its Kronrod extension (exact to degree 23)
_K15_NODES = np.array([
    -0.949107912342758524526189684047851, -0.741531185599394439863864773280788,
    -0.405845151377397166906606412076961, 0.0,
    0.405845151377397166906606412076961, 0.741531185599394439863864773280788,
    0.949107912342758524526189684047851,
    -0.991455371120812639206854697526329, -0.864864423359769072789712788640926,
    -0.586087235467691130294144845693013, -0.207784955007898467600689403773245,
    0.207784955007898467600689403773245, 0.586087235467691130294144845693013,
    0.864864423359769072789712788640926, 0.991455371120812639206854697526329,
])
_K15_WEIGHTS = np.array([
    0.063092092629978553290700663189204, 0.140653259715525918745189590510238,
    0.190350578064785409913256402421014, 0.209482141084727828012999174891714,
    0.190350578064785409913256402421014, 0.140653259715525918745189590510238,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970, 0.104790010322250183839876322541518,
    0.169004726639267902826583426598550, 0.204432940075298892414161999234649,
    0.204432940075298892414161999234649, 0.169004726639267902826583426598550,
    0.104790010322250183839876322541518, 0.022935322010529224963732008058970,
])
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

SEGMENT_REL_TOL = 1e-10
MAX_PANELS = 2**14
_MAX_BATCH = 1_000_000  # integrand points per evaluation chunk; bounds memory only


@dataclass(frozen=True)
class AntiderivativeConfig:
    base: Point
    constant_c: float = 0.0
    compat_tol: float = 1e-8

    def __post_init__(self):
        if self.compat_tol <= 0:
            raise ParameterError("compat_tol must be positive")


def _weighted_nodes(fn, a, b, t, *weights):
    """Yields fn at the nodes a + t * (b - a), t in [0, 1], in chunks of at most
    ``_MAX_BATCH`` points, each with the chunk's part of every weight vector
    shaped to multiply it.

    ``a`` and ``b`` broadcast against each other; ``fn`` receives an array of
    shape (nodes,) + broadcast-shape and must broadcast accordingly.
    """
    shape = np.broadcast(a, b).shape
    expand = (slice(None),) + (None,) * len(shape)
    step = max(1, _MAX_BATCH // max(1, math.prod(shape)))
    for lo in range(0, len(t), step):
        s = a[None, ...] + t[lo : lo + step][expand] * (b - a)[None, ...]
        vals = np.broadcast_to(np.asarray(fn(s)), s.shape)
        yield (vals, *(w[lo : lo + step][expand] for w in weights))


def _fold(terms, total):
    """Sum of ``terms`` over the node axis, added node by node onto ``total``.

    numpy adds a batch's node axis row by row but sums a single point's nodes
    pairwise; a cumulative sum adds those in node order too.
    """
    if total is not None:
        terms[0] += total
    if terms[0].size == 1:
        return np.cumsum(terms, axis=0)[-1]
    return np.sum(terms, axis=0)


def _gauss_kronrod(fn, a, b, panels: int):
    """Composite K15 for int_a^b fn(s) ds on ``panels`` equal panels, with array
    bounds as in ``_weighted_nodes``, and on one panel also G7 from the same
    node values (else None).

    Every sum adds its nodes in order across the chunks, so neither the
    chunking nor the other points of the batch change a point's sums.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    t = ((np.arange(panels)[:, None] + (_K15_NODES[None, :] + 1.0) / 2.0) / panels).reshape(-1)
    w = np.tile(_K15_WEIGHTS / (2.0 * panels), panels)
    w_gauss = _G7_WEIGHTS / 2.0 if panels == 1 else np.empty(0)
    k = g = None
    for vals, wk, wg in _weighted_nodes(fn, a, b, t, w, w_gauss):
        # the Gauss nodes lead each panel, so G7 reads the first rows in place;
        # its terms are freed before the K15 terms are built
        if len(wg):
            g = _fold(wg * vals[: len(wg)], g)
        k = _fold(wk * vals, k)
    return (b - a) * k, None if g is None else (b - a) * g


def _require_finite(*estimates, panels: int) -> None:
    """Refining cannot make a non-finite estimate finite, so it fails at once
    (and before any difference of estimates is taken)."""
    if not all(np.all(np.isfinite(e)) for e in estimates):
        raise QuadratureError(f"segment quadrature gave a non-finite value at {panels} panels")


def adaptive_segment_integral(
    fn, a, b, rel_tol: float = SEGMENT_REL_TOL, max_panels: int = MAX_PANELS
):
    """Integrate with G7/K15 panels, doubling them until every point settles.

    A point settles when |K15 - G7| <= rel_tol * (|K15| + 1) on one panel, or
    later when K15 on p panels and on p/2 panels agree to the same bound, and
    keeps the K15 value of that level.  A non-finite estimate of a point not
    yet settled, or a point still unsettled at ``max_panels`` panels, raises
    QuadratureError; no unconverged value is ever returned.
    """
    k, g = _gauss_kronrod(fn, a, b, 1)
    _require_finite(k, g, panels=1)
    shape = np.shape(k)
    value = np.ravel(k)
    change = np.ravel(np.abs(k - g))
    open_ = np.flatnonzero(change > rel_tol * (np.abs(value) + 1.0))
    change = change[open_]
    panels = 1
    while open_.size:
        if panels >= max_panels:
            raise QuadratureError(
                f"segment quadrature did not converge within {panels} panels: largest "
                f"change {float(np.max(change)):.3e} at relative tolerance {rel_tol:g}"
            )
        panels *= 2
        k = np.ravel(_gauss_kronrod(fn, a, b, panels)[0])[open_]
        _require_finite(k, panels=panels)
        change = np.abs(k - value[open_])
        value[open_] = k
        unsettled = change > rel_tol * (np.abs(k) + 1.0)
        open_, change = open_[unsettled], change[unsettled]
    return value.reshape(shape)


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


def line_integral_dz(g: Field, gamma: Contour) -> complex:
    """Integral of g dz along the contour.

    Circles use the composite trapezoid rule on the angle (geometric
    convergence for smooth periodic integrands); polylines use composite K15
    on ``n_per_segment`` equal panels per segment.
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

        val = _gauss_kronrod(integrand, 0.0, 1.0, gamma.n_per_segment)[0]
        total += complex(val) * complex(dzx, dzy)
    return total


def integrate_1form(p_field: Field, q_field: Field, gamma: Contour) -> float:
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


def compatibility_check(Phi: Field, which: str) -> float:
    """Max sampled |d_y Phi1 -/+ d_x Phi2| for which = casirot / casirot_plus."""
    if which == "casirot":
        resid = Phi.re.dy() - Phi.im.dx()
    elif which == "casirot_plus":
        resid = Phi.re.dy() + Phi.im.dx()
    else:
        raise ParameterError(f"unknown compatibility condition {which!r}")
    return max_abs(resid)


def _require_compatible(Phi: Field, which: str, tol: float) -> None:
    residual = compatibility_check(Phi, which)
    if not residual <= tol:
        raise CompatibilityError(which, residual, tol)


def _tensor_grid(x: np.ndarray, y: np.ndarray) -> bool:
    """True for more than one point where x and y vary along different axes:
    a row of abscissae and a column of ordinates that broadcast to a mesh."""
    nd = max(x.ndim, y.ndim)
    x_shape = (1,) * (nd - x.ndim) + x.shape
    y_shape = (1,) * (nd - y.ndim) + y.shape
    return x.size * y.size > 1 and all(p == 1 or q == 1 for p, q in zip(x_shape, y_shape))


def _from_base(fn, a, b, base: int) -> np.ndarray:
    """Integrals from knot ``base`` to every knot along the last axis, where
    cell i = [a[..., i], b[..., i]] joins knots i and i + 1: one adaptive call
    integrates every cell, and cumulative sums add them up outward from the base."""
    if not np.size(a):  # a single knot
        return np.zeros(np.shape(a)[:-1] + (1,))
    cells = adaptive_segment_integral(fn, a, b)
    right = np.cumsum(cells[..., base:], axis=-1)
    left = -np.cumsum(cells[..., :base][..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([left, np.zeros(cells.shape[:-1] + (1,)), right], axis=-1)


def _l_path_value(Phi: Field, cfg: AntiderivativeConfig, sign: float):
    """2*(int_{x0}^{x} Phi1(s, y) ds + sign * int_{y0}^{y} Phi2(x0, s) ds) + c.

    On a tensor grid each cell between consecutive distinct abscissae (the
    base inserted) is integrated once for all rows together, and likewise
    each cell of the base column; cumulative sums from the base give every
    point.  Any other batch integrates a whole L-path per point.  The values
    at the latest points are kept, so the trees that hold the leaf, sampled
    one after another on one mesh, share one quadrature.
    """
    phi1, phi2 = Phi.re, Phi.im
    x0, y0 = cfg.base.x, cfg.base.y
    c = cfg.constant_c
    latest = [None]  # (points, values)

    def on_mesh(x, y):
        xk, xi = np.unique(np.append(x, x0), return_inverse=True)
        yk, yi = np.unique(np.append(y, y0), return_inverse=True)
        rows = yk[:, None]
        cells = (len(yk), len(xk) - 1)
        # a and b repeat along the rows, so the chunking sees every evaluation;
        # the integrand reads one row of nodes, so it gets a tensor grid too
        i1 = _from_base(
            lambda s: phi1._values(s[:, :1], rows),
            np.broadcast_to(xk[:-1], cells),
            np.broadcast_to(xk[1:], cells),
            xi[-1],
        )
        i2 = _from_base(lambda s: phi2._values(np.asarray(x0), s), yk[:-1], yk[1:], yi[-1])
        xi = xi[:-1].reshape(x.shape)
        yi = yi[:-1].reshape(y.shape)
        return 2.0 * (i1[yi, xi] + sign * i2[yi]) + c

    def per_point(x, y):
        x, y = np.broadcast_arrays(x, y)
        i1 = adaptive_segment_integral(
            lambda s: phi1._values(s, np.broadcast_to(y, s.shape)), np.full_like(x, x0), x
        )
        i2 = adaptive_segment_integral(lambda s: phi2._values(np.full_like(s, x0), s), y0, y)
        return 2.0 * (i1 + sign * i2) + c

    def value(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        points = (x.shape, y.shape, x.tobytes(), y.tobytes())
        hit = latest[0]
        if hit is not None and hit[0] == points:
            return hit[1]
        values = np.asarray((on_mesh if _tensor_grid(x, y) else per_point)(x, y))
        values.setflags(write=False)
        latest[0] = (points, values)
        return values

    return value


def _antiderivative(Phi: Field, cfg: AntiderivativeConfig, sign: float, name: str) -> Field:
    """Expression field whose values come from L-path quadrature and whose
    partials are the exact d_x phi = 2 Phi1, d_y phi = sign * 2 Phi2."""
    leaf = ex.Given(
        _l_path_value(Phi, cfg, sign),
        lambda: (2.0 * Phi.re).expr,
        lambda: (2.0 * sign * Phi.im).expr,
        f"{name}[Phi]",
    )
    return Field(Phi.domain, leaf)


def op_Abar(Phi: Field, cfg: AntiderivativeConfig) -> Field:
    """Reconstruct the real field phi with d_zbar(phi) = Phi, up to the constant c.

    Requires d_y Phi1 - d_x Phi2 = 0 within cfg.compat_tol.  The returned
    field carries the analytically exact partials d_x phi = 2 Phi1 and
    d_y phi = 2 Phi2, so downstream derivatives do not re-enter quadrature.
    """
    _require_compatible(Phi, "casirot", cfg.compat_tol)
    return _antiderivative(Phi, cfg, +1.0, "op_Abar")


def op_A(Phi: Field, cfg: AntiderivativeConfig) -> Field:
    """Reconstruct the real field phi with d_z(phi) = Phi, up to the constant c.

    Requires d_y Phi1 + d_x Phi2 = 0 within cfg.compat_tol.  Exact partials:
    d_x phi = 2 Phi1, d_y phi = -2 Phi2.
    """
    _require_compatible(Phi, "casirot_plus", cfg.compat_tol)
    return _antiderivative(Phi, cfg, -1.0, "op_A")


def antiderivative_along(
    Phi: Field, gamma: Contour, cfg: AntiderivativeConfig, which: str = "casirot"
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

"""Contours, line integrals and the antiderivative operators.

The antiderivative operators integrate along the canonical L-path (vertical
segment at the base abscissa, then horizontal at the target ordinate), which
is exactly the two-integral reconstruction formula the rest of the package is
built around.  Mesh samples, whose abscissae and ordinates vary along
different axes (as ``Field.sample`` passes them), put one K15 panel on each
cell between neighbouring abscissae (the base inserted) and evaluate the
integrand once at the nodes of all panels, for all rows together; the cells
of the base column likewise.  Cumulative sums of the cell integrals from the
base give every point.  An antiderivative inside the integrand is asked at
those very node arrays and integrates on the same panels: the integral from a
cell's start to each of its nodes is a fixed 15x15 spectral integration
matrix applied to the cell's node values, so each nesting level adds one node
array, not 15 nodes around every node.  A cell that does not settle on its
one panel is integrated adaptively, and so are the integrals to its nodes.
Any other points (contour nodes, dense arrays, single points) get one
adaptive L-path each.

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
from contextvars import ContextVar
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

# the nodes of one K15 panel of [a, b] sit at a + _K15_T * (b - a)
_K15_T = (_K15_NODES + 1.0) / 2.0


def _k15_partials() -> np.ndarray:
    """S with S[j, k] = (1/2) int_{-1}^{t_j} l_k(t) dt, l_k the Lagrange basis on
    the K15 nodes t: on a panel [a, b], (b - a) * S @ f integrates the degree-14
    interpolant of the node values f from a to each node.  Row j is K15 on
    [-1, t_j], which is exact for the degree-14 integrand."""
    t = _K15_NODES
    half = (t + 1.0) / 2.0
    tau = -1.0 + half[:, None] * (t + 1.0)  # (j, m): the K15 nodes on [-1, t_j]
    off = ~np.eye(15, dtype=bool)  # (k, i): i != k
    basis = np.where(off, tau[:, :, None, None] - t, 1.0).prod(axis=-1)  # (j, m, k)
    basis = basis / np.where(off, t[:, None] - t, 1.0).prod(axis=-1)
    return np.einsum("m,jmk->jk", _K15_WEIGHTS, basis) * (half[:, None] / 2.0)


_K15_PARTIALS = _k15_partials()

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
    t = ((np.arange(panels)[:, None] + _K15_T[None, :]) / panels).reshape(-1)
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


def adaptive_segment_integral(fn, a, b):
    """Integrate with G7/K15 panels, doubling them until every point settles.

    A point settles when |K15 - G7| <= SEGMENT_REL_TOL * (|K15| + 1) on one
    panel, or later when K15 on p panels and on p/2 panels agree to the same
    bound, and keeps the K15 value of that level.  A non-finite estimate of a
    point not yet settled, or a point still unsettled at MAX_PANELS panels, raises
    QuadratureError; no unconverged value is ever returned.
    """
    k, g = _gauss_kronrod(fn, a, b, 1)
    _require_finite(k, g, panels=1)
    shape = np.shape(k)
    value = np.ravel(k)
    change = np.ravel(np.abs(k - g))
    open_ = np.flatnonzero(change > SEGMENT_REL_TOL * (np.abs(value) + 1.0))
    change = change[open_]
    panels = 1
    while open_.size:
        if panels >= MAX_PANELS:
            raise QuadratureError(
                f"segment quadrature did not converge within {panels} panels: largest "
                f"change {float(np.max(change)):.3e} at relative tolerance {SEGMENT_REL_TOL:g}"
            )
        panels *= 2
        k = np.ravel(_gauss_kronrod(fn, a, b, panels)[0])[open_]
        _require_finite(k, panels=panels)
        change = np.abs(k - value[open_])
        value[open_] = k
        unsettled = change > SEGMENT_REL_TOL * (np.abs(k) + 1.0)
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


def _integrand(phi: Field, x, y) -> np.ndarray:
    """phi at (x, y): every point that an antiderivative integrates is sampled here."""
    return phi._values(x, y)


class _Panels:
    """One K15 panel on each cell between consecutive ``knots``, and the nodes
    of all panels as one array, node k of cell c at [k, c]: abscissae of shape
    (15, 1, cells) that broadcast against a column of ordinates (axis 0), or
    a column of ordinates of shape (15 * cells, 1) (axis 1)."""

    def __init__(self, knots: np.ndarray, axis: int):
        nodes = knots[:-1] + _K15_T[:, None] * (knots[1:] - knots[:-1])
        self.knots = knots
        self.nodes = nodes[:, None, :] if axis == 0 else nodes.reshape(-1, 1)


# the panels (x, y) whose node arrays are being integrated; a leaf asked at one of
# these very arrays answers from the same nodes instead of placing its own
_SHARED: ContextVar[tuple] = ContextVar("shared_panels", default=(None, None))


def _from_knot(cells: np.ndarray, m: int) -> np.ndarray:
    """Integrals from knot m to every knot, per row, from the integrals over the
    cells between them."""
    right = np.cumsum(cells[:, m:], axis=-1)
    left = -np.cumsum(cells[:, :m][:, ::-1], axis=-1)[:, ::-1]
    return np.concatenate([left, np.zeros((len(cells), 1)), right], axis=-1)


def _along(phi: Field, axis: int, panels: _Panels, across, start: float, at_nodes: bool):
    """Integrals of phi along ``axis`` from ``start``, one row per coordinate of
    ``across`` (a column for axis 0, a row for axis 1): to every knot of
    ``panels``, or with ``at_nodes`` to every node.

    phi is evaluated once at the nodes of all panels, chunked by rows.  Each
    cell takes K15 where K15 and G7 agree on its one panel, as
    ``adaptive_segment_integral`` would, and goes to it otherwise.  A node's
    integral from its cell's start applies _K15_PARTIALS to the cell's node
    values; in a cell that did not settle it is integrated adaptively.  A
    ``start`` off the knots adds one segment per row from the nearest knot.
    """
    knots = panels.knots
    cells, flat = len(knots) - 1, np.reshape(across, -1)
    if not cells:  # a single knot
        return np.zeros((flat.size, 1))
    h = knots[1:] - knots[:-1]
    nodes = panels.nodes.reshape(15, cells)
    m = int(np.argmin(np.abs(knots - start)))

    def at(s, o):
        return _integrand(phi, s, o) if axis == 0 else _integrand(phi, o, s)

    def adaptive(o, a, b):
        return adaptive_segment_integral(lambda s: at(s, np.broadcast_to(o, s.shape)), a, b)

    shared = list(_SHARED.get())
    shared[axis] = panels
    step = max(1, _MAX_BATCH // nodes.size)
    out = []
    for lo in range(0, flat.size, step):
        o = flat[lo : lo + step]
        if o.size == flat.size:
            chunk = across  # whole, so a leaf inside phi can recognise it
        else:
            chunk = o[:, None] if axis == 0 else o[None, :]
        token = _SHARED.set(tuple(shared))
        try:
            v = at(panels.nodes, chunk)
        finally:
            _SHARED.reset(token)
        if axis:
            v = v.reshape(15, cells, -1).transpose(0, 2, 1)
        # (node, row, cell), summed over the nodes as _gauss_kronrod sums one panel
        k = h * _fold(_K15_WEIGHTS[:, None, None] / 2.0 * v, None)
        g = h * _fold(_G7_WEIGHTS[:, None, None] / 2.0 * v[:7], None)
        _require_finite(k, g, panels=1)
        r, c = np.nonzero(np.abs(k - g) > SEGMENT_REL_TOL * (np.abs(k) + 1.0))
        if r.size:
            k[r, c] = adaptive(o[r], knots[c], knots[c + 1])
        values = _from_knot(k, m)
        if at_nodes:
            part = np.einsum("jk,krc->rjc", _K15_PARTIALS, v) * h
            if r.size:
                part[r, :, c] = adaptive(o[r, None], knots[c, None], nodes[:, c].T)
            values = (values[:, None, :-1] + part).reshape(o.size, -1)
        if knots[m] != start:
            from_start = adaptive(o, np.full(o.shape, start), np.full(o.shape, knots[m]))
            values = values + from_start[:, None]
        out.append(values)
    return np.concatenate(out)


def _l_path_value(Phi: Field, cfg: AntiderivativeConfig, sign: float):
    """2*(int_{x0}^{x} Phi1(s, y) ds + sign * int_{y0}^{y} Phi2(x0, s) ds) + c.

    On a tensor grid the abscissae (the base inserted) are the knots of one
    K15 panel per cell, integrated for all rows together, and likewise the
    ordinates for the base column; cumulative sums from the base give every
    point.  Asked at the very node array of panels being integrated, the leaf
    integrates on those same panels, so each nesting level adds one node array.
    Any other batch integrates a whole L-path per point.  The leaf keeps its
    latest values for each axis pattern of shared nodes, so the trees that hold
    it, sampled one after another on one mesh, share one quadrature, and so do
    the rows and the base column of the leaves that nest it.
    """
    phi1, phi2 = Phi.re, Phi.im
    x0, y0 = cfg.base.x, cfg.base.y
    c = cfg.constant_c
    latest = {}  # (which axes are shared nodes) -> (points, values)

    def place(v, start, shared, axis):
        """The panels that v's axis is integrated on and where each point of v
        sits among their nodes (shared) or knots (placed here)."""
        if shared is not None:
            return shared, np.arange(v.size).reshape(v.shape)
        knots, where = np.unique(np.append(v, start), return_inverse=True)
        return _Panels(knots, axis), where[:-1].reshape(v.shape)

    def on_mesh(x, y, px, py):
        xp, xi = place(x, x0, px, 0)
        yp, yi = place(y, y0, py, 1)
        rows = y if py is not None else yp.knots[:, None]
        i1 = _along(phi1, 0, xp, rows, x0, px is not None)
        i2 = _along(phi2, 1, yp, np.full((1, 1), x0), y0, py is not None)[0]
        return 2.0 * (i1[yi, xi] + sign * i2[yi]) + c

    def per_point(x, y):
        x, y = np.broadcast_arrays(x, y)
        i1 = adaptive_segment_integral(
            lambda s: _integrand(phi1, s, np.broadcast_to(y, s.shape)), np.full_like(x, x0), x
        )
        i2 = adaptive_segment_integral(lambda s: _integrand(phi2, np.full_like(s, x0), s), y0, y)
        return 2.0 * (i1 + sign * i2) + c

    def value(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        shared = zip((x, y), _SHARED.get())
        px, py = (p if p is not None and v is p.nodes else None for v, p in shared)
        pattern = (px is not None, py is not None)
        points = (x.shape, y.shape, x.tobytes(), y.tobytes())
        hit = latest.get(pattern)
        if hit is not None and hit[0] == points:
            return hit[1]
        # shared nodes always come as a row of abscissae and a column of ordinates
        values = np.asarray(on_mesh(x, y, px, py) if _tensor_grid(x, y) else per_point(x, y))
        values.setflags(write=False)
        latest[pattern] = (points, values)
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

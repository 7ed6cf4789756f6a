"""Contours, line integrals and the antiderivative operators.

The antiderivative operators integrate along the canonical L-path (vertical
segment at the base abscissa, then horizontal at the target ordinate), which
is exactly the two-integral reconstruction formula the rest of the package is
built around.  Every segment integral is one rule, ``_along``: panels are
bisected from [side start, base] and [base, side end] until each is certified
by the Legendre tail of its K15 interpolant, (|c13| + |c14|) * h <=
SEGMENT_REL_TOL * (|K15| + 1), and a target's value is the sum of the panel
integrals from the base plus the partial integral in its own panel, the
antiderivative of the panel's interpolant.  A mesh sample certifies each panel
for all its rows at once; any other batch (contour nodes, dense arrays, single
points) certifies each point's panels for that point alone, on panels and nodes
that the batch shares, so that a point's value does not depend on its batch.
Either way the integrand is asked at a tensor grid of panel nodes, and a leaf
nested in it takes the same path.  A non-finite value, or a point still
uncertified at MAX_PANELS panels, raises QuadratureError.
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
from .field import DomainSpec, Field, Point, max_abs, require_at_most

# Gauss-Kronrod K15 on [-1, 1] (QUADPACK's qk15, exact to degree 22), with the
# nodes of its embedded 7-point Gauss rule first
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

# the nodes of one K15 panel of [a, b] sit at a + _K15_T * (b - a)
_K15_T = (_K15_NODES + 1.0) / 2.0


def _weights(points: np.ndarray) -> np.ndarray:
    """1 / prod_{i != j} (x_j - x_i): the barycentric weights of ``points``, which are
    also the leading coefficients of their Lagrange basis."""
    off = ~np.eye(len(points), dtype=bool)
    return 1.0 / np.where(off, points[:, None] - points, 1.0).prod(axis=-1)


def _partials() -> np.ndarray:
    """S with S[j, k] = (1/2) int_{-1}^{x_j} l_k(t) dt at the points x = (-1, t),
    l_k the Lagrange basis on the K15 nodes t: on a panel [a, b], (b - a) * S @ f
    integrates the degree-14 interpolant of the node values f from a to -1 and
    to each node.  Row j is K15 on [-1, x_j], which is exact for that integrand."""
    t = _K15_NODES
    half = (t + 1.0) / 2.0
    tau = -1.0 + half[:, None] * (t + 1.0)  # (j, m): the K15 nodes on [-1, t_j]
    off = ~np.eye(15, dtype=bool)  # (k, i): i != k
    basis = np.where(off, tau[:, :, None, None] - t, 1.0).prod(axis=-1) * _weights(t)
    partials = np.einsum("m,jmk->jk", _K15_WEIGHTS, basis) * (half[:, None] / 2.0)
    return np.concatenate([np.zeros((1, 15)), partials])


def _chebyshev(tau: np.ndarray) -> np.ndarray:
    """T_0 .. T_15 at each tau in [-1, 1], one row per tau."""
    return np.cos(np.arccos(tau)[:, None] * np.arange(16.0))


def _clenshaw(tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(tau), elementwise, by Clenshaw's recurrence."""
    c0, c1, tau2 = c[-2], c[-1], 2.0 * tau
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * tau2
    return c0 + c1 * tau


# a panel's partial integral, the degree-15 antiderivative of its interpolant,
# is known at -1 (zero) and at the 15 nodes; a row of node values times this
# (15, 16) matrix gives its Chebyshev coefficients, so its value anywhere
_PARTIAL_COEFFICIENTS = np.linalg.solve(_chebyshev(np.append(-1.0, _K15_NODES)), _partials()).T
# K15 over a panel's width, and the Legendre coefficients 13 and 14 of the
# interpolant: its monomial coefficients of t^13 (sum_j w_j t_j f_j, as the nodes
# sum to 0) and t^14 (sum_j w_j f_j) over the leading coefficients of P_13, P_14
_PANEL_SUMS = np.stack([_K15_WEIGHTS / 2.0, _K15_NODES, np.ones(15)], axis=1)
_PANEL_SUMS[:, 1:] *= _weights(_K15_NODES)[:, None]
_PANEL_SUMS[:, 1:] /= [math.comb(26, 13) / 2.0**13, math.comb(28, 14) / 2.0**14]

SEGMENT_REL_TOL = 1e-10
COMPAT_TOL = 1e-8  # the max sampled compatibility residual that op_A and op_Abar accept
MAX_PANELS = 2**14
_MAX_BATCH = 1_000_000  # integrand points per evaluation chunk; bounds memory only
# an antiderivative keeps its values at this many latest point sets: nested one
# level down, a leaf is asked at the mesh, at the row nodes and at the base-column
# nodes of the leaf above it, and again by every level above that
_KEPT = 3


@dataclass(frozen=True)
class AntiderivativeConfig:
    base: Point


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

    def integrand_points(self) -> int:
        """Integrand points per circle or polyline segment: a polyline panel has K15's nodes."""
        return self.n_nodes if self.kind == "circle" else self.n_per_segment * len(_K15_NODES)

    def check_inside(self, d: DomainSpec) -> None:
        """DomainError unless the contour lies in the rectangle: a circle's four
        extreme points and a polyline's vertices."""
        if self.kind == "circle":
            (cx, cy), r = self.center.as_tuple(), self.radius
            points = [(cx - r, cy), (cx + r, cy), (cx, cy - r), (cx, cy + r)]
        else:
            points = [p.as_tuple() for p in self.vertices]
        for x, y in points:
            if not d.contains(x, y):
                rect = f"[{d.x_min:g}, {d.x_max:g}] x [{d.y_min:g}, {d.y_max:g}]"
                raise DomainError(f"{self.kind} point ({x:g}, {y:g}) lies outside {rect}")


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
    n = gamma.n_per_segment
    t = ((np.arange(n)[:, None] + _K15_T) / n).reshape(-1)
    w = np.tile(_K15_WEIGHTS / (2.0 * n), n)
    total = 0.0 + 0.0j
    for p, q in zip(gamma.vertices[:-1], gamma.vertices[1:]):
        dzx, dzy = q.x - p.x, q.y - p.y
        vals = np.broadcast_to(g(p.x + t * dzx, p.y + t * dzy), t.shape)
        total += complex(np.cumsum(w * vals)[-1]) * complex(dzx, dzy)  # in node order
    return total


# ---------------------------------------------------------------------------
# Compatibility and the antiderivative operators
# ---------------------------------------------------------------------------


def compatibility_check(Phi: Field) -> float:
    """Max sampled |d_y Phi1 - d_x Phi2|: zero where Phi = d_zbar of a real field."""
    return max_abs(Phi.re.dy() - Phi.im.dx())


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


def _panel_values(phi: Field, axis: int, a: np.ndarray, b: np.ndarray, across: np.ndarray):
    """phi at the K15 nodes of the panels [a, b] on each line of ``across``, shaped
    (lines, panels, 15): a tensor grid, in chunks of at most _MAX_BATCH points."""
    nodes = (a[:, None] + _K15_T * (b - a)[:, None]).reshape(1, -1)
    step = max(1, _MAX_BATCH // nodes.size)
    chunks = (across[line : line + step, None] for line in range(0, across.size, step))
    v = [_integrand(phi, nodes, o) if axis == 0 else _integrand(phi, o, nodes) for o in chunks]
    return (v[0] if len(v) == 1 else np.concatenate(v)).reshape(across.size, a.size, 15)


def _certify(sums: np.ndarray, h: np.ndarray):
    """Each panel's K15 integral, from its node sums [K15 / h, c13, c14] along the first axis,
    and whether its partial integrals hold: (|c13| + |c14|) * h <= SEGMENT_REL_TOL * (|K15| + 1)."""
    k = sums[0] * h
    tail = (np.abs(sums[1]) + np.abs(sums[2])) * h
    return k, tail <= SEGMENT_REL_TOL * (np.abs(k) + 1.0)


def _along(phi: Field, axis: int, side: tuple, start: float, targets: np.ndarray, across):
    """Integrals of phi along ``axis`` from ``start``, one row per coordinate of
    ``across`` (ordinates for axis 0, abscissae for axis 1).  ``targets`` is a
    1-D array of sorted distinct targets that every row shares, giving an array
    of shape (rows, targets), or a column of one target per row.

    A row takes, from the root panels down, the first certified panel that
    meets the span of its targets and start; shared targets certify a panel
    for every row at once, so all rows take one partition.  Each round
    evaluates phi once, at the nodes of the panels that some row needs, on each
    distinct line that needs them.  A target's value is the sum of its row's
    panels from start, outward, to the edge of its panel, plus the partial
    integral from that edge: by one matrix product per panel for shared
    targets, and for a target of its own through ``np.einsum`` and Clenshaw's
    recurrence, whose bits depend on that row alone, in chunks of rows.  A
    target on a panel's edge is that edge's sum.
    """
    across = np.ravel(across)
    if np.all(targets == start):  # nothing to integrate
        return np.zeros((across.size, targets.shape[-1]))
    each, step = targets.ndim == 2, _MAX_BATCH // (15 * 16)  # 16 panels a row in one chunk
    if each and across.size > step:
        rows = (slice(row, row + step) for row in range(0, across.size, step))
        return np.concatenate([_along(phi, axis, side, start, targets[c], across[c]) for c in rows])
    t = targets if each else targets[None, :]
    if not np.isfinite(t).all():
        raise QuadratureError("segment quadrature got a non-finite target")
    lo, hi = np.minimum(t[:, :1], start), np.maximum(t[:, -1:], start)
    if each:  # each distinct line once
        lines, line_of = np.unique(across, return_inverse=True)
    edges = np.array(sorted({min(lo.min(), side[0]), start, max(hi.max(), side[1])}))
    a, b = edges[:-1], edges[1:]  # the panels of this round
    need = (b > lo) & (a < hi)  # by each row, or by all rows together
    taken, partial = np.zeros(len(need), dtype=int), np.zeros(t.shape)
    done_a, done_k, held = [np.empty(0)], [np.empty((across.size, 0))], []
    while True:
        kept = need.any(axis=0)
        a, b, need = a[kept], b[kept], need[:, kept]
        if not a.size:
            break
        h = b - a
        if each:  # the lines that some row needs
            live = np.zeros(lines.size, dtype=bool)
            live[line_of[need.any(axis=1)]] = True
            v, in_v = _panel_values(phi, axis, a, b, lines[live]), (np.cumsum(live) - 1)[line_of]
        else:
            v, in_v = _panel_values(phi, axis, a, b, across), slice(None)
        if not np.isfinite(v).all():
            bad = (need & ~np.isfinite(v).all(axis=-1)[in_v]).any(axis=1)
            if bad.any():
                n = need[bad.argmax() if each else 0].sum()
                raise QuadratureError(f"segment quadrature gave a non-finite value at {n} panels")
        if each:
            k, ok = _certify(np.einsum("lpj,cj->clp", v, _PANEL_SUMS.T.copy()), h)
            k, ok = k[in_v], ok[in_v] & need
            r, p = (ok & (a < t) & (t < b)).nonzero()  # the panel that holds t off its edges
            tau = 2.0 * ((t[r, 0] - a[p]) / h[p]) - 1.0
            coefficients = np.einsum("kj,rj->kr", _PARTIAL_COEFFICIENTS.T.copy(), v[in_v[r], p])
            partial[r, 0] = _clenshaw(tau, coefficients) * h[p]
            k = np.where(ok & ((b <= t) | (t < start)), k, 0.0)  # its whole panels
        else:
            k, ok = _certify((v @ _PANEL_SUMS).transpose(2, 0, 1), h)
            ok = ok.all(axis=0, keepdims=True) & need
            first, last = np.searchsorted(targets, a), np.searchsorted(targets, b)
            at = np.flatnonzero(ok[0] & (last > first))  # certified, with targets in [a, b)
            at_nodes = np.take(v, at, axis=1).transpose(1, 0, 2)  # node values, copied once
            held += zip(a[at], b[at], first[at], last[at], at_nodes)
        del v
        cols = ok.any(axis=0)
        done_a.append(a[cols])
        done_k.append(k[:, cols])
        open_ = need & ~ok
        split = open_.any(axis=0)
        if not split.any():
            break
        taken += ok.sum(axis=1)
        over = taken + 2 * open_.sum(axis=1) > MAX_PANELS
        if over.any():
            n, tol = open_[over.argmax()].sum(), SEGMENT_REL_TOL
            raise QuadratureError(f"segment quadrature did not converge within {MAX_PANELS} "
                                  f"panels: {n} panels not certified at relative tolerance {tol:g}")
        a, b, open_ = a[split], b[split], open_[:, split]
        mid = a + (b - a) / 2.0
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        need = np.hstack([open_, open_]) & (b > lo) & (a < hi)
    lefts = np.concatenate(done_a)
    order = np.argsort(lefts, kind="stable")
    lefts, k = lefts[order], np.concatenate(done_k, axis=1)[:, order]
    m = int(np.searchsorted(lefts, start))
    before, after = -np.cumsum(k[:, :m][:, ::-1], axis=1)[:, ::-1], np.cumsum(k[:, m:], axis=1)
    from_start = np.hstack([before, np.zeros((across.size, 1)), after])  # at each edge
    if each:  # all of a row's whole panels lie on one side of start
        return np.where(t < start, from_start[:, :1], from_start[:, -1:]) + partial
    out = np.empty((across.size, targets.size))
    out[:, -1] = from_start[:, -1]  # the last target may sit on the last edge, in no panel
    for left, right, first, last, at_nodes in held:
        tau = 2.0 * ((targets[first:last] - left) / (right - left)) - 1.0
        block = out[:, first:last]
        np.matmul(at_nodes @ _PARTIAL_COEFFICIENTS, _chebyshev(tau).T * (right - left), out=block)
        block += from_start[:, np.searchsorted(lefts, left), None]
    return out


def _l_path_value(Phi: Field, cfg: AntiderivativeConfig):
    """2*(int_{x0}^{x} Phi1(s, y) ds + int_{y0}^{y} Phi2(x0, s) ds).

    On a tensor grid the rows share the targets (``_along``); a sorted, distinct
    row of abscissae against a sorted, distinct column of ordinates, as
    ``Field.sample`` passes them, takes the rest of the formula in place, and
    any other tensor grid gathers from the integrals at its distinct
    coordinates.  Any other batch takes one row per distinct point.  The leaf
    keeps its values at the latest _KEPT point sets, so the trees that hold it,
    sampled one after another on one mesh, share one quadrature, and so do the
    levels that nest it.
    """
    phi1, phi2, d = Phi.re, Phi.im, Phi.domain
    x0, y0 = cfg.base.x, cfg.base.y
    kept = {}  # points -> values, oldest first

    def on_mesh(x, y):
        xs, ys = np.ravel(x), np.ravel(y)
        row, column = x.shape == (1, xs.size), y.shape == (ys.size, 1)
        in_place = row and column and all(np.all(v[1:] > v[:-1]) for v in (xs, ys))
        if not in_place:  # the integrals at the distinct coordinates, then a gather
            xs, xi = np.unique(x, return_inverse=True)
            ys, yi = np.unique(y, return_inverse=True)
        i1 = _along(phi1, 0, (d.x_min, d.x_max), x0, xs, ys)
        i2 = _along(phi2, 1, (d.y_min, d.y_max), y0, ys, x0)[0]
        if in_place:
            i2 = i2[:, None]
        else:
            yi = yi.reshape(y.shape)
            i1, i2 = i1[yi, xi.reshape(x.shape)], i2[yi]
        i1 += i2
        i1 *= 2.0
        return i1

    def at_points(x, y):
        x, y = np.broadcast_arrays(x, y)
        yx = np.stack([y.ravel(), x.ravel()], axis=1).view(complex).ravel()  # y + ix, exactly
        points, back = np.unique(yx, return_inverse=True)  # a row per point, by y, then x
        i1 = _along(phi1, 0, (d.x_min, d.x_max), x0, points.imag[:, None], points.real)
        i2 = _along(phi2, 1, (d.y_min, d.y_max), y0, points.real[:, None], np.full(points.size, x0))
        return (2.0 * (i1 + i2))[back].reshape(x.shape)

    def value(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        points = (x.shape, y.shape, x.tobytes(), y.tobytes())
        values = kept.pop(points, None)
        if values is None:
            values = np.asarray(on_mesh(x, y) if _tensor_grid(x, y) else at_points(x, y))
            values.setflags(write=False)
        kept[points] = values
        if len(kept) > _KEPT:
            del kept[next(iter(kept))]
        return values

    return value


def _antiderivative(Phi: Field, cfg: AntiderivativeConfig, what: str, name: str) -> Field:
    """op_Abar, its compatibility condition named ``what``: a leaf whose values come
    from L-path quadrature and whose partials are the exact d_x phi = 2 Phi1 and
    d_y phi = 2 Phi2, so downstream derivatives do not re-enter quadrature."""
    if not Phi.domain.contains(cfg.base.x, cfg.base.y):
        raise ParameterError(f"{name}: base point {cfg.base} lies outside the rectangle")
    require_at_most(compatibility_check(Phi), COMPAT_TOL, CompatibilityError, what)
    leaf = ex.Given(
        _l_path_value(Phi, cfg),
        lambda: (2.0 * Phi.re).expr,
        lambda: (2.0 * Phi.im).expr,
        f"{name}[Phi]",
    )
    return Field(Phi.domain, leaf)


def op_Abar(Phi: Field, cfg: AntiderivativeConfig) -> Field:
    """The real field phi with d_zbar(phi) = Phi and phi(base) = 0, for a base in
    Phi's rectangle and d_y Phi1 - d_x Phi2 = 0 within COMPAT_TOL ("casirot")."""
    return _antiderivative(Phi, cfg, "casirot", "op_Abar")


def op_A(Phi: Field, cfg: AntiderivativeConfig) -> Field:
    """The real field phi with d_z(phi) = Phi and phi(base) = 0: op_Abar of conj(Phi),
    as d_zbar(phi) = conj(Phi) for real phi, gated by d_y Phi1 + d_x Phi2 = 0 ("casirot_plus")."""
    return _antiderivative(Phi.conj(), cfg, "casirot_plus", "op_A")

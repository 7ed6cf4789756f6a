"""Scalar and complex fields on planar rectangles.

Two interchangeable backends:

* ``ExprField``  -- expression tree, partial derivatives are exact;
* ``GridField``  -- uniform samples, order-2 finite differences (central in
  the interior, one-sided at the boundary) and bilinear off-node evaluation.

The outputs of the antiderivative operators are expression fields too: their
values come from quadrature, but they are ``Given`` leaves carrying their
exact partials, so the expression algebra combines and differentiates them
like any other node.  Combining a real field with a ``GridField`` resamples
the result on that grid.

A ``ComplexField`` is one complex-valued expression; a grid enters it as its
``Given`` leaf.  Its arithmetic, conjugate and Wirtinger derivatives are
expression operations, and its real and imaginary parts fold back to real
trees.  Real and complex fields, and numbers, combine through one algebra;
fields combine only on the same rectangle.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import expressions as ex
from .errors import (
    DomainError,
    NonvanishingError,
    ParameterError,
    ResolutionError,
)

NONVANISHING_EPS = 1e-10


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ParameterError(f"point components must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle [x_min, x_max] x [y_min, y_max] with a base point and grid counts."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 41
    ny: int = 41
    base: Optional[Point] = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ParameterError("domain bounds must satisfy x_min < x_max and y_min < y_max")
        if self.nx < 3 or self.ny < 3:
            raise ResolutionError(f"grid counts must be >= 3, got nx={self.nx}, ny={self.ny}")
        if self.base is None:
            object.__setattr__(self, "base", Point(self.x_min, self.y_min))
        if not self.contains(self.base.x, self.base.y):
            raise ParameterError(f"base point {self.base} lies outside the rectangle")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    def xs(self, nx: Optional[int] = None) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, nx or self.nx)

    def ys(self, ny: Optional[int] = None) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, ny or self.ny)

    def axes(self, nx: Optional[int] = None, ny: Optional[int] = None, margin: int = 0):
        """Sample abscissae of shape (1, nx) and ordinates of shape (ny, 1), which
        broadcast to the mesh; ``margin`` trims that many cells per side."""
        xs = self.xs(nx)
        ys = self.ys(ny)
        if margin:
            if 2 * margin >= len(xs) or 2 * margin >= len(ys):
                raise ResolutionError("margin removes the whole sample grid")
            xs = xs[margin:-margin]
            ys = ys[margin:-margin]
        return xs[None, :], ys[:, None]

    def mesh(self, nx: Optional[int] = None, ny: Optional[int] = None, margin: int = 0):
        """Meshgrid (X, Y) of the sample points of ``axes``, as dense arrays."""
        xs, ys = self.axes(nx, ny, margin)
        return np.meshgrid(xs[0], ys[:, 0])

    def contains(self, x, y, tol: float = 1e-12) -> bool:
        return bool(
            np.all(x >= self.x_min - tol)
            and np.all(x <= self.x_max + tol)
            and np.all(y >= self.y_min - tol)
            and np.all(y <= self.y_max + tol)
        )


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------


class _Algebra:
    """``+ - * /`` and negation of fields and numbers, all through ``_combine``."""

    def __add__(self, other):
        return _combine(self, other, operator.add)

    def __radd__(self, other):
        return _combine(other, self, operator.add)

    def __sub__(self, other):
        return _combine(self, other, operator.sub)

    def __rsub__(self, other):
        return _combine(other, self, operator.sub)

    def __mul__(self, other):
        return _combine(self, other, operator.mul)

    def __rmul__(self, other):
        return _combine(other, self, operator.mul)

    def __truediv__(self, other):
        return _combine(self, other, operator.truediv)

    def __rtruediv__(self, other):
        return _combine(other, self, operator.truediv)

    def __neg__(self):
        return _combine(-1.0, self, operator.mul)


class ScalarField(_Algebra):
    """Real-valued field on a rectangle.  Immutable; all operations are pure."""

    domain: DomainSpec

    # backend hooks -----------------------------------------------------
    def _values(self, x, y):
        raise NotImplementedError

    def dx(self) -> "ScalarField":
        raise NotImplementedError

    def dy(self) -> "ScalarField":
        raise NotImplementedError

    def to_expr(self) -> ex.Expr:
        raise NotImplementedError

    # public evaluation -------------------------------------------------
    def evaluate(self, p: Point) -> float:
        if not self.domain.contains(p.x, p.y):
            raise DomainError(f"point ({p.x}, {p.y}) outside domain")
        return float(self._values(np.asarray(p.x, float), np.asarray(p.y, float)))

    def __call__(self, x, y):
        return self._values(np.asarray(x, float), np.asarray(y, float))

    def sample(self, nx: Optional[int] = None, ny: Optional[int] = None, margin: int = 0):
        return self._values(*self.domain.axes(nx, ny, margin))

    def to_grid(self, domain: Optional[DomainSpec] = None) -> "GridField":
        dom = domain or self.domain
        values = np.asarray(self._values(*dom.axes()), float)
        return GridField(dom, values + np.zeros((dom.ny, dom.nx)))


class ExprField(ScalarField):
    def __init__(self, domain: DomainSpec, expr: Union[ex.Expr, str, float]):
        if isinstance(expr, str):
            expr = ex.parse_expression(expr)
        self.domain = domain
        self.expr = ex.as_expr(expr)

    def _values(self, x, y):
        out = ex.evaluate(self.expr, x, y)
        return np.broadcast_to(np.asarray(out, float), np.broadcast(x, y).shape)

    def dx(self) -> "ExprField":
        return ExprField(self.domain, self.expr.diff("x"))

    def dy(self) -> "ExprField":
        return ExprField(self.domain, self.expr.diff("y"))

    def to_expr(self) -> ex.Expr:
        return self.expr

    def __repr__(self):
        return f"ExprField({self.expr})"


def _fd1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative: central interior, 3-point one-sided ends (order 2)."""
    if values.shape[axis] < 3:
        raise ResolutionError("need at least 3 samples per axis for derivatives")
    v = np.moveaxis(values, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return np.moveaxis(d, 0, axis)


def _fd2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative: central interior, 4-point one-sided ends (order 2)."""
    if values.shape[axis] < 4:
        raise ResolutionError("need at least 4 samples per axis for second derivatives")
    v = np.moveaxis(values, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    d[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    d[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return np.moveaxis(d, 0, axis)


def _bilinear(d: DomainSpec, v: np.ndarray, x, y):
    """Bilinear interpolation of the samples v; exact at the nodes, clamped at the edges."""
    fx = np.clip((np.asarray(x, float) - d.x_min) / d.hx, 0.0, d.nx - 1.0)
    fy = np.clip((np.asarray(y, float) - d.y_min) / d.hy, 0.0, d.ny - 1.0)
    i0 = np.minimum(fx.astype(int), d.nx - 2)
    j0 = np.minimum(fy.astype(int), d.ny - 2)
    tx = fx - i0
    ty = fy - j0
    return (
        (1 - tx) * (1 - ty) * v[j0, i0]
        + tx * (1 - ty) * v[j0, i0 + 1]
        + (1 - tx) * ty * v[j0 + 1, i0]
        + tx * ty * v[j0 + 1, i0 + 1]
    )


class GridField(ScalarField):
    def __init__(self, domain: DomainSpec, values: np.ndarray):
        values = np.asarray(values, float)
        if values.shape != (domain.ny, domain.nx):
            raise DomainError(
                f"grid shape {values.shape} does not match domain (ny={domain.ny}, nx={domain.nx})"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("grid samples must be finite")
        self.domain = domain
        self.values = values
        self.values.setflags(write=False)

    def _values(self, x, y):
        return _bilinear(self.domain, self.values, x, y)

    def dx(self) -> "GridField":
        return GridField(self.domain, _fd1(self.values, self.domain.hx, axis=1))

    def dy(self) -> "GridField":
        return GridField(self.domain, _fd1(self.values, self.domain.hy, axis=0))

    def to_expr(self) -> ex.Expr:
        """The samples as a leaf whose partials are the grid's own differences:
        one leaf per grid, so a grid reached twice is one node of a tree."""
        return self._leaf

    @functools.cached_property
    def _leaf(self) -> ex.Given:
        # the leaf holds the samples, not the grid, so keeping it here makes no cycle
        d, v = self.domain, self.values
        return ex.Given(
            functools.partial(_bilinear, d, v),
            lambda: GridField(d, _fd1(v, d.hx, axis=1)).to_expr(),
            lambda: GridField(d, _fd1(v, d.hy, axis=0)).to_expr(),
            f"grid[{d.nx}x{d.ny}]",
        )

    def laplacian_values(self) -> np.ndarray:
        """5-point stencil in the interior, order-2 one-sided at the boundary."""
        return _fd2(self.values, self.domain.hx, axis=1) + _fd2(
            self.values, self.domain.hy, axis=0
        )


def _expr(v) -> ex.Expr:
    return v.to_expr() if isinstance(v, (ScalarField, ComplexField)) else ex.as_expr(v)


def _combine(a, b, op):
    """``op`` on two operands, fields or numbers, at least one of them a field.

    Fields must lie on the same rectangle.  A complex operand gives a complex
    field; two real operands with a grid among them give a grid of the values
    at its nodes; otherwise the expressions combine.  Any other operand type
    gives NotImplemented.
    """
    fields = (ScalarField, ComplexField)
    field, other = (a, b) if isinstance(a, fields) else (b, a)
    if isinstance(other, fields):
        corners = [(d.x_min, d.x_max, d.y_min, d.y_max) for d in (field.domain, other.domain)]
        if corners[0] != corners[1]:
            rects = " and ".join("[%r, %r] x [%r, %r]" % c for c in corners)
            raise DomainError(f"cannot combine fields on different rectangles {rects}")
    elif not isinstance(other, (int, float, complex)):
        return NotImplemented
    if isinstance(a, (ComplexField, complex)) or isinstance(b, (ComplexField, complex)):
        return ComplexField.from_expr(field.domain, op(_expr(a), _expr(b)))
    grid = a if isinstance(a, GridField) else b if isinstance(b, GridField) else None
    if grid is None:
        return ExprField(field.domain, op(_expr(a), _expr(b)))
    xs, ys = grid.domain.axes()
    values = (v._values(xs, ys) if isinstance(v, ScalarField) else v for v in (a, b))
    return GridField(grid.domain, op(*values))


def exp_field(f: ScalarField) -> ScalarField:
    """Pointwise exponential with exact derivative propagation."""
    if isinstance(f, GridField):
        return GridField(f.domain, np.exp(f.values))
    return ExprField(f.domain, ex.Exp(f.expr))


def constant_field(value: float, domain: DomainSpec) -> ExprField:
    return ExprField(domain, ex.Const(float(value)))


# ---------------------------------------------------------------------------
# Complex fields
# ---------------------------------------------------------------------------


class ComplexField(_Algebra):
    """Complex-valued field on a rectangle: one complex expression."""

    def __init__(self, re: ScalarField, im: ScalarField):
        joined = re + 1j * im
        self.domain, self.expr = joined.domain, joined.expr

    @classmethod
    def from_expr(cls, domain: DomainSpec, expr: ex.Expr) -> "ComplexField":
        field = cls.__new__(cls)
        field.domain, field.expr = domain, expr
        return field

    @classmethod
    def constant(cls, value: complex, domain: DomainSpec) -> "ComplexField":
        return cls.from_expr(domain, ex.as_expr(complex(value)))

    @functools.cached_property
    def re(self) -> ExprField:
        return ExprField(self.domain, ex.real(self.expr))

    @functools.cached_property
    def im(self) -> ExprField:
        return ExprField(self.domain, ex.imag(self.expr))

    def to_expr(self) -> ex.Expr:
        return self.expr

    def _values(self, x, y):
        out = ex.evaluate(self.expr, x, y)
        return np.broadcast_to(np.asarray(out, complex), np.broadcast(x, y).shape)

    def evaluate(self, p: Point) -> complex:
        if not self.domain.contains(p.x, p.y):
            raise DomainError(f"point ({p.x}, {p.y}) outside domain")
        return complex(self._values(np.asarray(p.x, float), np.asarray(p.y, float)))

    def __call__(self, x, y):
        return self._values(np.asarray(x, float), np.asarray(y, float))

    def sample(self, nx=None, ny=None, margin: int = 0):
        return self._values(*self.domain.axes(nx, ny, margin))

    def conj(self) -> "ComplexField":
        return ComplexField.from_expr(self.domain, ex.conj(self.expr))

    def abs2(self) -> ScalarField:
        return (self * self.conj()).re

    def dx(self) -> "ComplexField":
        return ComplexField.from_expr(self.domain, self.expr.diff("x"))

    def dy(self) -> "ComplexField":
        return ComplexField.from_expr(self.domain, self.expr.diff("y"))

    def dz(self) -> "ComplexField":
        return d_z(self)

    def dzbar(self) -> "ComplexField":
        return d_zbar(self)


FieldLike = Union[ScalarField, ComplexField]


def d_z(f: FieldLike) -> ComplexField:
    """(d_x - i d_y) / 2 of a real or complex field."""
    return 0.5 * (f.dx() - 1j * f.dy())


def d_zbar(f: FieldLike) -> ComplexField:
    """(d_x + i d_y) / 2 of a real or complex field."""
    return 0.5 * (f.dx() + 1j * f.dy())


def laplacian(f: FieldLike) -> FieldLike:
    if isinstance(f, GridField):
        return GridField(f.domain, f.laplacian_values())
    return f.dx().dx() + f.dy().dy()


def gradient_norm_ratio(f: ScalarField) -> ScalarField:
    """(|grad f| / f)**2 pointwise; f must be nonvanishing on the rectangle."""
    check_nonvanishing(f, "f")
    return (f.dx() * f.dx() + f.dy() * f.dy()) / (f * f)


# ---------------------------------------------------------------------------
# Sampling diagnostics
# ---------------------------------------------------------------------------


def max_abs(f: FieldLike, nx=None, ny=None, margin: int = 0) -> float:
    return float(np.max(np.abs(f.sample(nx, ny, margin))))


def min_abs_location(f: FieldLike, nx=None, ny=None) -> tuple[float, Point]:
    xs, ys = f.domain.axes(nx, ny)
    vals = np.abs(f.sample(nx, ny))
    j, i = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[j, i]), Point(float(xs[0, i]), float(ys[j, 0]))


def check_nonvanishing(f: FieldLike, name: str, threshold: float = NONVANISHING_EPS) -> None:
    m, at = min_abs_location(f)
    if not m > threshold:
        raise NonvanishingError(name, m, (at.x, at.y))


# ---------------------------------------------------------------------------
# CSV grid interchange
# ---------------------------------------------------------------------------


def write_grid_csv(path, grid: GridField) -> None:
    d = grid.domain
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{d.nx},{d.ny},{d.x_min!r},{d.x_max!r},{d.y_min!r},{d.y_max!r}\n")
        for row in grid.values:  # y increasing per line
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid_csv(path) -> GridField:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 6:
            raise DomainError(f"{path}: malformed CSV header")
        nx, ny = int(header[0]), int(header[1])
        x_min, x_max, y_min, y_max = map(float, header[2:])
        rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
    values = np.asarray(rows, float)
    if values.shape != (ny, nx):
        raise DomainError(f"{path}: expected {ny} rows of {nx} values, got {values.shape}")
    return GridField(DomainSpec(x_min, x_max, y_min, y_max, nx, ny), values)

"""Fields on planar rectangles.

A field (``Field``) is a rectangle and one expression tree.  It is real when
its tree is (``Expr.is_real``) and complex otherwise, and it samples as
float64 or complex128 to match.  Numbers and fields combine through one
algebra, and only on the same rectangle; derivatives are the trees' own, and
the real and imaginary parts of a complex field fold back to real trees.
Data outside the expression grammar enters as ``Given`` leaves:

* the antiderivative operators' outputs, whose values come from quadrature
  and whose partials are attached exactly;
* uniform samples (``GridField``), bilinear between the nodes, whose partial
  of order (i, j) is the leaf of the samples differenced once along each axis
  by the order-2 stencil of that order (``_fd1`` for a first, ``_fd2`` for a
  second derivative; central in the interior, one-sided at the boundary).

Every hypothesis gate of the package samples a field on its own mesh and makes
one comparison that NaN fails: ``require_at_most`` bounds max |f| (``max_abs``
reduces the tree's value before broadcasting it, so a constant costs one number) and
``require_above`` bounds min |f| from below, naming where the minimum lies; real
samples that change sign between neighbours have a zero between them, so their
min |f| is 0.  A failed gate raises the ``GateError`` subclass its caller names.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import expressions as ex
from .errors import DomainError, NonvanishingError, ParameterError, ResolutionError

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
# Fields
# ---------------------------------------------------------------------------


class Field:
    """A rectangle and one expression tree, real or complex as the tree is.  Immutable."""

    def __init__(self, domain: DomainSpec, expr: Union[ex.Expr, str, complex]):
        if isinstance(expr, str):
            expr = ex.parse_expression(expr)
        self.domain = domain
        self.expr = ex.as_expr(expr)

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

    def _values(self, x, y):
        # numpy's dtype is the tree's: only an Re or Im node drops a complex part
        out = np.asarray(ex.evaluate(self.expr, x, y))
        return np.broadcast_to(out, np.broadcast(x, y).shape)

    def evaluate(self, p: Point) -> Union[float, complex]:
        if not self.domain.contains(p.x, p.y):
            raise DomainError(f"point ({p.x}, {p.y}) outside domain")
        return self._values(np.asarray(p.x, float), np.asarray(p.y, float)).item()

    def __call__(self, x, y):
        return self._values(np.asarray(x, float), np.asarray(y, float))

    def sample(self, nx: Optional[int] = None, ny: Optional[int] = None, margin: int = 0):
        return self._values(*self.domain.axes(nx, ny, margin))

    def to_grid(self, domain: Optional[DomainSpec] = None) -> "GridField":
        if not self.expr.is_real:
            raise ParameterError("a complex field has no real grid; take .re and .im")
        dom = domain or self.domain
        return GridField(dom, self._values(*dom.axes()) + np.zeros((dom.ny, dom.nx)))

    def dx(self) -> "Field":
        return Field(self.domain, self.expr.diff("x"))

    def dy(self) -> "Field":
        return Field(self.domain, self.expr.diff("y"))

    @functools.cached_property
    def re(self) -> "Field":
        return Field(self.domain, ex.real(self.expr))

    @functools.cached_property
    def im(self) -> "Field":
        return Field(self.domain, ex.imag(self.expr))

    def conj(self) -> "Field":
        return Field(self.domain, ex.conj(self.expr))

    def abs2(self) -> "Field":
        return (self * self.conj()).re

    def __repr__(self):
        return f"Field({self.expr})"


# names that callers outside the package (bench/, user scripts) still use
ScalarField = ExprField = Field


def ComplexField(re: Field, im: Field) -> Field:
    """The field re + i im."""
    return re + 1j * im


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


def _stencil(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """The order-``order`` derivative along ``axis``: ``_fd1`` for the first,
    ``_fd2`` for the second, ``_fd2`` again for every two orders above."""
    for _ in range(order // 2):
        values = _fd2(values, h, axis)
    return _fd1(values, h, axis) if order % 2 else values


def _grid_leaf(d: DomainSpec, samples: np.ndarray, i: int = 0, j: int = 0) -> ex.Given:
    """Leaf of the partial of order (i, j) of the samples: each axis's stencil
    applied once to the samples, bilinear between the nodes.  Its own partials
    are the leaves of orders (i + 1, j) and (i, j + 1), built at its first
    ``diff`` of each variable."""
    values = _stencil(_stencil(samples, d.hx, 1, i), d.hy, 0, j)
    return ex.Given(
        functools.partial(_bilinear, d, values),
        lambda: _grid_leaf(d, samples, i + 1, j),
        lambda: _grid_leaf(d, samples, i, j + 1),
        f"grid[{d.nx}x{d.ny}]" + (f"_{'x' * i}{'y' * j}" if i or j else ""),
    )


class GridField(Field):
    """Samples at the domain's nodes (row k at y_k), as an expression field on
    their leaf; ``values`` keeps them for CSV output."""

    def __init__(self, domain: DomainSpec, values: np.ndarray):
        values = np.asarray(values, float)
        if values.shape != (domain.ny, domain.nx):
            raise DomainError(
                f"grid shape {values.shape} does not match domain (ny={domain.ny}, nx={domain.nx})"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("grid samples must be finite")
        values.setflags(write=False)
        self.values = values
        super().__init__(domain, _grid_leaf(domain, values))


def _expr(v) -> ex.Expr:
    return v.expr if isinstance(v, Field) else ex.as_expr(v)


def _combine(a, b, op):
    """``op`` on two operands, fields or numbers, at least one of them a field.

    Fields must lie on the same rectangle.  Any other operand type gives
    NotImplemented.
    """
    field, other = (a, b) if isinstance(a, Field) else (b, a)
    if isinstance(other, Field):
        corners = [(d.x_min, d.x_max, d.y_min, d.y_max) for d in (field.domain, other.domain)]
        if corners[0] != corners[1]:
            rects = " and ".join("[%r, %r] x [%r, %r]" % c for c in corners)
            raise DomainError(f"cannot combine fields on different rectangles {rects}")
    elif not isinstance(other, (int, float, complex)):
        return NotImplemented
    return Field(field.domain, op(_expr(a), _expr(b)))


def exp_field(f: Field) -> Field:
    """Pointwise exponential with exact derivative propagation."""
    return Field(f.domain, ex.Exp(f.expr))


def constant_field(value: complex, domain: DomainSpec) -> Field:
    return Field(domain, ex.Const(complex(value)))


def d_z(f: Field) -> Field:
    """(d_x - i d_y) / 2 of a real or complex field."""
    return 0.5 * (f.dx() - 1j * f.dy())


def d_zbar(f: Field) -> Field:
    """(d_x + i d_y) / 2 of a real or complex field."""
    return 0.5 * (f.dx() + 1j * f.dy())


def laplacian(f: Field) -> Field:
    return f.dx().dx() + f.dy().dy()


def gradient_norm_ratio(f: Field) -> Field:
    """(|grad f| / f)**2 pointwise; f must be nonvanishing on the rectangle."""
    check_nonvanishing(f, "f")
    return (f.dx() * f.dx() + f.dy() * f.dy()) / (f * f)


# ---------------------------------------------------------------------------
# Sampling diagnostics and hypothesis gates
# ---------------------------------------------------------------------------


def max_abs(f: Field, nx=None, ny=None, margin: int = 0) -> float:
    return float(np.max(np.abs(ex.evaluate(f.expr, *f.domain.axes(nx, ny, margin)))))


def _sign_change(v: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """The root of the line through the first two neighbouring samples, along x and
    then along y, whose signs differ: samples of both signs and no zero have one."""
    x, y = np.broadcast_arrays(x, y, v)[:2]
    for v, x, y in ((v, x, y), (v.T, x.T, y.T)):
        j, i = np.nonzero(np.sign(v[:, :-1]) * np.sign(v[:, 1:]) < 0)
        if j.size:
            j, i = j[0], i[0]
            t = v[j, i] / (v[j, i] - v[j, i + 1])
            return tuple(float(p[j, i] + t * (p[j, i + 1] - p[j, i])) for p in (x, y))


def require_at_most(f: Union[Field, float], limit: float, error: type, what: str) -> None:
    """Gate: max |f| on f's mesh (or the number f, measured already) is at most
    ``limit``, else ``error(what, value, limit)``.  NaN fails."""
    value = max_abs(f) if isinstance(f, Field) else f
    if not value <= limit:
        raise error(what, value, limit)


def require_above(
    f: Union[Field, np.ndarray], limit: float, error: type, what: str, mesh=None
) -> None:
    """Gate: min |f| on f's mesh (or of the samples f at the points ``mesh``, an
    (x, y) pair) exceeds ``limit``, else ``error(what, min, limit, (x, y))`` where
    the minimum lies.  Real samples that change sign between neighbours have a
    zero between them: min |f| is 0 there, at the first such root.  NaN fails."""
    values, mesh = (f.sample(), f.domain.axes()) if isinstance(f, Field) else (f, mesh)
    a = np.abs(values)
    j, i = np.unravel_index(np.argmin(a), a.shape)
    # the mesh coordinates broadcast to the samples: a length-1 axis takes index 0
    value, at = float(a[j, i]), tuple(float(c[j % c.shape[0], i % c.shape[1]]) for c in mesh)
    if value > limit and np.isrealobj(values) and values.min() < 0 < values.max():
        value, at = 0.0, _sign_change(values, *mesh)
    if not value > limit:
        raise error(what, value, limit, at)


def check_nonvanishing(f: Field, name: str) -> None:
    require_above(f, NONVANISHING_EPS, NonvanishingError, name)


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
    """The grid ``write_grid_csv`` wrote; malformed content raises DomainError
    naming the file and the line."""

    def numbers(line: int, cells: list, kind=float) -> list:
        try:
            return [kind(c) for c in cells]
        except ValueError:
            what = "integers" if kind is int else "numbers"
            got = ",".join(cells)
            raise DomainError(f"{path}: line {line}: expected {what}, got {got!r}") from None

    # a byte that is not UTF-8 reads as U+FFFD, which no number parses
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 6:
            raise DomainError(f"{path}: line 1: malformed CSV header")
        nx, ny = numbers(1, header[:2], int)
        x_min, x_max, y_min, y_max = numbers(1, header[2:])
        rows = []
        for line, text in enumerate(fh, 2):
            if text.strip():
                rows.append(numbers(line, text.strip().split(",")))
                if len(rows[-1]) != nx:
                    raise DomainError(f"{path}: line {line}: {len(rows[-1])} values, expected {nx}")
    if len(rows) != ny:
        raise DomainError(f"{path}: expected {ny} rows of {nx} values, got {len(rows)} rows")
    return GridField(DomainSpec(x_min, x_max, y_min, y_max, nx, ny), rows)

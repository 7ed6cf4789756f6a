"""Closed-form expression trees in the real coordinates x, y.

Node kinds: constants, the coordinates, sums, products, quotients, integer
powers, exp, sin, cos and the hyperbolic pair sinh/cosh.  Partial derivatives
are exact (structural differentiation with light constant folding), which is
what makes the expression backend usable as ground truth for the
finite-difference one.  A ``Given`` leaf stands for a field outside that
grammar (an antiderivative, grid samples): it evaluates by its own rule and
differentiates to the partials attached to it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionError, SingularityError

SINGULARITY_EPS = 1e-14


class Expr:
    """Base node.  Subclasses implement ``ev`` and ``diff``."""

    def ev(self, x, y):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    # -- operator sugar (always routed through the folding constructors) --
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return powi(self, n)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def ev(self, x, y):
        return self.value

    def diff(self, var):
        return ZERO

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x" or "y"

    def ev(self, x, y):
        return x if self.name == "x" else y

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def ev(self, x, y):
        return self.a.ev(x, y) + self.b.ev(x, y)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def __str__(self):
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def ev(self, x, y):
        return self.a.ev(x, y) * self.b.ev(x, y)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def __str__(self):
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def ev(self, x, y):
        den = self.b.ev(x, y)
        if np.min(np.abs(den)) < SINGULARITY_EPS:
            raise SingularityError(
                f"denominator {self.b} has |value| < {SINGULARITY_EPS:g}"
            )
        return self.a.ev(x, y) / den

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        num = add(mul(da, self.b), neg(mul(self.a, db)))
        return div(num, mul(self.b, self.b))

    def __str__(self):
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def ev(self, x, y):
        return self.base.ev(x, y) ** self.exponent

    def diff(self, var):
        n = self.exponent
        return mul(mul(Const(float(n)), powi(self.base, n - 1)), self.base.diff(var))

    def __str__(self):
        return f"({self.base}**{self.exponent})"


@dataclass(frozen=True)
class Given(Expr):
    """Leaf with an evaluation rule and lazily built partials ``dx()``, ``dy()``.

    ``label`` is its fixed text form, so messages that print a tree (such as
    a ``SingularityError``) stay deterministic.
    """

    fn: Callable
    dx: Callable[[], Expr]
    dy: Callable[[], Expr]
    label: str

    def ev(self, x, y):
        return self.fn(x, y)

    def diff(self, var):
        return self.dx() if var == "x" else self.dy()

    def __str__(self):
        return self.label


def _unary(np_fn, deriv_fn, symbol):
    """Factory for the elementary function nodes."""

    @dataclass(frozen=True)
    class _Node(Expr):
        arg: Expr

        def ev(self, x, y):
            return np_fn(self.arg.ev(x, y))

        def diff(self, var):
            return mul(deriv_fn(self.arg), self.arg.diff(var))

        def __str__(self):
            return f"{symbol}({self.arg})"

    _Node.__name__ = symbol.capitalize()
    return _Node


Exp = _unary(np.exp, lambda a: Exp(a), "exp")
Sin = _unary(np.sin, lambda a: Cos(a), "sin")
Cos = _unary(np.cos, lambda a: neg(Sin(a)), "cos")
Sinh = _unary(np.sinh, lambda a: Cosh(a), "sinh")
Cosh = _unary(np.cosh, lambda a: Sinh(a), "cosh")

ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise ExpressionError(f"cannot convert {v!r} to an expression")


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Mul(Const(-1.0), a)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    # fold nested constant factors so repeated differentiation stays compact
    if isinstance(a, Const) and isinstance(b, Mul) and isinstance(b.a, Const):
        return mul(Const(a.value * b.a.value), b.b)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(b, Const):
        if abs(b.value) < SINGULARITY_EPS:
            raise SingularityError("division by a constant below the 1e-14 guard")
        return mul(Const(1.0 / b.value), a)
    return Div(a, b)


def powi(base: Expr, n) -> Expr:
    if not isinstance(n, int):
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        else:
            raise ExpressionError(f"power exponent must be an integer, got {n!r}")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**n)
    if n < 0:
        return div(ONE, Pow(base, -n))
    return Pow(base, n)


X = Var("x")
Y = Var("y")


def zpow_parts(n: int, x0: float = 0.0, y0: float = 0.0) -> tuple[Expr, Expr]:
    """Real and imaginary parts of ((x - x0) + i(y - y0))**n as expressions."""
    if n < 0:
        raise ExpressionError("zpow_parts requires n >= 0")
    dx = add(X, Const(-x0))
    dy = add(Y, Const(-y0))
    re: Expr = ZERO
    im: Expr = ZERO
    for k in range(n + 1):
        coeff = math.comb(n, k)
        term = mul(Const(float(coeff)), mul(powi(dx, n - k), powi(dy, k)))
        if k % 2 == 0:
            sign = 1.0 if k % 4 == 0 else -1.0
            re = add(re, mul(Const(sign), term))
        else:
            sign = 1.0 if k % 4 == 1 else -1.0
            im = add(im, mul(Const(sign), term))
    return re, im


# ---------------------------------------------------------------------------
# Parser: recursive descent over  + - * / **  with exp/sin/cos/sinh/cosh,
# coordinates x, y and the constant pi.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[+\-*/()]))"
)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos, "sinh": Sinh, "cosh": Cosh}
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), pos))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {val!r} at position {pos}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = add(e, rhs if val == "+" else neg(rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return neg(self.unary())
        if kind == "op" and val == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "**":
            self.take()
            exponent = self.unary()
            if not isinstance(exponent, Const) or not float(exponent.value).is_integer():
                raise ExpressionError(
                    f"exponent at position {pos} must be an integer constant"
                )
            return powi(base, int(exponent.value))
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            if val in ("x", "y"):
                return Var(val)
            if val in _CONSTANTS:
                return Const(_CONSTANTS[val])
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[val](arg)
            raise ExpressionError(f"unknown name {val!r} at position {pos}")
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionError(f"unexpected token {val!r} at position {pos} in {self.text!r}")


def parse_expression(text: str) -> Expr:
    """Parse expression text such as ``exp(0.6*x + 0.8*y)`` into a tree."""
    if not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()

"""Closed-form expression trees in the real coordinates x, y.

Node kinds: constants, which may be complex, the coordinates, sums, products,
quotients, integer powers, exp, sin, cos, the hyperbolic pair sinh/cosh, the
conjugate ``Conj`` and the parts ``Re``, ``Im``; numpy does complex arithmetic.
Partial derivatives are exact (structural differentiation with light constant
folding; d/dx conj(e) = conj(d/dx e)), which makes the trees the ground truth
for the finite differences of grid data.  A ``Given`` leaf stands for a real
field outside that grammar (an antiderivative, grid samples): it evaluates by
its own rule and differentiates to the partials attached to it, built once.
The folding constructors ``real`` and ``imag`` emit an ``Re``/``Im`` node only
as a last resort: a constant or all-real tree folds at once, and they
distribute over sums and negation, pull out a constant (complex too), real
factor or real denominator, and go through ``Conj``; so the parts of
``a + 1j*b`` are a's and b's own trees.  Text is parsed by Python's ``ast``
module; a whitelist maps the allowed nodes onto the trees.

Nodes are interned: a constructor returns the live node of its class on the
same operands (nodes by identity, numbers by type and bits: 0.0 is not -0.0),
and a ``Given`` leaf is always new; so equal trees are one object, and ``==``
and ``hash`` are identity.  ``add`` folds c*X + (-c)*X, one X and a finite c,
to ``ZERO``, which reads 0 even where c*X overflows or a quotient in X is singular.

Differentiation reuses its operands, so derivatives are DAGs: ``diff`` is
memoised per node and variable.  ``evaluate`` is the one way to evaluate a
tree: it runs the tree's flat plan, built once and kept on its root, which
applies each distinct node's operation once, operands first and left to
right, and drops each value after its last use.  A quotient checks its
denominator before its numerator is evaluated, so the first
``SingularityError`` is that of the first denominator reached.  Given the
values of the tree's ``Given`` leaves (``leaf_values``), the same plan runs on a
block of a mesh without calling the leaves: ``field.max_abs`` reduces a large
mesh in blocks of rows, each leaf sampled once on the whole mesh and sliced.
"""
from __future__ import annotations

import ast
import functools
import math
import operator
import re
import struct
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionError, SingularityError

SINGULARITY_EPS = 1e-14


def _memoised(rule):
    """A node's ``diff`` computed once per variable and kept on the node, so the
    derivatives of one node are one object wherever they are reached."""

    @functools.wraps(rule)
    def diff(self, var):
        cache = self.__dict__.setdefault("_derivatives", {})
        if var not in cache:
            cache[var] = rule(self, var)
        return cache[var]

    return diff


def _check_denominator(node, den) -> None:
    if np.min(np.abs(den)) < SINGULARITY_EPS:
        raise SingularityError(f"denominator {node} has |value| < {SINGULARITY_EPS:g}")


def _value_key(v):
    """An operand that is no node: a number by its type and bits as ``Const`` stores it."""
    if isinstance(v, complex) and not v.imag:
        v = v.real
    if isinstance(v, (float, complex)):
        return type(v), struct.pack("<dd", v.real, v.imag)
    return type(v), v


class _Entry(weakref.ref):
    """A weak reference to an interned node, which knows the node's key."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry, unless a new node of the same key replaced it: an
    operand's id is free for reuse once the node that held it has died."""
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


# (class, operand keys) -> the entry of the live node, which holds its operands,
# so no key's id is reused while the node lives
_NODES: dict = {}


class Expr:
    """Base node.  Subclasses implement ``diff`` and ``_emit``, which states the
    node's operation; the plan, ``is_real`` and memoised derivatives are
    cached on the node."""

    def __new__(cls, *args):
        """The live node of ``cls`` on these operands, else a new one; a ``Given``, or a
        bare node that ``copy`` or ``pickle`` fills in later, is always new."""
        if cls is Given or not args:
            return super().__new__(cls)
        key = (cls, *[id(a) if isinstance(a, Expr) else _value_key(a) for a in args])
        entry = _NODES.get(key)
        node = entry and entry()
        if node is None:
            node = super().__new__(cls)
            entry = _NODES[key] = _Entry(node, _forget)
            entry.key = key
        return node

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def _emit(self, plan: _Planner) -> int:
        """Add this node's steps to ``plan``, operands first; return its slot."""
        raise NotImplementedError

    @functools.cached_property
    def is_real(self) -> bool:
        """True for a real-valued tree: no complex constant outside an Re or Im node."""
        # the dataclass fields only: a plan or derivative cached on the node is no child
        values = [getattr(self, name) for name in self.__dataclass_fields__]
        return all(v.is_real if isinstance(v, Expr) else not isinstance(v, complex) for v in values)

    @functools.cached_property
    def _plan(self) -> "_Plan":
        """Steps ``(fn, operand slots, slots freed after it)`` of the tree."""
        planner = _Planner(self)
        last = {i: k for k, (_, args) in enumerate(planner.steps) for i in args}
        dead = [[] for _ in planner.steps]
        for i, k in last.items():
            dead[k].append(i)
        plan = _Plan((fn, args, tuple(d)) for (fn, args), d in zip(planner.steps, dead))
        plan.leaves = tuple(planner.leaves)
        return plan

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


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float | complex

    def __post_init__(self):  # a complex value without imaginary part is stored as a float
        if isinstance(self.value, complex) and not self.value.imag:
            object.__setattr__(self, "value", self.value.real)

    def diff(self, var):
        return ZERO

    def _emit(self, plan):
        value = self.value
        return plan.step(lambda: value)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    name: str  # "x" or "y"

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def _emit(self, plan):
        return 0 if self.name == "x" else 1

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr

    @_memoised
    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def _emit(self, plan):
        return plan.step(operator.add, plan.slot(self.a), plan.slot(self.b))

    def __str__(self):
        return f"({self.a} + {self.b})"


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr

    @_memoised
    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def _emit(self, plan):
        return plan.step(operator.mul, plan.slot(self.a), plan.slot(self.b))

    def __str__(self):
        return f"({self.a} * {self.b})"


@dataclass(frozen=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr

    @_memoised
    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        num = add(mul(da, self.b), neg(mul(self.a, db)))
        return div(num, mul(self.b, self.b))

    def _emit(self, plan):  # the check precedes the numerator
        den = plan.slot(self.b)
        plan.step(functools.partial(_check_denominator, self.b), den)
        return plan.step(operator.truediv, plan.slot(self.a), den)

    def __str__(self):
        return f"({self.a} / {self.b})"


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: int

    @_memoised
    def diff(self, var):
        n = self.exponent
        return mul(mul(Const(float(n)), powi(self.base, n - 1)), self.base.diff(var))

    def _emit(self, plan):
        n = self.exponent
        return plan.step(lambda v: v**n, plan.slot(self.base))

    def __str__(self):
        return f"({self.base}**{self.exponent})"


@dataclass(frozen=True, eq=False)
class Given(Expr):
    """Leaf with an evaluation rule and partials built by ``dx()``, ``dy()``,
    each once, at its first ``diff``.

    ``label`` is its fixed text form, so messages that print a tree (such as
    a ``SingularityError``) stay deterministic.
    """

    fn: Callable
    dx: Callable[[], Expr]
    dy: Callable[[], Expr]
    label: str

    @_memoised
    def diff(self, var):
        return self.dx() if var == "x" else self.dy()

    def _emit(self, plan):
        plan.leaves.append(len(plan.steps))
        return plan.step(self.fn, 0, 1)

    def __str__(self):
        return self.label


def _unary(np_fn, symbol, rule):
    """Factory for the one-argument nodes; ``rule(arg, d_arg)`` is the derivative."""

    @dataclass(frozen=True, eq=False)
    class _Node(Expr):
        arg: Expr

        @_memoised
        def diff(self, var):
            return rule(self.arg, self.arg.diff(var))

        def _emit(self, plan):
            return plan.step(np_fn, plan.slot(self.arg))

        def __str__(self):
            return f"{symbol}({self.arg})"

    _Node.__name__ = symbol.capitalize()
    return _Node


Exp = _unary(np.exp, "exp", lambda a, da: mul(Exp(a), da))
Sin = _unary(np.sin, "sin", lambda a, da: mul(Cos(a), da))
Cos = _unary(np.cos, "cos", lambda a, da: mul(neg(Sin(a)), da))
Sinh = _unary(np.sinh, "sinh", lambda a, da: mul(Cosh(a), da))
Cosh = _unary(np.cosh, "cosh", lambda a, da: mul(Sinh(a), da))
Conj = _unary(np.conj, "conj", lambda a, da: conj(da))
Re = _unary(np.real, "re", lambda a, da: real(da))
Im = _unary(np.imag, "im", lambda a, da: imag(da))
Re.is_real = Im.is_real = True

ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Evaluation: each distinct node once.
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, x, y, leaves: dict | None = None):
    """The value of ``expr`` at ``x``, ``y``, computing each distinct node once; the
    ``Given`` steps in ``leaves`` (plan index -> value, as ``leaf_values`` gives
    them) return their value there instead of calling the leaf."""
    steps = expr._plan
    if leaves:
        steps = list(steps)
        for k, value in leaves.items():
            steps[k] = (lambda value=value: value, (), steps[k][2])
    vals = [x, y]
    for fn, args, dead in steps:
        vals.append(fn(*[vals[i] for i in args]))
        for i in dead:
            vals[i] = None
    return vals[-1]


def leaf_values(expr: Expr, x, y) -> dict:
    """The values at ``x``, ``y`` of the tree's ``Given`` leaves, by plan index, in plan order."""
    plan = expr._plan
    return {k: plan[k][0](x, y) for k in plan.leaves}


class _Plan(tuple):
    """A tree's steps; ``leaves`` holds the indices of its ``Given`` steps."""

    leaves: tuple = ()


class _Planner:
    """A tree's distinct nodes (by identity) as steps ``(fn, operand slots)``,
    operands first.  Slots 0 and 1 hold x and y, slot k + 2 the value of step k."""

    def __init__(self, root: Expr):
        self.slots: dict[int, int] = {}
        self.steps: list[tuple] = []
        self.leaves: list[int] = []  # the indices of the Given steps
        top = self.slot(root)
        if top < 2:  # the root is a coordinate: one step reads it, so it is the last value
            self.step(lambda v: v, top)

    def slot(self, node: Expr) -> int:
        hit = self.slots.get(id(node))
        if hit is None:
            hit = self.slots[id(node)] = node._emit(self)
        return hit

    def step(self, fn, *args: int) -> int:
        self.steps.append((fn, args))
        return len(self.steps) + 1


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    if isinstance(v, complex):
        return Const(v)
    raise ExpressionError(f"cannot convert {v!r} to an expression")


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _term(e: Expr) -> tuple:
    """``e`` as a constant factor and a node: (c, b) for c * b, else (1.0, e)."""
    return (e.a.value, e.b) if isinstance(e, Mul) and isinstance(e.a, Const) else (1.0, e)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    (ca, xa), (cb, xb) = _term(a), _term(b)
    if xa is xb and ca == -cb and np.isfinite(ca):  # c X + (-c) X is +0 for finite c X
        return ZERO
    return Add(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Mul) and isinstance(a.a, Const):  # -(c b) = (-c) b, exactly
        return mul(Const(-a.a.value), a.b)
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


def conj(a: Expr) -> Expr:
    if a.is_real:
        return a
    if isinstance(a, Const):
        return Const(a.value.conjugate())
    if isinstance(a, Conj):
        return a.arg
    return Conj(a)


def _part(a: Expr, imaginary: bool) -> Expr:
    """``real(a)`` or ``imag(a)``, folded; an ``Re``/``Im`` node only where no rule applies."""
    part = imag if imaginary else real
    if a.is_real:
        return ZERO if imaginary else a
    if isinstance(a, Const):
        return Const(a.value.imag if imaginary else a.value.real)
    if isinstance(a, Add):
        return add(part(a.a), part(a.b))
    if isinstance(a, Conj):
        return neg(part(a.arg)) if imaginary else part(a.arg)
    if isinstance(a, Mul) and isinstance(a.a, Const):
        # re(c b) = re c re b - im c im b,  im(c b) = im c re b + re c im b
        c = a.a.value
        w_re, w_im = (c.imag, c.real) if imaginary else (c.real, -c.imag)
        return add(
            mul(Const(w_re), real(a.b)) if w_re else ZERO,
            mul(Const(w_im), imag(a.b)) if w_im else ZERO,
        )
    if isinstance(a, Mul) and a.a.is_real:
        return mul(a.a, part(a.b))
    if isinstance(a, (Mul, Div)) and a.b.is_real:
        return (mul if isinstance(a, Mul) else div)(part(a.a), a.b)
    return (Im if imaginary else Re)(a)


real = functools.partial(_part, imaginary=False)
imag = functools.partial(_part, imaginary=True)


# ---------------------------------------------------------------------------
# Parser: Python's own, then a whitelist onto the folding constructors.
# ---------------------------------------------------------------------------

MAX_DEPTH = 100  # deeper trees outgrow the recursion limit once differentiated

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos, "sinh": Sinh, "cosh": Cosh}
_NAMES = {"x": X, "y": Y, "pi": Const(math.pi), "e": Const(math.e)}
_UNARY = {ast.USub: neg, ast.UAdd: lambda a: a}
_BINARY = {ast.Add: add, ast.Sub: lambda a, b: add(a, neg(b)), ast.Mult: mul, ast.Div: div}
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# one line of printable ASCII, without what the AST would not show: comments,
# line continuations, and non-ASCII names (Python folds them onto ASCII ones)
_FOREIGN = re.compile(r"[^ -~\t\f]|[#\\]")


def parse_expression(text: str) -> Expr:
    """Parse text such as ``exp(0.6*x + 0.8*y)``, a subset of Python's expressions:
    decimal numbers, x, y, pi, e, ``+ - * /``, ``**`` with an integer constant
    exponent, and one-argument calls of exp, sin, cos, sinh and cosh."""
    text = text.strip()
    if not text:
        raise ExpressionError("empty expression")
    bad = _FOREIGN.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r} at column {bad.start()}")
    try:
        with warnings.catch_warnings():  # "1if x else 2" warns before it is rejected
            warnings.simplefilter("ignore")
            return _build(ast.parse(text, mode="eval").body, text, 1)
    except SyntaxError as exc:
        raise ExpressionError(f"{exc.msg} at column {(exc.offset or 1) - 1}") from None
    except (RecursionError, MemoryError):  # MemoryError: the parser's own stack overflowed
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels") from None
    except (OverflowError, ZeroDivisionError) as exc:  # a constant raised to a power
        raise ExpressionError(f"constant power out of range: {exc}") from None


def _build(node: ast.expr, text: str, depth: int) -> Expr:
    """Map a whitelisted node of Python's AST, ``depth`` levels down, onto a tree."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")
    sub = functools.partial(_build, text=text, depth=depth + 1)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](sub(node.left), sub(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](sub(node.operand))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exponent = sub(node.left), sub(node.right)
        if not isinstance(exponent, Const) or not exponent.value.is_integer():
            raise ExpressionError(f"exponent at column {node.right.col_offset} must be an integer")
        return powi(base, int(exponent.value))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS:
        if len(node.args) == 1 and not node.keywords:
            return _FUNCTIONS[node.func.id](sub(node.args[0]))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    segment = text[node.col_offset : node.end_col_offset]  # one ASCII line: columns are indices
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return Const(float(segment))
    raise ExpressionError(f"unsupported {segment!r} at column {node.col_offset}")

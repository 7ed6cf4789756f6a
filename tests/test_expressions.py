"""Expression tree: parsing, evaluation, exact differentiation, folding."""
import copy
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati2d import (
    DomainSpec,
    ExprField,
    ExpressionError,
    GridField,
    Point,
    SingularityError,
    analytic_power,
)
from riccati2d import expressions as ex
from riccati2d.expressions import parse_expression


def fd(expr, var, x, y, h=1e-6):
    if var == "x":
        return (ex.evaluate(expr, x + h, y) - ex.evaluate(expr, x - h, y)) / (2 * h)
    return (ex.evaluate(expr, x, y + h) - ex.evaluate(expr, x, y - h)) / (2 * h)


CASES = [
    "x",
    "y",
    "x + y",
    "x*y - 2",
    "exp(0.6*x + 0.8*y)",
    "sin(x)*cosh(y)",
    "cos(2*x) + sinh(y)",
    "(x + 1)**3 / (y + 2)",
    "x**2 - y**2",
    "pi * x - e",
    "-x**2",
    "2**3**2",
    "x**-2",
    "2*-x",
    ".5*x + 5.*y",
    "1E+2*x",
]


@pytest.mark.parametrize("text", CASES)
def test_parse_eval_matches_python(text):
    expr = parse_expression(text)
    env = {"x": 0.3, "y": -0.7, "exp": math.exp, "sin": math.sin, "cos": math.cos,
           "sinh": math.sinh, "cosh": math.cosh, "pi": math.pi, "e": math.e}
    assert ex.evaluate(expr, 0.3, -0.7) == pytest.approx(eval(text, env), abs=1e-14)


@pytest.mark.parametrize("text", CASES)
@pytest.mark.parametrize("var", ["x", "y"])
def test_diff_matches_finite_difference(text, var):
    expr = parse_expression(text)
    d = expr.diff(var)
    for x, y in [(0.2, 0.1), (-0.5, 0.9), (1.1, -1.3)]:
        assert ex.evaluate(d, x, y) == pytest.approx(fd(expr, var, x, y), rel=1e-6, abs=1e-6)


def test_vectorized_evaluation():
    expr = parse_expression("exp(x) * sin(y)")
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(-1, 0, 7)
    np.testing.assert_allclose(ex.evaluate(expr, xs, ys), np.exp(xs) * np.sin(ys), rtol=1e-14)


def test_constant_folding():
    assert isinstance(parse_expression("2 + 3*4"), ex.Const)
    assert parse_expression("2 + 3*4").value == 14.0
    e = parse_expression("0*x + y*1")
    assert str(e) == "y"
    assert isinstance(parse_expression("x - x + 1") * 0, ex.Const)


def test_power_requires_integer_exponent():
    with pytest.raises(ExpressionError):
        parse_expression("x**0.5")
    with pytest.raises(ExpressionError):
        parse_expression("x**y")


@pytest.mark.parametrize(
    "text",
    [
        "exp(x", "x +", "2x", "foo(x)", "x ** ", "@", "",
        # Python syntax outside the grammar
        "0x10", "1_000", "1j", "x < y", "x.real", "x[0]", "exp(x=1)", "exp(*x)", "lambda: x",
        "(x := 1)", "True", "'x'", "x # 1", "2**10000", "0**-1",
        pytest.param("\uff58 + 1", id="fullwidth-x"),
        pytest.param("(" * 250 + "x+1" + ")" * 250, id="parens-250-deep"),
        pytest.param("1" + "+x" * 2999, id="sum-3000-terms"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


def test_nesting_depth_bounded():
    """MAX_DEPTH levels parse; one more is an ExpressionError, not a RecursionError later."""
    n = ex.MAX_DEPTH
    assert ex.evaluate(parse_expression("1" + "+x" * (n - 1)), 2.0, 0.0) == 1 + 2 * (n - 1)
    with pytest.raises(ExpressionError, match="nested deeper"):
        parse_expression("1" + "+x" * n)
    with pytest.raises(ExpressionError, match="nested deeper"):
        parse_expression("-" * n + "x")


def test_division_singularity_guard():
    expr = parse_expression("1 / x")
    with pytest.raises(SingularityError):
        ex.evaluate(expr, 0.0, 0.0)
    assert ex.evaluate(expr, 2.0, 0.0) == 0.5


def test_analytic_power_against_complex_arithmetic():
    dom = DomainSpec(0.0, 2.0, 0.0, 1.0)
    for n in range(6):
        w = analytic_power(n, dom, Point(0.3, -0.2))
        x, y = 1.7, 0.4
        want = complex(x - 0.3, y + 0.2) ** n
        assert w.re.evaluate(Point(x, y)) == pytest.approx(want.real, rel=1e-13, abs=1e-13)
        assert w.im.evaluate(Point(x, y)) == pytest.approx(want.imag, rel=1e-13, abs=1e-13)


@given(
    x=st.floats(-2, 2), y=st.floats(-2, 2),
    a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_product_rule_property(x, y, a, b):
    """d/dx of f*g equals f'g + fg' exactly (symbolic, not FD)."""
    f = ex.Exp(ex.Const(a) * ex.X) * ex.Cos(ex.Const(b) * ex.Y)
    g = ex.Sinh(ex.Const(b) * ex.X) + ex.Const(2.0)
    prod = f * g
    lhs = ex.evaluate(prod.diff("x"), x, y)
    rhs = (
        ex.evaluate(f.diff("x"), x, y) * ex.evaluate(g, x, y)
        + ex.evaluate(f, x, y) * ex.evaluate(g.diff("x"), x, y)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_shared_leaf_evaluated_once(unit_square):
    """A leaf reached four times is evaluated once per field evaluation."""
    calls = []
    g = ex.Given(lambda x, y: calls.append(1) or x + y, lambda: ex.ZERO, lambda: ex.ZERO, "g")
    f = ExprField(unit_square, (g * g) * (g * g))
    xg, yg = unit_square.mesh()
    s = xg + yg
    np.testing.assert_array_equal(f.sample(), (s * s) * (s * s))
    assert len(calls) == 1
    f.evaluate(Point(0.5, 0.5))
    assert len(calls) == 2


_Q = ex.div(ex.ONE, ex.Y)
_SIN_X = ex.Sin(ex.X)


@pytest.mark.parametrize(
    "expr, first",
    [
        (ex.div(ex.add(ex.div(ex.ONE, ex.X), _Q), _Q), "y"),
        # a quotient's denominator is checked before its numerator is evaluated
        (ex.div(ex.div(ex.ONE, _SIN_X), ex.mul(ex.Y, _SIN_X)), r"\(y \* sin\(x\)\)"),
    ],
    ids=["shared-denominator", "denominator-before-numerator"],
)
def test_shared_subtree_keeps_the_first_singularity(unit_square, expr, first):
    """The first denominator reached, operands first, is the one that fails first."""
    with pytest.raises(SingularityError, match=f"denominator {first} "):
        ex.evaluate(expr, 0.0, 0.0)
    with pytest.raises(SingularityError, match=f"denominator {first} "):
        ExprField(unit_square, expr).evaluate(Point(0.0, 0.0))


def test_derivatives_are_memoised():
    """Two derivatives of one node are one object, so a plan shares them."""
    f = parse_expression("exp(0.6*x + 0.8*y) / cosh(x)")
    assert f.diff("x") is f.diff("x")
    assert f.diff("x").diff("y") is f.diff("x").diff("y")
    assert f.diff("x") is not f.diff("y")
    assert f.is_real and not (1j * f).diff("x").is_real


_LEAVES = [ex.X, ex.Y, ex.Const(0.7), ex.Const(complex(0.3, -0.4))]
_BINARY_OPS = [ex.add, ex.mul, ex.div, lambda a, b: ex.add(a, ex.neg(b))]
_UNARY_OPS = [ex.Sin, ex.Cos, ex.Exp, ex.Cosh, ex.conj, ex.real, ex.imag, lambda a: ex.powi(a, 2)]
_PLAN_POINTS = [
    (np.linspace(-1.3, 1.1, 7)[None, :], np.linspace(-0.9, 1.2, 5)[:, None]),  # tensor grid
    (np.array([0.31, -0.72, 1.05, 0.0, -1.2]), np.array([0.44, 0.93, -0.61, 0.17, -0.3])),
]
_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 5), st.integers(0, 5)),
    min_size=2, max_size=10,
)
# the node names of the trees' text, bound to numpy
_NUMPY_NAMES = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "conj": np.conj, "re": np.real, "im": np.imag,
}


def _tree(steps, leaves=_LEAVES):
    """A tree that reuses its nodes: each step applies an operation to earlier nodes."""
    pool = list(leaves)
    for binary, k, i, j in steps:  # operands counted back from the newest node
        a, b = pool[-1 - i % len(pool)], pool[-1 - j % len(pool)]
        pool.append(_BINARY_OPS[k % 4](a, b) if binary else _UNARY_OPS[k](a))
    return ex.mul(pool[-1], ex.add(pool[-1], pool[-2]))


def _reference(text, x, y):
    """Python's own evaluation of a tree's text, numpy bound to the node names."""
    return eval(text, {"__builtins__": {}, "x": x, "y": y, **_NUMPY_NAMES})


def _outcome(fn, x, y):
    try:
        with np.errstate(all="ignore"):
            return fn(x, y), None
    except SingularityError as exc:
        return None, str(exc)


@given(steps=_STEPS)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_evaluate_matches_reference(steps):
    """On trees whose nodes are reused, and on their derivatives, evaluating each
    distinct node once gives the arrays of Python's own evaluation of the tree's
    text bit for bit; where it raises, the denominator it names is below the guard."""
    root = _tree(steps)
    for expr in (root, root.diff("x"), root.diff("x").diff("y"), root.diff("y").diff("y")):
        for x, y in _PLAN_POINTS:
            got, error = _outcome(functools.partial(ex.evaluate, expr), x, y)
            if error is None:
                want, _ = _outcome(functools.partial(_reference, str(expr)), x, y)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want, equal_nan=True)
            else:
                den = re.fullmatch(r"denominator (.*) has \|value\| < \S+", error).group(1)
                with np.errstate(all="ignore"):
                    assert np.min(np.abs(_reference(den, x, y))) < ex.SINGULARITY_EPS


_GRID = ExprField(DomainSpec(-1.3, 1.1, -0.9, 1.2, 9, 7), "sin(2*x) * exp(y)").to_grid()
_BATCH = (
    np.random.default_rng(7).uniform(-1.3, 1.1, 17),
    np.random.default_rng(8).uniform(-0.9, 1.2, 17),
)


@given(steps=_STEPS)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_evaluate_is_batch_invariant(steps):
    """No value depends on how many points are evaluated together: a batch gives
    each point's value alone and each prefix's values, bit for bit, also through
    a grid leaf and its partials; a batch that raises has a point that raises so."""
    g = _GRID.expr
    root = _tree(steps, _LEAVES + [g, g.diff("x"), g.diff("y")])
    x, y = _BATCH
    for expr in (root, root.diff("x"), root.diff("x").diff("y")):
        run = functools.partial(ex.evaluate, expr)
        batch, error = _outcome(run, x, y)
        alone = [_outcome(run, x[k : k + 1], y[k : k + 1]) for k in range(len(x))]
        if error is not None:
            assert error in [e for _, e in alone]
            continue
        batch = np.broadcast_to(batch, x.shape)
        for k, (value, _) in enumerate(alone):
            assert np.asarray(value).dtype == batch.dtype
            assert np.array_equal(np.broadcast_to(value, (1,)), batch[k : k + 1], equal_nan=True)
            prefix, _ = _outcome(run, x[: k + 1], y[: k + 1])
            assert np.array_equal(np.broadcast_to(prefix, (k + 1,)), batch[: k + 1], equal_nan=True)


_NONZERO = st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-3)
_OPERANDS = [
    ex.X,
    ex.X * ex.Y,
    ex.Exp(ex.X) * ex.Y,
    2.5 * ex.Sin(ex.Y),
    ex.X + 1j * ex.Y,
    ex.Exp(1j * ex.X) * ex.Y,
    (0.5 - 0.75j) * ex.Cos(ex.X),
]


@given(
    c=st.one_of(_NONZERO, st.builds(complex, _NONZERO, _NONZERO)),
    b=st.sampled_from(_OPERANDS),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_negation_folds_a_constant_factor_exactly(c, b):
    """neg(c * b) is (-c) * b, which evaluates bit for bit as -1.0 * (c * b) for
    real and complex c and b with nonzero parts: IEEE rounding is symmetric."""
    product = ex.mul(ex.Const(c), b)
    if isinstance(product, ex.Mul) and isinstance(product.a, ex.Const):
        assert isinstance(ex.neg(product), ex.Mul) and ex.neg(product).b is product.b
    x, y = _BATCH
    got = np.asarray(ex.evaluate(ex.neg(product), x, y))
    want = np.asarray(ex.evaluate(ex.Mul(ex.Const(-1.0), product), x, y))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the antiderivative-mesh benchmark's phi, whose mixed partials are one computation
_PHI = "sin(7*x)*cosh(3*y) + x*cos(9*y)"


def test_equal_trees_are_one_node():
    """Nodes are interned: structurally equal trees are one object, built apart or not."""
    phi = parse_expression(_PHI)
    assert parse_expression(_PHI) is phi
    assert ex.Sin(ex.mul(ex.Const(7.0), ex.X)) is parse_expression("sin(7*x)")
    assert phi.diff("x").diff("y") is phi.diff("y").diff("x")
    assert ex.Const(1.0 + 0.0j) is ex.Const(1.0) and isinstance(ex.Const(1.0 + 0.0j).value, float)
    assert ex.Const(math.nan) is ex.Const(math.nan)
    assert ex.Const(0.0) is not ex.Const(-0.0)
    assert math.copysign(1.0, ex.Const(-0.0).value) == -1.0
    assert ex.Const(0.0) != ex.Const(-0.0) and ex.X == ex.Var("x")  # == is identity


def test_given_leaves_are_never_merged():
    """Two leaves with one rule, or two grids of the same samples, stay two leaves."""
    fn, zero = (lambda x, y: x + y), (lambda: ex.ZERO)
    assert ex.Given(fn, zero, zero, "g") is not ex.Given(fn, zero, zero, "g")
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, 5, 5)
    samples = np.arange(25.0).reshape(5, 5)
    a, b = GridField(domain, samples), GridField(domain, samples)
    assert a.expr is not b.expr and (a - b).expr is not ex.ZERO
    assert (a - a).expr is ex.ZERO


@given(c=st.one_of(_NONZERO, st.builds(complex, _NONZERO, _NONZERO)), b=st.sampled_from(_OPERANDS))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sum_of_opposite_multiples_folds_to_zero(c, b):
    """c X + (-c) X is ZERO when X is one node; its evaluation is exactly +0 on
    finite values, so the fold changes no value there."""
    term, opposite = ex.mul(ex.Const(c), b), ex.mul(ex.Const(-c), b)
    assert ex.add(term, opposite) is ex.ZERO and ex.add(opposite, term) is ex.ZERO
    assert ex.add(b, ex.neg(b)) is ex.ZERO and (term - term) is ex.ZERO
    x, y = _BATCH
    values = np.asarray(ex.evaluate(ex.Add(term, opposite), x, y))
    assert np.all(values == 0) and not np.any(np.signbit(values.real))


def test_fold_needs_one_node_and_finite_opposite_constants():
    """No fold for different nodes, unequal constants, or a NaN or infinite constant,
    whose sum is NaN, not 0."""
    assert ex.add(ex.X, ex.neg(ex.Y)) is not ex.ZERO
    assert ex.add(2.0 * ex.X, -3.0 * ex.X) is not ex.ZERO
    for c in (math.nan, math.inf, complex(1.0, math.inf)):
        residual = ex.add(ex.mul(ex.Const(c), ex.X), ex.mul(ex.Const(-c), ex.X))
        assert isinstance(residual, ex.Add)
        with np.errstate(invalid="ignore"):
            assert np.isnan(ex.evaluate(residual, 0.5, 0.0))


def test_a_dead_node_leaves_the_table_and_only_its_own_entry():
    """A node's entry goes when the node dies.  The removal callback of a dead node
    whose key a new node has taken since leaves the new node's entry alone."""
    key = (ex.Const, ex._value_key(12345.678125))
    node = ex.Const(12345.678125)
    stale = ex._NODES[key]
    assert stale() is node
    del node
    assert key not in ex._NODES
    node = ex.Const(12345.678125)
    ex._forget(stale)
    assert ex._NODES[key]() is node and ex.Const(12345.678125) is node


def test_copies_keep_their_operands():
    """``copy`` builds a bare node and then fills it in: two copies stay two nodes."""
    a, b = ex.Add(ex.X, ex.Y), ex.Add(ex.Y, ex.X)
    copies = copy.copy(a), copy.deepcopy(b)
    assert copies[0] is not copies[1] and [str(c) for c in copies] == ["(x + y)", "(y + x)"]

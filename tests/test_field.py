"""Fields, real and complex: algebra, grid leaves and their FD order, Wirtinger calculus, CSV I/O."""
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati2d import (
    AntiderivativeConfig,
    ComplexField,
    DomainError,
    DomainSpec,
    ExprField,
    GridField,
    NonvanishingError,
    NotASolutionError,
    ParameterError,
    Point,
    ResolutionError,
    SingularityError,
    ZeroSetError,
    check_nonvanishing,
    compatibility_check,
    constant_field,
    d_z,
    d_zbar,
    exp_field,
    gradient_norm_ratio,
    laplacian,
    max_abs,
    op_Abar,
    read_grid_csv,
    write_grid_csv,
)
from riccati2d import expressions as ex
from riccati2d import field as field_module


def test_point_rejects_nonfinite():
    with pytest.raises(Exception):
        Point(float("nan"), 0.0)


def test_domain_validation():
    with pytest.raises(Exception):
        DomainSpec(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ResolutionError):
        DomainSpec(0.0, 1.0, 0.0, 1.0, 2, 5)


def test_contains_keeps_its_tolerance_and_takes_nan_as_outside():
    """A point within 1e-12 of an edge lies inside; a NaN coordinate, or any point
    of an array argument beyond the tolerance, lies outside."""
    d = DomainSpec(0.0, 1.0, 0.0, 1.0)
    assert d.contains(1.0 + 1e-12, -1e-12)
    assert not d.contains(1.0 + 3e-12, 0.5) and not d.contains(0.5, -3e-12)
    assert not d.contains(math.nan, 0.5) and not d.contains(0.5, math.nan)
    assert d.contains(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0]]))
    assert not d.contains(np.array([0.0, 1.5]), 0.5)
    assert not d.contains(np.array([0.5, 0.5]), np.array([0.5, math.nan]))


def test_domain_base_defaults_to_lower_left(unit_square):
    assert unit_square.base == Point(0.0, 0.0)
    d = DomainSpec(-1.0, 2.0, 3.0, 4.0)
    assert d.base == Point(-1.0, 3.0)


def test_expr_field_exact_derivatives(unit_square):
    f = ExprField(unit_square, "exp(0.6*x + 0.8*y)")
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(f.dx()(xg, yg), 0.6 * f(xg, yg), rtol=1e-13)
    np.testing.assert_allclose(f.dy()(xg, yg), 0.8 * f(xg, yg), rtol=1e-13)


def test_wirtinger_of_analytic_field(centered_square):
    """exp(z) has d_zbar = 0 and d_z = itself, machine-exactly for expressions."""
    W = ComplexField(
        ExprField(centered_square, ex.Exp(ex.X) * ex.Cos(ex.Y)),
        ExprField(centered_square, ex.Exp(ex.X) * ex.Sin(ex.Y)),
    )
    assert max_abs(d_zbar(W)) < 1e-13
    assert max_abs(d_z(W) - W) < 1e-13


def test_laplacian_equals_four_dzbar_dz(unit_square):
    u = ExprField(unit_square, "sin(x)*cosh(y) + x**3")
    dz = d_z(u)
    four = 4.0 * d_zbar(dz).re
    assert max_abs(laplacian(u) - four) < 1e-12


@given(a=st.floats(-1.2, 1.2), b=st.floats(-1.2, 1.2))
@settings(max_examples=40, deadline=None)
def test_wirtinger_split_recombines(a, b):
    """d_z + d_zbar = d_x and i(d_z - d_zbar) = d_y on a generic field."""
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, 21, 21)
    u = ExprField(dom, ex.Exp(ex.Const(a) * ex.X) * ex.Cos(ex.Const(b) * ex.Y))
    dz, dzbar = d_z(u), d_zbar(u)
    xg, yg = dom.mesh()
    got_dx = (dz + dzbar)(xg, yg)
    got_dy = (1j * (dz - dzbar))(xg, yg)
    np.testing.assert_allclose(got_dx.real, u.dx()(xg, yg), atol=1e-12)
    np.testing.assert_allclose(got_dx.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(got_dy.real, u.dy()(xg, yg), atol=1e-12)


_COEFF = st.floats(-1.5, 1.5)


@given(c0=_COEFF, c1=_COEFF, c2=_COEFF, c3=_COEFF)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_complex_algebra_matches_numpy(c0, c1, c2, c3):
    """Field arithmetic, conjugate, |.|^2 and the Wirtinger derivatives agree with
    numpy's complex arithmetic; the parts of ComplexField(a, b) are a's and b's trees."""
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, 21, 21)
    a = ExprField(dom, ex.Exp(ex.Const(c0) * ex.X + ex.Const(c1) * ex.Y))
    b = ExprField(dom, ex.Sin(ex.Const(c2) * ex.X) * ex.Cosh(ex.Const(c3) * ex.Y))
    p = ExprField(dom, ex.Cosh(ex.Const(c3) * ex.X))
    q = ExprField(dom, ex.Exp(ex.Const(c2) * ex.Y) * ex.Sin(ex.Const(c0) * ex.X))
    P, R = ComplexField(a, b), ComplexField(p, q)
    assert P.re.expr is a.expr and P.im.expr is b.expr
    x, y = dom.mesh()
    pv = np.exp(c0 * x + c1 * y) + 1j * np.sin(c2 * x) * np.cosh(c3 * y)
    rv = np.cosh(c3 * x) + 1j * np.exp(c2 * y) * np.sin(c0 * x)
    pv_x = c0 * np.exp(c0 * x + c1 * y) + 1j * c2 * np.cos(c2 * x) * np.cosh(c3 * y)
    pv_y = c1 * np.exp(c0 * x + c1 * y) + 1j * c3 * np.sin(c2 * x) * np.sinh(c3 * y)
    pairs = [
        (P + R, pv + rv),
        (P - R, pv - rv),
        (P * R, pv * rv),
        (P / R, pv / rv),
        (P.conj(), np.conj(pv)),
        (P.abs2(), np.abs(pv) ** 2),
        (d_z(P), 0.5 * (pv_x - 1j * pv_y)),
        (d_zbar(P), 0.5 * (pv_x + 1j * pv_y)),
    ]
    for field, want in pairs:
        np.testing.assert_allclose(field.sample(), want, rtol=1e-12)
        assert field.sample().dtype == (np.float64 if field.expr.is_real else np.complex128)


def grid_of(expr_text, n):
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n)
    return ExprField(dom, expr_text).to_grid()


def test_grid_field_fd_order_two():
    """Halving h shrinks the first-derivative error by about 4."""
    errs = []
    for n in (17, 33, 65):
        g = grid_of("sin(2*x)*cosh(y)", n)
        exact = ExprField(g.domain, "2*cos(2*x)*cosh(y)")
        xg, yg = g.domain.mesh()
        errs.append(float(np.max(np.abs(g.dx()(xg, yg) - exact(xg, yg)))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_grid_laplacian_order_two():
    errs = []
    for n in (17, 33, 65):
        g = grid_of("exp(x)*cos(y) + x**4", n)
        exact = ExprField(g.domain, "12*x**2")
        xg, yg = g.domain.mesh()
        errs.append(float(np.max(np.abs(laplacian(g).sample() - exact(xg, yg)))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_grid_bilinear_interpolation_exact_on_bilinear():
    g = grid_of("2 + 3*x - y + 0.5*x*y", 11)
    xs = np.array([0.123, 0.77, 0.981])
    ys = np.array([0.05, 0.5, 0.87])
    want = 2 + 3 * xs - ys + 0.5 * xs * ys
    np.testing.assert_allclose(g(xs, ys), want, rtol=1e-13)


def given(fn, dx=lambda: ex.ZERO, dy=lambda: ex.ZERO):
    return ex.Given(fn, dx, dy, "given")


def test_given_leaf_exact_partials(unit_square):
    rule = lambda x, y: np.exp(x) * np.cos(y)
    dy_rule = lambda x, y: -np.exp(x) * np.sin(y)
    f = ExprField(unit_square, given(rule, dx=lambda: given(rule), dy=lambda: given(dy_rule)))
    assert max_abs(f.dx() - f) < 1e-13
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(f.dy()(xg, yg), -np.exp(xg) * np.sin(yg), atol=1e-13)
    assert str(f.expr) == "given"  # fixed text, never an object address


def test_grid_reached_twice_is_one_leaf(monkeypatch):
    """A grid is one leaf however often it enters a tree: its differences are taken once."""
    calls = []
    fd1 = field_module._fd1
    monkeypatch.setattr(field_module, "_fd1", lambda *a, **k: calls.append(1) or fd1(*a, **k))
    g = grid_of("sin(x) + y**2", 9)
    twice = g + g
    assert twice.expr.a is twice.expr.b is g.expr
    z = ComplexField(g, g)
    z.dx().sample()
    z.dy().sample()
    assert len(calls) == 2  # one per partial


def test_gradient_norm_ratio_of_a_grid_differences_once_per_axis(monkeypatch):
    """f.dx() and f.dy() each reached twice are one leaf each: 2 differences, not 4."""
    calls = []
    fd1 = field_module._fd1
    monkeypatch.setattr(field_module, "_fd1", lambda *a, **k: calls.append(1) or fd1(*a, **k))
    g = grid_of("exp(x) * cos(y)", 41)
    gradient_norm_ratio(g).sample()
    assert len(calls) == 2


def test_grid_second_derivatives_are_order_two_on_the_whole_rectangle():
    """d_zbar(u/f) f^2 of a grid u differentiates u twice in the compatibility
    gate; one stencil per order keeps its error O(h^2) up to the edges."""
    ns = (21, 41, 81)
    errs = []
    for n in ns:
        dom = DomainSpec(0.0, 1.0, 0.0, 1.0, n, n)
        u = ExprField(dom, "exp(0.6*x + 0.8*y)").to_grid()
        f = ExprField(dom, "exp(x)")
        errs.append(compatibility_check(1j * (d_zbar(u / f) * (f * f))))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert min(orders) >= 1.7, (errs, orders)


def test_arithmetic_combinations(unit_square):
    a = ExprField(unit_square, "x + 1")
    b = ExprField(unit_square, "y + 2")
    combos = [a + b, a - b, a * b, a / b, 2.0 * a, a + 1.0, -a, 1.0 / b]
    xg, yg = unit_square.mesh()
    av, bv = xg + 1, yg + 2
    wants = [av + bv, av - bv, av * bv, av / bv, 2 * av, av + 1, -av, 1 / bv]
    for f, w in zip(combos, wants):
        np.testing.assert_allclose(f(xg, yg), w, rtol=1e-13)
        assert isinstance(f, ExprField)  # expression algebra stays symbolic


def test_mixed_backend_combination_keeps_derivatives(unit_square):
    a = ExprField(unit_square, "x**2")
    minus_sin = ex.parse_expression("0-sin(y)")
    b = ExprField(unit_square, given(lambda x, y: np.cos(y), dy=lambda: minus_sin))
    prod = a * b
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(prod.dx()(xg, yg), 2 * xg * np.cos(yg), atol=1e-12)
    np.testing.assert_allclose(prod.dy()(xg, yg), -(xg**2) * np.sin(yg), atol=1e-12)


def test_exp_field_chain_rule(unit_square):
    g = exp_field(ExprField(unit_square, "x*y"))
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(g.dx()(xg, yg), yg * np.exp(xg * yg), rtol=1e-12)
    np.testing.assert_allclose(g.dy()(xg, yg), xg * np.exp(xg * yg), rtol=1e-12)


def test_complex_field_algebra(unit_square):
    z = ComplexField(ExprField(unit_square, "x"), ExprField(unit_square, "y"))
    w = constant_field(complex(0.3, -0.4), unit_square)
    xg, yg = unit_square.mesh()
    zv = xg + 1j * yg
    np.testing.assert_allclose((z * w)(xg, yg), zv * complex(0.3, -0.4), rtol=1e-13)
    shifted = z + constant_field(2.0, unit_square)
    np.testing.assert_allclose((z / shifted)(xg, yg), zv / (zv + 2), rtol=1e-12)
    np.testing.assert_allclose(z.conj()(xg, yg), np.conj(zv), rtol=1e-13)
    np.testing.assert_allclose(z.abs2()(xg, yg), np.abs(zv) ** 2, rtol=1e-13)
    np.testing.assert_allclose((1j * z)(xg, yg), 1j * zv, rtol=1e-13)


def test_real_field_on_the_left_of_mixed_arithmetic(unit_square):
    """A real field combined with a complex field or number gives a complex field."""
    f = ExprField(unit_square, "x+2")
    Q = ComplexField(ExprField(unit_square, "y+1"), ExprField(unit_square, "x"))
    xg, yg = unit_square.mesh()
    fv, qv = xg + 2, yg + 1 + 1j * xg
    for got, want in [(f * Q, fv * qv), (f + Q, fv + qv), (f - Q, fv - qv), (f / Q, fv / qv),
                      (f * 1j, fv * 1j)]:
        assert not got.expr.is_real and got(xg, yg).dtype == np.complex128
        np.testing.assert_allclose(got(xg, yg), want, rtol=1e-13)
    for field in (f, Q):
        with pytest.raises(TypeError):
            field * "a"


def test_samples_are_real_or_complex_as_the_tree_is(unit_square):
    """One field class: float64 samples and a float value for a real tree,
    complex128 and a complex value for a complex one."""
    f = ExprField(unit_square, "x*y + 1")
    Q = f + 1j * f
    at = Point(0.5, 0.5)
    assert f.sample().dtype == np.float64 and type(f.evaluate(at)) is float
    assert Q.sample().dtype == np.complex128 and type(Q.evaluate(at)) is complex
    assert Q.re.sample().dtype == np.float64 and Q.conj().sample().dtype == np.complex128
    assert Q.abs2().sample().dtype == np.float64
    assert constant_field(2.0, unit_square).sample().dtype == np.float64
    assert constant_field(0.5j, unit_square).sample().dtype == np.complex128


def test_complex_field_with_zero_imaginary_part_folds_to_a_real_field(unit_square):
    a = ExprField(unit_square, "exp(x) * cos(y)")
    w = ComplexField(a, 0 * a)
    assert w.expr.is_real and w.re.expr is a.expr
    assert w.sample().dtype == np.float64
    np.testing.assert_array_equal(w.sample(), a.sample())


def test_complex_field_has_no_grid(unit_square):
    """A grid holds real samples; a complex field's would lose the imaginary part."""
    Q = ComplexField(ExprField(unit_square, "x"), ExprField(unit_square, "y"))
    with pytest.raises(ParameterError):
        Q.to_grid()
    np.testing.assert_array_equal(Q.im.to_grid().values, ExprField(unit_square, "y").sample())


def test_fields_on_different_rectangles_do_not_combine():
    """x on [0,2]^2 plus x on [0,1]^2 has no value at (2, 2); it used to read 3.0."""
    g1 = ExprField(DomainSpec(0.0, 1.0, 0.0, 1.0), "x")
    g2 = ExprField(DomainSpec(0.0, 2.0, 0.0, 2.0), "x")
    rects = r"\[0.0, 2.0\] x \[0.0, 2.0\] and \[0.0, 1.0\] x \[0.0, 1.0\]"
    for a, b in [(g2.to_grid(), g1.to_grid()), (g2, g1), (d_z(g2), g1)]:
        with pytest.raises(DomainError, match=rects):
            a + b


def test_gradient_norm_ratio(unit_square):
    f = ExprField(unit_square, "exp(x)")
    assert max_abs(gradient_norm_ratio(f) - constant_field(1.0, unit_square)) < 1e-12
    with pytest.raises(NonvanishingError):
        gradient_norm_ratio(ExprField(unit_square, "x - 0.5"))


def test_check_nonvanishing(unit_square):
    check_nonvanishing(ExprField(unit_square, "x + 1"), "f")
    with pytest.raises(NonvanishingError) as err:
        check_nonvanishing(ExprField(unit_square, "x*y"), "f")
    assert "f" in str(err.value)


def test_a_sign_change_between_samples_fails_the_gate(unit_square):
    """x - 0.51 is at least 0.01 at every node, but it changes sign between x = 0.5
    and 0.525: a real field that does so has a zero there, and the gate names it."""
    with pytest.raises(NonvanishingError) as err:
        check_nonvanishing(ExprField(unit_square, "x - 0.51"), "f")
    check = err.value.check
    assert (check.what, check.value, check.limit, check.passed) == ("f", 0.0, 1e-10, False)
    assert check.at == pytest.approx((0.51, 0.0), abs=1e-12)
    xg, yg = unit_square.mesh()  # samples as an array, a sign change along y
    with pytest.raises(ZeroSetError) as err:
        field_module.require_above(yg - 0.51, 1e-8, ZeroSetError, "g", (xg, yg))
    check = err.value.check
    assert (check.what, check.value, check.limit, check.passed) == ("g", 0.0, 1e-8, False)
    assert check.at == pytest.approx((0.0, 0.51), abs=1e-12)
    check_nonvanishing(ExprField(unit_square, "x + 0.01"), "f")  # no sign change
    check_nonvanishing(ExprField(unit_square, "x - 0.51") + 1j, "f")  # complex: |f| >= 1


_BLOCK = field_module._BLOCK_POINTS
# below, at and above one block; a row wider than a block; a column of many blocks
_MESHES = [(41, 41), (128, 64), (128, 65), (161, 161), (_BLOCK + 5, 3), (3, 3 * _BLOCK)]


def _gated_trees(name: str):
    """A field of each kind that a gate reduces: a closed form with a quotient, a
    complex one, an op_Abar leaf, a grid leaf, a field of x alone, a constant."""
    d = DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41)
    closed = ExprField(d, "exp(0.6*x + 0.8*y)*sin(3*x) / (2 + cos(5*y))")
    if name == "op_Abar":
        leaf = op_Abar(d_zbar(ExprField(d, "sin(2*x)*cosh(y)")), AntiderivativeConfig(d.base))
        return leaf * closed - leaf.dx()
    if name == "grid":
        grid = ExprField(d, "x*x - y*y + 2*x*y").to_grid()
        return grid * grid.dx() + ExprField(d, "y")
    return {
        "closed": closed,
        "complex": d_z(closed) + 1j * closed,
        "x alone": ExprField(d, "sin(5*x)"),
        "constant": constant_field(2.5, d),
    }[name]


@hypothesis.given(  # ``given`` above is a leaf
    mesh=st.one_of(st.sampled_from(_MESHES), st.tuples(st.integers(3, 300), st.integers(3, 300))),
    margin=st.integers(0, 2),
    name=st.sampled_from(["closed", "complex", "op_Abar", "grid", "x alone", "constant"]),
)
@hypothesis.example(mesh=(161, 161), margin=0, name="op_Abar")
@hypothesis.example(mesh=(_BLOCK + 5, 3), margin=0, name="grid")
@settings(max_examples=40, deadline=None, derandomize=True)
def test_blocked_max_abs_has_the_bits_of_the_whole_mesh(mesh, margin, name):
    """max_abs reduces blocks of at most _BLOCK_POINTS points that cover the mesh
    once, and gives the bits of max |f| over the whole mesh evaluated at once; a
    constant is evaluated once."""
    nx, ny = mesh
    assume(2 * margin < min(nx, ny))
    f = _gated_trees(name)
    xs, ys = f.domain.axes(nx, ny, margin)
    whole = np.max(np.abs(ex.evaluate(f.expr, xs, ys)))
    blocks, evaluate = [], ex.evaluate

    def counting(expr, x, y, *leaves):
        if expr is f.expr:
            blocks.append(x.size * y.size)
        return evaluate(expr, x, y, *leaves)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex, "evaluate", counting)
        got = max_abs(f, nx, ny, margin)
    assert got == whole and not math.isnan(got)
    if name == "constant":
        assert len(blocks) == 1
    else:
        assert sum(blocks) == xs.size * ys.size
        assert max(blocks) <= _BLOCK


def test_a_blocked_gate_samples_each_leaf_once_on_the_whole_mesh():
    """A leaf's values come from one call on the whole mesh, sliced per block: a
    leaf's quadrature partition depends on all the rows it is asked at."""
    d = DomainSpec(0.0, 1.0, 0.0, 1.0, 161, 161)
    shapes = []
    leaf = given(lambda x, y: shapes.append(np.broadcast(x, y).shape) or np.sin(x) * y)
    f = ExprField(d, leaf)
    assert max_abs(f * f + f) == pytest.approx(math.sin(1.0) ** 2 + math.sin(1.0), rel=1e-15)
    assert shapes == [(161, 161)]


def test_a_nan_in_the_last_block_fails_the_gate():
    """A NaN that only the last block holds fails the gate: Python's max() over the
    block maxima would drop it, as NaN never compares greater.  exp(760 y) overflows
    from y = 0.934 on, the last 11 rows of a 161^2 mesh, whose blocks have 50 rows;
    a leaf sampled on the whole mesh carries its NaN into the last block too."""
    d = DomainSpec(0.0, 1.0, 0.0, 1.0, 161, 161)
    assert _BLOCK // 161 == 50
    last_row = given(lambda x, y: np.where(y == 1.0, np.nan, x * y))
    for f in (ExprField(d, "sin(exp(760*y))"), ExprField(d, last_row)):
        with np.errstate(over="ignore", invalid="ignore"):
            ys = d.axes()[1][:150]
            assert np.isfinite(ex.evaluate(f.expr, d.axes()[0], ys)).all()
            with pytest.raises(NotASolutionError) as err:
                field_module.require_at_most(f, 1e300, NotASolutionError, "f")
        assert math.isnan(err.value.check.value)


def test_a_blocked_gate_names_the_first_singular_denominator_in_plan_order():
    """1/(y - 1) + 1/y checks y - 1 first, and it vanishes only on the last row;
    y, checked later, vanishes on the first row, so the first block alone names y.
    The blocked reduction names y - 1, as the whole mesh evaluated at once does."""
    d = DomainSpec(0.0, 1.0, 0.0, 1.0, 161, 161)
    f = ExprField(d, "1/(y - 1) + 1/y")
    xs, ys = d.axes()
    with pytest.raises(SingularityError, match=r"^denominator y has"):
        ex.evaluate(f.expr, xs, ys[: _BLOCK // 161])
    with pytest.raises(SingularityError) as whole:
        ex.evaluate(f.expr, xs, ys)
    assert str(whole.value).startswith("denominator (y + -1.0) ")
    with pytest.raises(SingularityError) as blocked:
        max_abs(f)
    assert str(blocked.value) == str(whole.value)


def test_axes_are_built_once_and_read_only(unit_square):
    """The axes of one (nx, ny, margin) are one read-only pair, kept on the rectangle."""
    xs, ys = unit_square.axes()
    assert unit_square.axes(41, 41, 0) is unit_square.axes() and unit_square.axes()[0] is xs
    assert xs.shape == (1, 41) and ys.shape == (41, 1)
    assert not xs.flags.writeable and not ys.flags.writeable
    assert unit_square.axes(margin=2)[1].shape == (37, 1)
    with pytest.raises(ResolutionError):
        unit_square.axes(margin=21)


def test_grid_csv_roundtrip(tmp_path, unit_square):
    g = ExprField(unit_square, "sin(x) + y**2").to_grid()
    path = tmp_path / "field.csv"
    write_grid_csv(path, g)
    back = read_grid_csv(path)
    assert back.domain.nx == g.domain.nx and back.domain.ny == g.domain.ny
    np.testing.assert_allclose(back.values, g.values, rtol=1e-15)

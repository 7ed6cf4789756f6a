"""Contours, line integrals, compatibility checks, antiderivative operators."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from riccati2d import (
    AntiderivativeConfig,
    CompatibilityError,
    ComplexField,
    Contour,
    ContourError,
    DomainSpec,
    ExprField,
    ParameterError,
    Point,
    QuadratureError,
    compatibility_check,
    constant_field,
    d_z,
    line_integral_dz,
    max_abs,
    op_A,
    op_Abar,
)
from riccati2d import expressions as ex
from riccati2d import quadrature
from riccati2d.cli import parse_config, run
from riccati2d.quadrature import _K15_NODES, _K15_WEIGHTS


def z_conj(domain):
    return ComplexField(ExprField(domain, ex.X), ExprField(domain, -ex.Y))


def test_circle_requires_enough_nodes():
    with pytest.raises(ContourError):
        Contour.circle(0, 0, 1, 8)


def test_polyline_closed_detection():
    closed = Contour.polyline([(0, 0), (1, 0), (1, 1), (0, 0)])
    open_ = Contour.polyline([(0, 0), (1, 0), (1, 1)])
    assert closed.closed and not open_.closed


def test_conjugate_integral_gives_twice_area(centered_square):
    """The classic non-analytic benchmark: int conj(z) dz = 2i * enclosed area."""
    g = z_conj(centered_square)
    r = 0.8
    got = line_integral_dz(g, Contour.circle(0, 0, r, 256))
    assert got == pytest.approx(2j * math.pi * r**2, abs=1e-12)
    square = Contour.polyline([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert line_integral_dz(g, square) == pytest.approx(2j, abs=1e-12)


def test_analytic_integral_vanishes(centered_square):
    g = ComplexField(
        ExprField(centered_square, ex.Exp(ex.X) * ex.Cos(ex.Y)),
        ExprField(centered_square, ex.Exp(ex.X) * ex.Sin(ex.Y)),
    )
    got = line_integral_dz(g, Contour.circle(0.1, -0.2, 0.7, 256))
    assert abs(got) < 1e-13


def test_line_integral_against_greens_theorem(centered_square):
    """int conj(z) e^x dz over the unit circle, cross-checked by Green's theorem.

    For g = P + iQ: int g dz = int (P dx - Q dy) + i int (Q dx + P dy), and
    each real line integral converts to a double integral of a curl.
    """
    g = ComplexField(
        ExprField(centered_square, ex.X * ex.Exp(ex.X)),
        ExprField(centered_square, -ex.Y * ex.Exp(ex.X)),
    )
    got = line_integral_dz(g, Contour.circle(0, 0, 1, 512))

    def inside(fn):
        val, _ = integrate.dblquad(
            lambda t, r: fn(r * math.cos(t), r * math.sin(t)) * r,
            0, 1, 0, 2 * math.pi, epsabs=1e-12, epsrel=1e-12,
        )
        return val

    # curl terms: real part -(Q_x + P_y), imaginary part P_x - Q_y
    want_re = inside(lambda x, y: -(-y * np.exp(x)) - 0.0)
    want_im = inside(lambda x, y: (1 + x) * np.exp(x) - (-np.exp(x)))
    assert got.real == pytest.approx(want_re, abs=1e-10)
    assert got.imag == pytest.approx(want_im, abs=1e-10)


def test_trapezoid_doubling_converges(centered_square):
    """At least x4 reduction per node doubling until the 1e-12 floor."""
    g = z_conj(centered_square) * ComplexField(
        ExprField(centered_square, ex.Exp(ex.Const(6.0) * ex.X)),
        ExprField(centered_square, ex.ZERO),
    )
    ref = line_integral_dz(g, Contour.circle(0, 0, 1, 4096))
    errs = [
        abs(line_integral_dz(g, Contour.circle(0, 0, 1, n)) - ref) for n in (16, 32, 64)
    ]
    assert errs[0] > 1e-10  # the coarse level is above the floor, so ratios mean something
    for coarse, fine in zip(errs, errs[1:]):
        if coarse < 1e-12:
            break
        assert coarse / max(fine, 1e-16) > 4.0


def test_point_value_vs_scipy():
    """op_A of Phi = (g(x), 0) at one point is 2 int_0^x g."""
    domain = DomainSpec(0.0, 3.0, 0.0, 1.0, 5, 5, Point(0.0, 0.0))
    Phi = ComplexField(ExprField(domain, "exp(-x**2)*cos(3*x)"), ExprField(domain, ex.ZERO))
    got = op_A(Phi, AntiderivativeConfig(domain.base)).evaluate(Point(2.5, 0.3))
    want, _ = integrate.quad(lambda s: math.exp(-(s**2)) * math.cos(3 * s), 0.0, 2.5)
    assert got == pytest.approx(2.0 * want, abs=1e-12)


def test_k15_is_exact_to_degree_22():
    assert np.all(_K15_WEIGHTS > 0)
    assert np.sum(_K15_WEIGHTS) == pytest.approx(2.0, rel=0, abs=1e-14)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(_K15_WEIGHTS * _K15_NODES**k) == pytest.approx(exact, rel=0, abs=1e-14)


def _leaf_of(fn, domain, base=Point(0.0, 0.0)):
    """op_A of Phi = (fn(x, y), 0): a Given leaf with zero partials passes the
    compatibility check without being evaluated."""
    zero = lambda: ex.Const(0.0)
    Phi = ComplexField(ExprField(domain, ex.Given(fn, zero, zero, "g")), ExprField(domain, ex.ZERO))
    return op_A(Phi, AntiderivativeConfig(base))


def test_non_finite_estimate_raises_at_the_first_level(unit_square, monkeypatch):
    """One round of nodes, and no inf - inf is taken (numpy's RuntimeWarning is an
    error in this suite)."""
    leaf = _leaf_of(lambda x, y: np.where(x + 0.0 * y > 0.5, np.inf, 1.0), unit_square)
    points = _count_integrand(monkeypatch)
    with pytest.raises(QuadratureError, match="non-finite value at 1 panels"):
        leaf(np.ones(3), np.array([0.2, 0.5, 0.7]))
    assert points == [15 * 3]


def test_settled_points_leave_the_failure_unchanged(unit_square):
    """A point that settles neither hides nor alters the failure of one that
    never settles: the panel cap counts each point's own panels, so the message
    is the one the failing point gives alone."""
    leaf = _leaf_of(lambda x, y: np.sin(1e7 * x) + 0.0 * y, unit_square)
    with pytest.raises(QuadratureError, match="within 16384 panels") as alone:
        leaf.evaluate(Point(1.0, 0.5))
    with pytest.raises(QuadratureError) as batch:
        leaf(np.array([1e-9, 1.0, 0.0]), np.array([0.5, 0.5, 0.25]))
    assert str(batch.value) == str(alone.value)


def test_rows_that_took_their_panels_ignore_values_they_do_not_need(unit_square):
    """With the base at x = 0.5, a point right of it needs no panel left of it.
    An infinite integrand there, on its line, is evaluated (the batch's other
    point needs that panel on its own line) but raises nothing and warns
    nothing, and the value is the one the point has alone."""
    fn = lambda x, y: np.where((x < 0.5) & (y > 0.5), np.inf, np.cos(3.0 * x + y))
    leaf = _leaf_of(fn, unit_square, Point(0.5, 0.0))
    alone = leaf.evaluate(Point(0.8, 0.9))
    assert leaf(np.array([0.8, 0.1]), np.array([0.9, 0.1]))[0] == alone
    assert alone == pytest.approx(2.0 * (math.sin(3.3) - math.sin(2.4)) / 3.0, abs=1e-12)


def test_non_finite_target_raises():
    """A point or a mesh column at a NaN abscissa raises instead of taking, or
    giving the rest of its batch, the value of another target."""
    _, A = _phi_antiderivative(41)
    with pytest.raises(QuadratureError, match="non-finite target"):
        A(np.array([np.nan, 1.5]), np.array([1.0, 2.0]))
    with pytest.raises(QuadratureError, match="non-finite target"):
        A(np.array([[0.5, np.nan]]), np.array([[1.0], [2.0]]))


def test_compatibility_check_pass_and_fail(unit_square):
    """The one condition d_y Phi1 - d_x Phi2 = 0 gates op_Abar of Phi, and op_A of
    Phi through conj(Phi): y + ix passes the first and fails the second."""
    ok = ComplexField(ExprField(unit_square, ex.X), ExprField(unit_square, ex.ZERO))
    assert compatibility_check(ok) < 1e-14
    bad = ComplexField(ExprField(unit_square, ex.Y), ExprField(unit_square, ex.ZERO))
    assert compatibility_check(bad) == pytest.approx(1.0)
    cfg = AntiderivativeConfig(Point(0, 0))
    with pytest.raises(CompatibilityError):
        op_Abar(bad, cfg)
    mixed = ComplexField(ExprField(unit_square, ex.Y), ExprField(unit_square, ex.X))
    assert compatibility_check(mixed) == 0.0
    assert compatibility_check(mixed.conj()) == pytest.approx(2.0)
    op_Abar(mixed, cfg)
    with pytest.raises(CompatibilityError):
        op_A(mixed, cfg)


def _evaluated_sizes(monkeypatch):
    """A list that collects the size of every value ``expressions.evaluate`` returns."""
    sizes = []
    evaluate = ex.evaluate

    def counting(*args):
        out = evaluate(*args)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(ex, "evaluate", counting)
    return sizes


def test_cancelling_compatibility_residual_is_not_sampled(monkeypatch):
    """For Phi = d_z phi the residual of conj(Phi) is phi_xy - phi_yx; where the
    two mixed partials are one node, it folds to ZERO and op_A's gate evaluates
    one number instead of the mesh, with the same tolerance and the same error."""
    domain = DomainSpec(0.0, 3.0, 0.0, 3.0, 201, 201, Point(0.0, 0.0))
    Phi = d_z(ExprField(domain, "sin(7*x)*cosh(3*y) + x*cos(9*y)"))
    assert (Phi.conj().re.dy() - Phi.conj().im.dx()).expr is ex.ZERO
    sizes = _evaluated_sizes(monkeypatch)
    assert compatibility_check(Phi.conj()) == 0.0
    op_A(Phi, AntiderivativeConfig(domain.base))
    assert sizes == [1, 1]
    # exp(0.6x + 0.8y): (e 0.8) 0.6 against (e 0.6) 0.8 round apart, so it is sampled
    sizes.clear()
    op_A(d_z(ExprField(domain, "exp(0.6*x + 0.8*y)")), AntiderivativeConfig(domain.base))
    assert sizes == [201 * 201]
    bad = ComplexField(ExprField(domain, ex.Y), ExprField(domain, ex.ZERO))
    with pytest.raises(CompatibilityError, match="casirot"):
        op_Abar(bad, AntiderivativeConfig(domain.base))


def test_darboux_gate_plans_share_equal_subtrees(monkeypatch):
    """The darboux-mesh benchmark's 161^2 op: interned nodes make the plans of the
    two compatibility gates 81 and 166 steps long (110 and 230 without interning)."""
    steps = []
    max_abs_ = quadrature.max_abs
    monkeypatch.setattr(
        quadrature, "max_abs", lambda f: steps.append(len(f.expr._plan)) or max_abs_(f)
    )
    text = (
        "case = darboux\ndomain = 0 1 0 1 161 161\n"
        "u = exp(0.6394636980817737*x + 0.7688212918719032*y)\n"
        "f = exp(0.7907395085077042*x + -0.6121527829594458*y)\n"
    )
    assert run(parse_config(text))["overall_pass"]
    assert len(steps) == 2 and steps[0] <= 81 and steps[1] <= 166


def test_base_outside_the_rectangle_raises(unit_square):
    """The L-path from a base outside Phi's rectangle leaves it, where a grid leaf
    is clamped: x*y + 0.5 on [0, 1]^2 with base (5, 5) read -6.75 at (0.5, 0.5)
    against the closed form's -24.75."""
    g = ExprField(unit_square, "x*y + 0.5").to_grid()
    cfg = AntiderivativeConfig(Point(5.0, 5.0))
    for op, name in ((op_A, "op_A"), (op_Abar, "op_Abar")):
        with pytest.raises(ParameterError, match=f"{name}: base point .* outside the rectangle"):
            op(d_z(g), cfg)


def test_abar_constant_imaginary_gives_y(unit_square):
    """Abar of the constant i/2 is the coordinate y."""
    cfg = AntiderivativeConfig(unit_square.base)
    phi = op_Abar(constant_field(0.5j, unit_square), cfg)
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(phi(xg, yg), yg, atol=1e-12)


def test_abar_exponential_example(unit_square):
    """Abar((-0.4 - 0.2i) e^{1.6x + 0.8y}) = -0.5 e^{1.6x+0.8y} + 0.5 with c = 0."""
    cfg = AntiderivativeConfig(unit_square.base)
    envelope = ex.Exp(ex.Const(1.6) * ex.X + ex.Const(0.8) * ex.Y)
    Phi = ComplexField(
        ExprField(unit_square, ex.Const(-0.4) * envelope),
        ExprField(unit_square, ex.Const(-0.2) * envelope),
    )
    phi = op_Abar(Phi, cfg)
    want = ExprField(unit_square, ex.Const(-0.5) * envelope + ex.Const(0.5))
    assert max_abs(phi - want) < 1e-11


def test_a_constant_example(unit_square):
    """A(0.3 - 0.4i) = 0.6x + 0.8y (the d_z antiderivative of a constant)."""
    cfg = AntiderivativeConfig(unit_square.base)
    phi = op_A(constant_field(complex(0.3, -0.4), unit_square), cfg)
    xg, yg = unit_square.mesh()
    np.testing.assert_allclose(phi(xg, yg), 0.6 * xg + 0.8 * yg, atol=1e-12)


def test_abar_partials_are_exact(unit_square):
    cfg = AntiderivativeConfig(unit_square.base)
    envelope = ex.Exp(ex.Const(1.6) * ex.X + ex.Const(0.8) * ex.Y)
    Phi = ComplexField(
        ExprField(unit_square, ex.Const(-0.4) * envelope),
        ExprField(unit_square, ex.Const(-0.2) * envelope),
    )
    phi = op_Abar(Phi, cfg)
    assert max_abs(phi.dx() - 2.0 * Phi.re) < 1e-14
    assert max_abs(phi.dy() - 2.0 * Phi.im) < 1e-14


def test_constant_c_offsets_result(unit_square):
    """The operators vanish at the base; a constant c is added to their field."""
    cfg = AntiderivativeConfig(unit_square.base)
    phi = op_Abar(constant_field(0.5j, unit_square), cfg)
    assert phi.evaluate(Point(0.0, 0.0)) == 0.0
    assert (phi + 3.5).evaluate(Point(0.0, 0.0)) == 3.5
    assert (phi + 3.5).evaluate(Point(0.3, 0.6)) == pytest.approx(4.1, abs=1e-12)


def test_a_point_takes_its_own_panels(unit_square, monkeypatch):
    """cos((1 + 40y) x) is smooth on the line y = 0 and oscillates on y = 1.  Beside
    a point on y = 1, a point on y = 0 keeps the one panel certified for it, bit
    for bit, and its line is not evaluated again: the batch takes the points of
    the two points alone."""
    leaf = _leaf_of(lambda x, y: np.cos((1.0 + 40.0 * y) * x), unit_square)
    points = _count_integrand(monkeypatch)
    smooth, smooth_points = leaf.evaluate(Point(0.9, 0.0)), sum(points)
    points.clear()
    leaf.evaluate(Point(0.9, 1.0))
    alone = smooth_points + sum(points)
    points.clear()
    assert leaf(np.array([0.9, 0.9]), np.array([0.0, 1.0]))[0] == smooth
    assert smooth_points == 15 and sum(points) == alone
    assert smooth == pytest.approx(2.0 * math.sin(0.9), abs=1e-14)


def test_path_independence(unit_square):
    """Explicit polyline paths reproduce the L-path values for compatible forms:
    op_Abar[Phi] + c = 2 Re int conj(Phi) dz + c and op_A[Phi] + c = 2 Re int Phi dz + c
    along any path from the base."""
    cfg, c = AntiderivativeConfig(unit_square.base), 0.5
    envelope = ex.Exp(ex.Const(1.6) * ex.X + ex.Const(0.8) * ex.Y)
    Phi = ComplexField(
        ExprField(unit_square, ex.Const(-0.4) * envelope),
        ExprField(unit_square, ex.Const(-0.2) * envelope),
    )
    d_z_phi = d_z(ExprField(unit_square, "exp(1.6*x + 0.8*y)*cos(x - 2*y)"))
    end = (0.9, 0.7)
    for leaf, form in ((op_Abar(Phi, cfg) + c, Phi.conj()), (op_A(d_z_phi, cfg) + c, d_z_phi)):
        want = leaf.evaluate(Point(*end))
        for waypoints in (
            [(0, 0), end],
            [(0, 0), (0.9, 0.0), end],
            [(0, 0), (0.2, 0.65), (0.5, 0.1), end],
        ):
            path = Contour.polyline(waypoints, n_per_segment=64)
            got = 2.0 * line_integral_dz(form, path).real + c
            assert got == pytest.approx(want, abs=1e-9)


def test_vanishing_partial_skips_quadrature(monkeypatch):
    """With Im Q = 0 the y-partial of exp(A[Q]) folds to zero: no quadrature runs."""
    from riccati2d import exp_family, exp_field

    points = _count_integrand(monkeypatch)
    sol = exp_family(1.0, 0.0)
    u = exp_field(op_A(sol.Q, sol.problem().cfg))
    assert max_abs(u.dy()) == 0.0
    assert points == []


def test_nested_leaf_at_its_base_evaluates_nothing(monkeypatch):
    """Both segments of the L-path to the base have zero length: a nested leaf
    there is exactly 0.0, so the leaf plus c is c, no round of panels runs, and
    neither it nor the leaf in its integrand is evaluated."""
    points = _count_integrand(monkeypatch)
    rounds = []
    panel_values = quadrature._panel_values
    monkeypatch.setattr(
        quadrature, "_panel_values", lambda *args: rounds.append(1) or panel_values(*args)
    )
    inner = _nested(5, 5, [(0.37, 0.41)])
    cfg = AntiderivativeConfig(Point(0.37, 0.41))
    leaf = op_A(d_z(inner * ExprField(inner.domain, "1 + 0.3*x*y")), cfg)
    outer = leaf + 0.25
    points.clear()
    rounds.clear()
    at_base = leaf.evaluate(cfg.base)
    assert at_base == 0.0 and not math.copysign(1.0, at_base) < 0
    assert outer.evaluate(cfg.base) == 0.25
    assert np.array_equal(outer(np.full(3, 0.37), np.full(3, 0.41)), np.full(3, 0.25))
    assert points == [] and rounds == []


# phi = sin(7x)cosh(3y) + x cos(9y) on [0, 3]^2: op_A(d_z phi) = phi - phi(0, 0)
_PHI = "sin(7*x)*cosh(3*y) + x*cos(9*y)"


def _phi_antiderivative(n):
    domain = DomainSpec(0.0, 3.0, 0.0, 3.0, n, n, Point(0.0, 0.0))
    phi = ExprField(domain, _PHI)
    return phi, op_A(d_z(phi), AntiderivativeConfig(domain.base))


def test_value_independent_of_batch_size():
    """A point alone and inside a batch of 600k copies of itself agree."""
    _, A = _phi_antiderivative(41)
    alone = float(A(2.9, 2.9))
    batch = A(np.full(600_000, 2.9), np.full(600_000, 2.9))
    assert np.max(np.abs(batch - alone)) <= 1e-12 * abs(alone)


def test_mesh_antiderivative_accurate_at_801(monkeypatch):
    """At 801^2 the rows take the 15 panels of 201^2 and 401^2, and the
    vanishing base column one."""
    points = _count_integrand(monkeypatch)
    phi, A = _phi_antiderivative(801)
    xg, yg = phi.domain.mesh()
    exact = phi(xg, yg) - phi.evaluate(Point(0.0, 0.0))
    assert np.max(np.abs(A.sample() - exact)) <= 1e-9
    assert sum(points) == 15 * (801 * 15 + 1)


def test_non_converging_integrand_raises(unit_square):
    with pytest.raises(QuadratureError, match="16384 panels"):
        _leaf_of(lambda x, y: np.sin(1e7 * x) + 0.0 * y, unit_square).evaluate(Point(1.0, 0.5))
    infinite = _leaf_of(lambda x, y: np.full(np.broadcast(x, y).shape, np.inf), unit_square)
    with pytest.raises(QuadratureError, match="non-finite"):
        infinite(np.ones(3), np.array([0.1, 0.2, 0.3]))


def _count_integrand(monkeypatch):
    """A list that collects the number of points of every integrand evaluation
    of every antiderivative, mesh and per-point paths alike."""
    points = []
    inner = quadrature._integrand

    def counting(phi, x, y):
        out = inner(phi, x, y)
        points.append(out.size)
        return out

    monkeypatch.setattr(quadrature, "_integrand", counting)
    return points


def test_mesh_sample_takes_the_same_panels_at_201_and_401(monkeypatch):
    """The panels follow the integrand, not the grid: 201^2 and 401^2 evaluate
    the same 1, 2, 4 and 8 new panels per round for all rows, so their integrand
    points are in the ratio of their rows, 401/201 (one panel per cell took
    606,000 and 2,412,000 points).  The base column, where the integrand
    vanishes, takes one panel."""
    points = _count_integrand(monkeypatch)
    rounds = {}
    for n in (201, 401):
        points.clear()
        _, A = _phi_antiderivative(n)
        assert A.sample().shape == (n, n)
        *rows, column = points
        rounds[n] = [p / (15 * n) for p in rows]
        assert column == 15
    assert rounds[201] == rounds[401] == [1, 2, 4, 8]


def test_mesh_sample_peak_memory_at_401(monkeypatch):
    """A 401^2 mesh sample is assembled in place: its traced peak, about 2.0
    MiB or 1.6 arrays of the sample's size, stays within 3.0 MiB (3.78 MiB
    when a gather built the sample from a separate table), on the same 90,240
    integrand points."""
    import tracemalloc

    _, A = _phi_antiderivative(401)
    points = _count_integrand(monkeypatch)
    tracemalloc.start()
    try:
        assert A.sample().shape == (401, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20
    assert sum(points) == 90_240


def test_point_l_path_cost_and_error(monkeypatch):
    """(2.9, 2.9) alone takes 240 integrand points, each of its two segments
    bisected over the whole side [0, 3], at an error no larger than the 1.82e-12
    of 8- and 16-node Gauss-Legendre levels."""
    phi, A = _phi_antiderivative(41)
    points = _count_integrand(monkeypatch)
    got = float(A(2.9, 2.9))
    exact = phi.evaluate(Point(2.9, 2.9)) - phi.evaluate(Point(0.0, 0.0))
    assert sum(points) == 240
    assert abs(got - exact) <= 1.82e-12


def _exp_text(theta):
    return f"exp({math.cos(theta)!r}*x + {math.sin(theta)!r}*y)"


def test_darboux_41_halves_the_integrand_points(monkeypatch):
    """The nested antiderivatives of darboux at 41^2 (v's leaf inside u_back's
    Phi) take panels sized to their exp integrands: at most 5,000 integrand
    points, against 45,780 with one panel per cell and 138,180 when each nesting
    level also placed 15 nodes in each cell of the level above."""
    text = (
        f"case = darboux\ndomain = 0 1 0 1 41 41\n"
        f"u = {_exp_text(0.93)}\nf = {_exp_text(-0.5)}\n"
    )
    points = _count_integrand(monkeypatch)
    assert run(parse_config(text))["identities"][0]["pass"] is True
    assert sum(points) <= 5_000
    assert len(points) < 22


_POINT = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))


@given(point=_POINT, others=st.lists(_POINT, max_size=30), data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_point_value_independent_of_its_batch(point, others, data):
    """Alone, inside a batch of any size and inside a permutation of that batch, a
    point's op_A value is bit-identical."""
    where = data.draw(st.integers(0, len(others)))
    order = np.asarray(data.draw(st.permutations(range(len(others) + 1))))
    x, y = np.array(others[:where] + [point] + others[where:]).T
    _, A = _phi_antiderivative(41)
    val = A(*point)
    for idx in (np.arange(len(x)), order):
        at = int(np.flatnonzero(idx == where)[0])
        assert A(x[idx], y[idx])[at] == val


def test_repeated_leaf_integrates_once(monkeypatch):
    """u = exp(A[Q]) occurs twice in u_x - 2 Q1 u; both occurrences share one
    evaluation: one panel for all rows, one for the base column."""
    from riccati2d import exp_family, exp_field

    sol = exp_family(1.0, 0.9272952180016123)
    u = exp_field(op_A(sol.Q, sol.problem().cfg))
    points = _count_integrand(monkeypatch)
    assert max_abs(u.dx() - 2.0 * sol.Q.re * u) < 1e-12
    assert points == [15 * sol.domain.ny, 15]


def test_tensor_grid_matches_per_point_values(unit_square):
    """Broadcast axes and the dense mesh give the same values within quadrature error."""
    cfg = AntiderivativeConfig(Point(0.3, 0.6))
    envelope = ex.Exp(ex.Const(1.6) * ex.X + ex.Const(0.8) * ex.Y)
    Phi = ComplexField(
        ExprField(unit_square, ex.Const(-0.4) * envelope),
        ExprField(unit_square, ex.Const(-0.2) * envelope),
    )
    phi = op_Abar(Phi, cfg)
    xs, ys = unit_square.axes(9, 7)
    on_axes = phi(xs, ys)
    xg, yg = unit_square.mesh(9, 7)
    np.testing.assert_allclose(on_axes, phi(xg, yg), rtol=0, atol=1e-12)
    np.testing.assert_allclose(phi(xs.T, ys.T), phi(xg.T, yg.T), rtol=0, atol=1e-12)


def test_k15_partials_integrate_degree_14_exactly():
    """A mesh antiderivative of 1e-12 * P_k(x), k <= 14, on [-1, 1] from the base
    -1 is 1e-12 times the integral of P_k from -1 at arbitrary abscissae.  The
    factor keeps the Legendre tail under the certificate, so the one panel
    [-1, 1] holds every abscissa and its partial weights integrate the K15
    interpolant, which is the polynomial itself."""
    from numpy.polynomial import legendre

    domain = DomainSpec(-1.0, 1.0, 0.0, 1.0, 5, 5, Point(-1.0, 0.0))
    x = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(15).uniform(-1.0, 1.0, 40)])
    y = np.array([[0.0], [0.5]])
    zero = lambda: ex.Const(0.0)
    for coef in np.eye(15) * 1e-12:
        p_k = ex.Given(lambda x, y, c=coef: legendre.legval(x + 0.0 * y, c), zero, zero, "P_k")
        Phi = ComplexField(ExprField(domain, p_k), ExprField(domain, ex.Const(0.0)))
        got = op_A(Phi, AntiderivativeConfig(domain.base))(x[None, :], y) / 1e-12
        exact = 2.0 * legendre.legval(x, legendre.legint(coef / 1e-12, lbnd=-1))
        np.testing.assert_allclose(got, np.broadcast_to(exact, got.shape), rtol=0, atol=1e-14)


def _nested(nx, ny, bases, seed="exp(0.6*x + 0.8*y)"):
    """phi <- op_A(d_z(phi * (1 + 0.3xy))) on the unit square, once per base,
    innermost first."""
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, nx, ny, Point(*bases[-1]))
    phi, weight = ExprField(domain, seed), ExprField(domain, "1 + 0.3*x*y")
    for base in bases:
        phi = op_A(d_z(phi * weight), AntiderivativeConfig(Point(*base)))
    return phi


def _nested_exact(bases, x, y, seed=lambda x, y: np.exp(0.6 * x + 0.8 * y)):
    """The closed form of ``_nested``: phi_k = phi_{k-1} w - (phi_{k-1} w)(b_k),
    w = 1 + 0.3xy, innermost base first."""
    if not bases:
        return seed(np.asarray(x), np.asarray(y))
    (bx, by), inner = bases[-1], bases[:-1]
    weighted = _nested_exact(inner, x, y, seed) * (1.0 + 0.3 * np.asarray(x) * y)
    return weighted - _nested_exact(inner, bx, by, seed) * (1.0 + 0.3 * bx * by)


def _mesh_minus_per_point(phi):
    xg, yg = phi.domain.mesh()
    on_mesh = phi.sample()
    return np.max(np.abs(on_mesh - phi(xg.ravel(), yg.ravel()).reshape(on_mesh.shape)))


@st.composite
def _nested_bases(draw):
    """Mesh sizes and 2-3 bases, innermost first, each coordinate a knot or not."""
    nx, ny = draw(st.integers(3, 25)), draw(st.integers(3, 25))
    if draw(st.integers(1, 2)) == 2:  # depth 2: three leaves, on a coarser mesh
        nx, ny = min(nx, 11), min(ny, 11)
        depth = 2
    else:
        depth = 1

    def coord(n):
        knot = st.integers(0, n - 1).map(lambda i: float(np.linspace(0.0, 1.0, n)[i]))
        return draw(st.one_of(knot, st.floats(0.0, 1.0)))

    return nx, ny, [(coord(nx), coord(ny)) for _ in range(depth + 1)]


@given(case=_nested_bases())
@settings(max_examples=30, deadline=None, derandomize=True)
@example(case=(21, 21, [(0.37, 0.41), (0.0, 0.0)]))
@example(case=(3, 3, [(0.0, 0.0), (5e-324, 0.0)]))
@example(case=(5, 4, [(1.0, 0.3), (0.0, 1.0)]))
def test_nested_mesh_matches_per_point_values(case):
    """A nested leaf is asked at a tensor grid of the panel nodes of the leaf
    above it.  With bases on or off the knots, on the rectangle's edge or
    5e-324 off a knot, the mesh sample equals each point's own L-path."""
    nx, ny, bases = case
    phi = _nested(nx, ny, bases)
    assert _mesh_minus_per_point(phi) <= 1e-12
    xg, yg = phi.domain.mesh()
    assert np.max(np.abs(phi.sample() - _nested_exact(bases, xg, yg))) <= 1e-12


def test_tensor_grid_at_k15_nodes_of_unresolved_cells_matches_per_point_values():
    """sin(40x + 30y) does not settle on one panel per cell a quarter to a third
    wide.  Sampled at the K15 nodes of those cells, on either axis, as a tensor
    grid, a leaf is within the settle tolerance of each point's own L-path, and
    so is a nested sample."""
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, 5, 4, Point(0.0, 0.0))
    seed = "sin(40*x + 30*y)"
    leaf = op_A(d_z(ExprField(domain, seed)), AntiderivativeConfig(Point(0.37, 0.41)))
    xs, ys = domain.axes()

    def nodes(knots):  # node k of cell c at [k, c]
        return knots[:-1] + (_K15_NODES[:, None] + 1.0) / 2.0 * np.diff(knots)

    for x, y in ((nodes(xs[0])[:, None, :], ys), (xs, nodes(ys[:, 0]).reshape(-1, 1))):
        on_mesh = leaf(x, y)
        own = leaf(*np.broadcast_arrays(x, y))
        tol = quadrature.SEGMENT_REL_TOL * (np.max(np.abs(own)) + 1.0)
        assert np.max(np.abs(on_mesh - own)) <= tol
    bases = [(0.37, 0.41), (0.0, 0.0)]
    phi = _nested(5, 4, bases, seed=seed)
    tol = quadrature.SEGMENT_REL_TOL * (max_abs(phi) + 1.0)
    assert _mesh_minus_per_point(phi) <= tol
    xg, yg = phi.domain.mesh()
    exact = _nested_exact(bases, xg, yg, lambda x, y: np.sin(40 * x + 30 * y))
    assert np.max(np.abs(phi.sample() - exact)) <= tol


@pytest.mark.parametrize("x", [0.0, 0.37, 1.0])
def test_one_abscissa_and_a_column_of_ordinates_match_per_point_values(x):
    """One abscissa against a column of ordinates is a tensor grid whose rows
    have a single target, at the base, on the edge, or between them."""
    bases = [(0.37, 0.41), (0.0, 0.0)]
    phi = _nested(5, 7, bases)
    _, ys = phi.domain.axes()
    on_mesh = phi(np.array([[x]]), ys)
    assert np.max(np.abs(on_mesh - phi(np.full(ys.shape, x), ys))) <= 1e-12
    assert np.max(np.abs(on_mesh - _nested_exact(bases, x, ys))) <= 1e-12


@pytest.mark.parametrize("n", [41, 401])
def test_odd_integrand_on_every_dyadic_panel_is_resolved(n):
    """sin(80 pi x) is odd about the midpoint of every dyadic panel of [0, 1], so
    K15 and G7 are both 0 there and agree; only the Legendre tail of the panel's
    interpolant shows that its partial integrals are wrong."""
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, n, 3, Point(0.0, 0.0))
    phi = ExprField(domain, "-cos(80*pi*x)/(80*pi) + y")
    A = op_A(d_z(phi), AntiderivativeConfig(domain.base))
    xg, yg = domain.mesh()
    exact = phi(xg, yg) - phi.evaluate(domain.base)
    assert np.max(np.abs(A.sample() - exact)) <= 1e-12


@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_mesh_value_does_not_depend_on_the_rows_and_columns_sampled_with_it(data):
    """The rows of a mesh share one partition, certified for all of them.  A
    sub-grid of rows and columns still gives the full sample's values there."""
    nx, ny = data.draw(st.integers(3, 30)), data.draw(st.integers(3, 30))
    a, b = data.draw(st.floats(1.0, 12.0)), data.draw(st.floats(0.5, 3.0))
    base = Point(data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)))
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, nx, ny, base)
    phi = ExprField(domain, f"sin({a!r}*x*(1 + y))*cosh({b!r}*y) + x*cos({a!r}*y)")
    A = op_A(d_z(phi), AntiderivativeConfig(base))
    def subset(n):
        least = data.draw(st.integers(0, n - 1))
        return sorted(data.draw(st.sets(st.integers(least, n - 1), min_size=1)))

    cols, rows = subset(nx), subset(ny)
    xs, ys = domain.axes()
    full = A.sample()
    assert np.max(np.abs(A(xs[:, cols], ys[rows, :]) - full[np.ix_(rows, cols)])) <= 1e-12


@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_gathered_sample_equals_the_sorted_sample_bit_for_bit(data):
    """A row of sorted, distinct abscissae and a column of sorted, distinct
    ordinates are assembled in place; permuted, repeated or transposed axes
    take a gather from the same integrals.  Both give the same bits."""
    nx, ny = data.draw(st.integers(3, 12)), data.draw(st.integers(3, 12))
    base = Point(data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)))
    domain = DomainSpec(0.0, 1.0, 0.0, 1.0, nx, ny, base)
    A = op_A(d_z(ExprField(domain, "sin(5*x*(1 + y))*cosh(2*y)")), AntiderivativeConfig(base))
    sorted_sample = A.sample()

    def indices(n):  # every index at least once, in any order, some repeated
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        return np.asarray(data.draw(st.permutations(list(range(n)) + extra)))

    cols, rows = indices(nx), indices(ny)
    xs, ys = domain.axes()
    x, y = xs[0, cols], ys[rows, 0]
    expected = sorted_sample[np.ix_(rows, cols)]
    assert np.array_equal(A(x[None, :], y[:, None]), expected)
    assert np.array_equal(A(x[:, None], y[None, :]), expected.T)
    assert np.array_equal(A(xs[0], ys), sorted_sample)


def test_non_finite_nested_integrand_raises(unit_square):
    """An inner leaf whose integrand is infinite raises while the outer leaf's
    integrand, the inner leaf itself, is evaluated at the outer leaf's nodes."""

    def infinite(x, y):
        return np.full(np.broadcast(x, y).shape, np.inf)

    zero = lambda: ex.Const(0.0)
    cfg = AntiderivativeConfig(unit_square.base)
    inner = quadrature._antiderivative(
        ExprField(unit_square, ex.Given(infinite, zero, zero, "inf")), cfg, -1.0, "op_A"
    )
    outer = quadrature._antiderivative(inner, cfg, -1.0, "op_A")  # checks skipped
    with pytest.raises(QuadratureError, match="non-finite"):
        outer.sample(5, 5)


def test_nested_integrand_points_grow_linearly_with_depth(monkeypatch):
    """Building and sampling phi <- op_A(d_z(phi * (1 + 0.3xy))) d times on 41^2
    takes at most 8x the points of d = 1 at d = 4 (103,245,600 sample points when
    each level placed its own nodes), with the same values."""
    points = _count_integrand(monkeypatch)
    sums = [2188.18157919534, 2446.32279666265, 2747.42931698264, 3099.83239161716]
    counts = []
    for depth, expected in enumerate(sums, start=1):
        points.clear()
        phi = _nested(41, 41, [(0.0, 0.0)] * depth)
        assert np.sum(phi.sample()) == pytest.approx(expected, rel=1e-12, abs=0)
        counts.append(sum(points))
    assert counts[0] == 15 * (41 + 1)  # one panel for the rows, one for the base column
    assert counts[3] <= 8 * counts[0]


def test_nested_leaf_at_contour_points_costs_linear_in_depth(monkeypatch):
    """A nested leaf asked at 16 circle points asks the level below at a tensor
    grid of panel nodes, so each level adds about as many integrand points as
    the first (one L-path per point and level took 480 points at depth 1 and
    11,280 at depth 2): depth 4 takes at most 8x the points of depth 1, every
    depth within 1e-12 of the closed form."""
    t = 2.0 * np.pi * np.arange(16) / 16
    x, y = 0.5 + 0.3 * np.cos(t), 0.5 + 0.3 * np.sin(t)
    points = _count_integrand(monkeypatch)
    counts = []
    for depth in range(1, 5):
        bases = [(0.0, 0.0)] * depth
        phi = _nested(41, 41, bases)
        points.clear()
        assert np.max(np.abs(phi(x, y) - _nested_exact(bases, x, y))) <= 1e-12
        counts.append(sum(points))
    assert counts[0] == 210 and counts[3] <= 8 * counts[0]


def test_depth_10_leaf_at_one_point(monkeypatch):
    """Ten levels of nesting at one point take 315 integrand points, within
    1e-12 of the closed form."""
    bases = [(0.0, 0.0)] * 10
    phi = _nested(41, 41, bases)
    points = _count_integrand(monkeypatch)
    got = phi.evaluate(Point(0.7, 0.6))
    assert sum(points) == 315
    assert abs(got - _nested_exact(bases, 0.7, 0.6)) <= 1e-12


def test_point_values_do_not_depend_on_the_chunks_of_rows(monkeypatch):
    """Points are integrated in chunks of rows, and a row shares no certificate
    with another: chunks of 10 rows give the same bits as one chunk."""
    _, A = _phi_antiderivative(41)
    x, y = np.random.default_rng(3).uniform(0.0, 3.0, (2, 300))
    whole = A(x, y)
    monkeypatch.setattr(quadrature, "_MAX_BATCH", 2400)  # 2400 // (15 * 16) = 10 rows
    _, A = _phi_antiderivative(41)
    assert np.array_equal(A(x, y), whole)


def test_point_batch_peak_memory():
    """65,536 points on a circle are integrated in chunks of rows: the traced peak
    stays within 20 MiB (41 MiB for one G7/K15 L-path per point)."""
    import tracemalloc

    _, A = _phi_antiderivative(41)
    t = 2.0 * np.pi * np.arange(65_536) / 65_536
    x, y = 1.5 + 1.4 * np.cos(t), 1.5 + 1.4 * np.sin(t)
    tracemalloc.start()
    try:
        A(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20

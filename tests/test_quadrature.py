"""Contours, line integrals, compatibility checks, antiderivative operators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from riccati2d.cli import parse_config, run
from riccati2d.quadrature import (
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    adaptive_segment_integral,
    antiderivative_along,
)


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


def test_adaptive_segment_integral_vs_scipy():
    fn = lambda s: np.exp(-(s**2)) * np.cos(3 * s)
    got = adaptive_segment_integral(fn, 0.0, np.asarray([2.5]))
    want, _ = integrate.quad(lambda s: math.exp(-(s**2)) * math.cos(3 * s), 0.0, 2.5)
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_g7_is_seven_point_gauss_legendre_on_the_leading_k15_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(_K15_NODES[:7], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_G7_WEIGHTS, weights, rtol=0, atol=1e-15)


def test_k15_is_exact_to_degree_22():
    assert np.all(_K15_WEIGHTS > 0)
    assert np.sum(_K15_WEIGHTS) == pytest.approx(2.0, rel=0, abs=1e-14)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(_K15_WEIGHTS * _K15_NODES**k) == pytest.approx(exact, rel=0, abs=1e-14)


def test_non_finite_estimate_raises_at_the_first_level():
    """One level of nodes, and no inf - inf is taken (numpy's RuntimeWarning is an
    error in this suite)."""
    sizes = []

    def fn(s):
        sizes.append(s.size)
        return np.where(s > 0.5, np.inf, 1.0)

    with pytest.raises(QuadratureError, match="non-finite value at 1 panels"):
        adaptive_segment_integral(fn, 0.0, np.ones(3))
    assert sizes == [15 * 3]


def test_settled_points_leave_the_failure_unchanged():
    """A point that settles at once neither hides nor alters the failure of one
    that never settles: the message names the largest change among the unsettled."""
    fn = lambda s: np.sin(1e7 * s)
    with pytest.raises(QuadratureError, match="16384 panels: largest change") as alone:
        adaptive_segment_integral(fn, 0.0, 1.0)
    with pytest.raises(QuadratureError) as batch:
        adaptive_segment_integral(fn, 0.0, np.array([1e-9, 1.0]))
    assert str(batch.value) == str(alone.value)


def test_compatibility_check_pass_and_fail(unit_square):
    ok = ComplexField(ExprField(unit_square, ex.X), ExprField(unit_square, ex.ZERO))
    assert compatibility_check(ok, "casirot") < 1e-14
    bad = ComplexField(ExprField(unit_square, ex.Y), ExprField(unit_square, ex.ZERO))
    assert compatibility_check(bad, "casirot") == pytest.approx(1.0)
    cfg = AntiderivativeConfig(Point(0, 0))
    with pytest.raises(CompatibilityError):
        op_Abar(bad, cfg)


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
    cfg = AntiderivativeConfig(unit_square.base, constant_c=3.5)
    phi = op_Abar(constant_field(0.5j, unit_square), cfg)
    assert phi.evaluate(Point(0.0, 0.0)) == pytest.approx(3.5, abs=1e-12)


def test_path_independence(unit_square):
    """Explicit polyline paths reproduce the L-path value for compatible forms."""
    cfg = AntiderivativeConfig(unit_square.base)
    envelope = ex.Exp(ex.Const(1.6) * ex.X + ex.Const(0.8) * ex.Y)
    Phi = ComplexField(
        ExprField(unit_square, ex.Const(-0.4) * envelope),
        ExprField(unit_square, ex.Const(-0.2) * envelope),
    )
    phi = op_Abar(Phi, cfg)
    end = (0.9, 0.7)
    for waypoints in (
        [(0, 0), end],
        [(0, 0), (0.9, 0.0), end],
        [(0, 0), (0.2, 0.65), (0.5, 0.1), end],
    ):
        path = Contour.polyline(waypoints, n_per_segment=64)
        got = antiderivative_along(Phi, path, cfg)
        assert got == pytest.approx(phi(np.array(end[0]), np.array(end[1])), abs=1e-9)


def test_antiderivative_along_rejects_wrong_start(unit_square):
    cfg = AntiderivativeConfig(unit_square.base)
    Phi = constant_field(0.5j, unit_square)
    with pytest.raises(ContourError):
        antiderivative_along(Phi, Contour.polyline([(0.5, 0.5), (1, 1)]), cfg)


def test_vanishing_partial_skips_quadrature(monkeypatch):
    """With Im Q = 0 the y-partial of exp(A[Q]) folds to zero: no quadrature runs."""
    from riccati2d import exp_family, exp_field
    from riccati2d import quadrature

    calls = []
    inner = quadrature.adaptive_segment_integral

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_segment_integral", counting)
    sol = exp_family(1.0, 0.0)
    u = exp_field(op_A(sol.Q, sol.problem().cfg))
    assert max_abs(u.dy()) == 0.0
    assert calls == []


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


def test_mesh_antiderivative_accurate_at_801():
    phi, A = _phi_antiderivative(801)
    xg, yg = phi.domain.mesh()
    exact = phi(xg, yg) - phi.evaluate(Point(0.0, 0.0))
    assert np.max(np.abs(A.sample() - exact)) <= 1e-9


def test_non_converging_integrand_raises():
    with pytest.raises(QuadratureError, match="16384 panels"):
        adaptive_segment_integral(lambda s: np.sin(1e7 * s), 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_segment_integral(lambda s: np.full(s.shape, np.inf), 0.0, np.ones(3))


def _count_quadrature(monkeypatch):
    """Lists that collect one entry per adaptive call and the size of every
    integrand batch."""
    from riccati2d import quadrature

    calls, points = [], []
    inner = quadrature.adaptive_segment_integral

    def counting(fn, *args, **kwargs):
        calls.append(1)

        def counted(s):
            points.append(np.size(s))
            return fn(s)

        return inner(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_segment_integral", counting)
    return calls, points


def test_mesh_sample_integrates_each_cell_once(monkeypatch):
    """Two quadrature calls for the whole mesh, each settling on one 15-node panel
    per cell: 201 rows of 200 cells (the base is a mesh node), then the 200 cells
    of the base column."""
    calls, points = _count_quadrature(monkeypatch)
    n = 201
    _, A = _phi_antiderivative(n)
    assert A.sample().shape == (n, n)
    assert len(calls) == 2
    assert sum(points) == 15 * (201 * 200 + 200)


def test_point_l_path_cost_and_error(monkeypatch):
    """(2.9, 2.9) alone takes fewer integrand points than the 144 of 8- and 16-node
    Gauss-Legendre levels, at an error no larger than their 1.82e-12."""
    phi, A = _phi_antiderivative(41)
    calls, points = _count_quadrature(monkeypatch)
    got = float(A(2.9, 2.9))
    exact = phi.evaluate(Point(2.9, 2.9)) - phi.evaluate(Point(0.0, 0.0))
    assert len(calls) == 2 and sum(points) < 144
    assert abs(got - exact) <= 1.82e-12


def _exp_text(theta):
    return f"exp({math.cos(theta)!r}*x + {math.sin(theta)!r}*y)"


def test_darboux_41_halves_the_integrand_points(monkeypatch):
    """The nested antiderivatives of darboux at 41^2 (v's leaf inside u_back's
    Phi) take at most half the 318,192 points of 8- and 16-node levels."""
    text = (
        f"case = darboux\ndomain = 0 1 0 1 41 41\n"
        f"u = {_exp_text(0.93)}\nf = {_exp_text(-0.5)}\n"
    )
    calls, points = _count_quadrature(monkeypatch)
    assert run(parse_config(text))["identities"][0]["pass"] is True
    assert sum(points) <= 318_192 // 2
    assert len(calls) < 22


_POINT = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))


@given(point=_POINT, others=st.lists(_POINT, max_size=30), data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_point_value_independent_of_its_batch(point, others, data):
    """Alone, inside a batch of any size and inside a permutation of that batch, a
    point's segment integral and its per-point op_A value are bit-identical."""
    where = data.draw(st.integers(0, len(others)))
    order = np.asarray(data.draw(st.permutations(range(len(others) + 1))))
    x, y = np.array(others[:where] + [point] + others[where:]).T
    fn = lambda s: np.sin(7 * s) * np.cosh(3 * s)
    _, A = _phi_antiderivative(41)
    seg, val = adaptive_segment_integral(fn, 0.0, point[0]), A(*point)
    for idx in (np.arange(len(x)), order):
        at = int(np.flatnonzero(idx == where)[0])
        assert adaptive_segment_integral(fn, 0.0, x[idx])[at] == seg
        assert A(x[idx], y[idx])[at] == val


def test_repeated_leaf_integrates_once(monkeypatch):
    """u = exp(A[Q]) occurs twice in u_x - 2 Q1 u; both occurrences share one evaluation."""
    from riccati2d import exp_family, exp_field

    sol = exp_family(1.0, 0.9272952180016123)
    u = exp_field(op_A(sol.Q, sol.problem().cfg))
    calls, _ = _count_quadrature(monkeypatch)
    assert max_abs(u.dx() - 2.0 * sol.Q.re * u) < 1e-12
    assert len(calls) == 2


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

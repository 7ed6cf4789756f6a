"""Command-line front end: parse a run config, execute identity checks,
emit a JSON report.

Config grammar is line-oriented ``key = value`` with ``#`` comments.  Every
value is converted and range-checked once, when the config is read.  Exit
status: 0 all identities pass, 1 at least one fails, 2 config/usage error,
3 I/O error, 4 a case raised an unexpected (non-toolkit) exception; the
report still lists every case.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from .errors import Check, ConfigError, DomainError, ExpressionError, GateError, ToolkitError
from .expressions import parse_expression
from .field import (
    DomainSpec,
    Field,
    GridField,
    Point,
    max_abs,
    read_grid_csv,
    write_grid_csv,
)
from . import oracle
from .oracle import OracleSolution
from .quadrature import Contour
from .riccati import (
    darboux_potential_eta,
    darboux_u_from_v,
    darboux_v_from_u,
    euler_first_Q_from_W,
    euler_first_W_from_Q,
    exp_reconstruct,
    log_derivative,
    riccati_residual,
    schrodinger_residual,
    vekua_residual,
)
from .theorems import (
    TAYLOR_CIRCLE_NODES,
    analytic_exp,
    analytic_power,
    cauchy_riccati,
    cauchy_schrodinger,
    euler_second_baseline,
    picard_identity,
    verdict,
)

_MAX_GRID_POINTS = 2**22  # nx * ny of a domain
_MAX_CONTOUR_NODES = 2**20  # integrand points per circle or polyline segment, finest level
_MAX_POLYLINE_VERTICES = 2**10  # line integrals loop once per polyline segment

_Source = Callable[[DomainSpec], Field]
_ORACLE_KEYS = ("oracle", "oracle_b", "oracle_c", "oracle_d")


@dataclass
class RunConfig:
    case: str
    raw_text: str
    domain: Optional[DomainSpec] = None  # carries the base point
    oracles: dict = dc_field(default_factory=dict)  # key -> (constructor name, args)
    f: Optional[_Source] = None
    u: Optional[_Source] = None
    nu: Optional[_Source] = None
    w: Optional[Callable[[DomainSpec], Field]] = None
    z0: Point = Point(0.0, 0.0)
    n_terms: int = 10
    contour: Contour = Contour.circle(0.0, 0.0, 1.0, 256)
    tolerance: Optional[float] = None
    refine: int = 0


# ---------------------------------------------------------------------------
# Value converters: text -> typed value, raising ValueError or a ToolkitError.
# ---------------------------------------------------------------------------


def _checked(convert, ok, complaint: str):
    """Converter of parameter text that also requires ``ok(value)``."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{text!r} {complaint}")
        return value

    return check


_real = _checked(float, math.isfinite, "is not finite")
_positive_real = _checked(_real, lambda v: v > 0, "is not positive")
_nonnegative_real = _checked(_real, lambda v: v >= 0, "is negative")
_nonnegative_int = _checked(int, lambda v: v >= 0, "is negative")
# n_terms, and the N of w = zpow N: a degree past the circle's nodes gives no verdict
_degree = _checked(
    int, lambda v: 0 <= v < TAYLOR_CIRCLE_NODES, f"is outside 0..{TAYLOR_CIRCLE_NODES - 1}"
)
_branch = _checked(str, lambda v: v in ("exp", "cosh"), "is not exp or cosh")
_harmonic_kind = _checked(
    str, lambda v: v in ("translate", "monomial"), "is not translate or monomial"
)


def _shift(text: str) -> Point:
    x, y = text.split(",")
    return Point(_real(x), _real(y))


def _point(text: str) -> Point:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("needs two coordinates 'x y'")
    return Point(float(parts[0]), float(parts[1]))


def _bounds(text: str) -> tuple:
    """'x_min x_max y_min y_max [nx ny]' -> DomainSpec arguments (the base comes later)."""
    parts = text.split()
    if len(parts) not in (4, 6):
        raise ValueError("needs 'x_min x_max y_min y_max [nx ny]'")
    nx, ny = map(int, parts[4:]) if len(parts) == 6 else (41, 41)
    if nx * ny > _MAX_GRID_POINTS:
        raise ValueError(f"nx*ny = {nx * ny} exceeds {_MAX_GRID_POINTS}")
    return (*map(_real, parts[:4]), nx, ny)


def _grid_on(domain: DomainSpec, path: str) -> GridField:
    """The CSV grid at ``path`` on ``domain``, whose corners and counts it must have."""
    grid = read_grid_csv(path)
    meshes = [(d.x_min, d.x_max, d.y_min, d.y_max, d.nx, d.ny) for d in (grid.domain, domain)]
    if meshes[0] != meshes[1]:
        grid_mesh, case_mesh = ("[%r, %r] x [%r, %r] with %d x %d nodes" % m for m in meshes)
        raise DomainError(f"{path}: the grid and the case's domain are different rectangles "
                          f"or meshes: {grid_mesh} against {case_mesh}")
    return GridField(domain, grid.values)


def _source(text: str) -> _Source:
    """'csv PATH' (read when the case runs, on its rectangle) or expression text (parsed now)."""
    if text.startswith("csv "):
        path = text[4:].strip()
        return lambda domain: _grid_on(domain, path)
    try:
        expr = parse_expression(text)
    except ExpressionError as exc:
        raise ValueError(f"not 'csv PATH' or a valid expression: {exc}") from None
    return lambda domain: Field(domain, expr)


def _w(text: str) -> Callable[[DomainSpec], Field]:
    parts = text.split()
    if parts == ["expz"]:
        return lambda domain: analytic_exp(domain)
    if len(parts) == 2 and parts[0] == "zpow":
        n = _degree(parts[1])
        return lambda domain: analytic_power(n, domain)
    raise ValueError("use 'expz' or 'zpow N'")


def _contour(text: str) -> Contour:
    parts = text.split()
    if parts[:1] == ["circle"] and len(parts) in (4, 5):
        cx, cy, radius = map(_real, parts[1:4])
        return Contour.circle(cx, cy, radius, *map(int, parts[4:]))
    if parts[:1] == ["polyline"]:
        coords = parts[1:]
        n_per = [int(coords.pop())] if len(coords) % 2 else []
        if len(coords) > 2 * _MAX_POLYLINE_VERTICES:
            raise ValueError(f"more than {_MAX_POLYLINE_VERTICES} polyline vertices")
        xy = list(map(_real, coords))
        return Contour.polyline(list(zip(xy[0::2], xy[1::2])), *n_per)
    raise ValueError("use 'circle CX CY R [N]' or 'polyline X1 Y1 X2 Y2 ... [N]'")


# family -> (constructor name in the oracle module, its positional parameters as
# (key, converter, default)); the name is resolved at each call, so wrappers put
# on the oracle module (profilers, tracers) see every construction
_ORACLE_FAMILIES = {
    "exp_family": ("exp_family", (("nu", _nonnegative_real, 1.0), ("theta", _real, 0.0))),
    "separable": (
        "separable_family",
        (
            ("nu1", _real, 1.0),
            ("nu2", _real, 0.0),
            ("branch1", _branch, "exp"),
            ("branch2", _branch, "exp"),
            ("shift1", _real, 0.0),
            ("shift2", _real, 0.0),
        ),
    ),
    "harmonic": (
        "harmonic_family",
        (
            ("kind", _harmonic_kind, "translate"),
            ("n", _nonnegative_int, 1),
            ("shift", _shift, Point(0.0, 0.0)),
        ),
    ),
}


def _parse_oracle(spec: str) -> tuple:
    """Parse 'family key=value ...' into (constructor name, typed positional args)."""
    parts = spec.split()
    if not parts or parts[0] not in _ORACLE_FAMILIES:
        raise ValueError(f"unknown oracle family (choose from {', '.join(_ORACLE_FAMILIES)})")
    name, params = _ORACLE_FAMILIES[parts[0]]
    given: dict[str, str] = {}
    for item in parts[1:]:
        key, sep, text = item.partition("=")
        if not sep:
            raise ValueError(f"oracle parameter {item!r} must be key=value")
        given[key] = text
    known = [key for key, _, _ in params]
    for key in given:
        if key not in known:
            raise ValueError(
                f"unknown {parts[0]} parameter {key!r} (choose from {', '.join(known)})"
            )
    args = []
    for key, convert, default in params:
        try:
            args.append(convert(given[key]) if key in given else default)
        except (ValueError, ToolkitError) as exc:
            raise ValueError(f"bad oracle parameter {key}={given[key]!r}: {exc}") from None
    return name, tuple(args)


def _oracle(
    cfg: RunConfig, key: str, default: str, domain: Optional[DomainSpec] = None
) -> OracleSolution:
    name, args = cfg.oracles.get(key) or _parse_oracle(default)
    return getattr(oracle, name)(*args, domain=domain)


# ---------------------------------------------------------------------------
# Case runners.  Each takes (config, tolerance) and returns (Check, fields to dump).
# ---------------------------------------------------------------------------

_UNIT_SQUARE = DomainSpec(0, 1, 0, 1, 41, 41, Point(0, 0))
_CENTRED_SQUARE = DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0, 0))
# euler2-baseline without a domain line tests on the square z0 +- h: comfortably
# inside the coefficient circle's convergence sweet spot, so truncation and
# coefficient noise both stay below tolerance
_TEST_HALF_WIDTH = 0.28


def _load(source: Optional[_Source], default: str, domain: DomainSpec) -> Field:
    return (source or _source(default))(domain)


def _run_riccati_residual(cfg: RunConfig, tol: float):
    sol = _oracle(cfg, "oracle", "exp_family nu=1 theta=0.9272952180016123", cfg.domain)
    Q = log_derivative(sol.u)
    resid = riccati_residual(Q, sol.nu)
    residual = max(max_abs(resid), max_abs(schrodinger_residual(sol.u, sol.nu)))
    check = verdict("riccati-residual", residual, tol, [(float(sol.domain.nx), residual)])
    return check, {"riccati_residual_re": resid.re, "riccati_residual_im": resid.im}


def _run_darboux(cfg: RunConfig, tol: float):
    domain = cfg.domain or _UNIT_SQUARE
    f = _load(cfg.f, "exp(x)", domain)
    u = _load(cfg.u, "exp(0.6*x+0.8*y)", domain)
    nu = _load(cfg.nu, "1", domain)
    v = darboux_v_from_u(u, f)
    eta = darboux_potential_eta(f, nu)
    r1 = max_abs(schrodinger_residual(v, eta), nx=21, ny=21)
    u_back = darboux_u_from_v(v, f)
    alpha = -u.evaluate(domain.base) / f.evaluate(domain.base)  # u_back(base) = 0
    r2 = max_abs(u_back - alpha * f - u, 21, 21)
    residual = max(r1, r2)
    return verdict("darboux", residual, tol, [(21.0, residual)]), {"darboux_conjugate": v}


def _run_euler1(cfg: RunConfig, tol: float):
    sol0 = _oracle(cfg, "oracle", "exp_family nu=1 theta=0", cfg.domain)
    sol1 = _oracle(cfg, "oracle_b", "exp_family nu=1 theta=0.9272952180016123", sol0.domain)
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, sol0.nu)
    f0 = exp_reconstruct(sol0.Q)
    r1 = max_abs(vekua_residual(W, f0), nx=15, ny=15)
    Q_back = euler_first_Q_from_W(W)
    r2 = max_abs(Q_back - sol1.Q, 15, 15)
    residual = max(r1, r2)
    check = verdict("euler1", residual, tol, [(15.0, residual)])
    return check, {"euler1_W_re": W.re, "euler1_W_im": W.im}


def _run_euler2(cfg: RunConfig, tol: float):
    domain = cfg.domain or _CENTRED_SQUARE
    W = cfg.w(domain) if cfg.w else analytic_exp(domain)
    if cfg.domain is not None:
        region = cfg.domain
    else:
        h = _TEST_HALF_WIDTH
        region = DomainSpec(cfg.z0.x - h, cfg.z0.x + h, cfg.z0.y - h, cfg.z0.y + h, 33, 33)
    return euler_second_baseline(W, cfg.z0, cfg.n_terms, region=region, tolerance=tol), {}


def _run_picard(cfg: RunConfig, tol: float):
    defaults = {
        "oracle": "separable nu1=1 nu2=0 branch1=cosh shift1=1",
        "oracle_b": "separable nu1=0 nu2=1 branch2=cosh shift2=1",
        "oracle_c": "exp_family nu=1 theta=0",
        "oracle_d": "exp_family nu=1 theta=0.9272952180016123",
    }
    domain = cfg.domain or _UNIT_SQUARE
    sols = [_oracle(cfg, key, spec, domain) for key, spec in defaults.items()]
    return picard_identity(*(s.Q for s in sols), sols[0].nu, tolerance=tol), {}


def _run_cauchy_riccati(cfg: RunConfig, tol: float):
    domain = cfg.domain or _CENTRED_SQUARE
    sol0 = _oracle(cfg, "oracle", "exp_family nu=1 theta=0", domain)
    sol1 = _oracle(cfg, "oracle_b", "exp_family nu=1 theta=0.9272952180016123", domain)
    result = cauchy_riccati(sol0.Q, sol1.Q, cfg.contour, sol0.nu, tolerance=tol, refine=cfg.refine)
    return result, {}


def _run_cauchy_schrodinger(cfg: RunConfig, tol: float):
    domain = cfg.domain or _CENTRED_SQUARE
    f = _load(cfg.f, "exp(x)", domain)
    u = _load(cfg.u, "exp(0.6*x+0.8*y)", domain)
    nu = _load(cfg.nu, "1", domain)
    return cauchy_schrodinger(f, u, cfg.contour, nu, tolerance=tol, refine=cfg.refine), {}


def _run_laplace(cfg: RunConfig, tol: float):
    """cauchy-schrodinger at nu = 0 with f = 1 (int u_z dz = 0) and with u = 1
    (Re int d_z(1/f) dz = 0): the larger residual, both halves' rows."""
    domain = cfg.domain or _CENTRED_SQUARE
    u = _load(cfg.u, "x**2-y**2", domain)
    f = _load(cfg.f, "4+x", domain)
    one, zero = Field(domain, 1.0), Field(domain, 0.0)
    gamma, refine = cfg.contour, cfg.refine
    r1 = cauchy_schrodinger(one, u, gamma, zero, tolerance=tol, refine=refine)
    r2 = cauchy_schrodinger(f, one, gamma, zero, tolerance=tol, refine=refine)
    # a NaN residual fails: max() would keep a number before it
    residual = max(r1.value, r2.value, key=lambda r: math.inf if math.isnan(r) else r)
    return verdict("laplace-reductions", residual, tol, r1.refinement + r2.refinement), {}


# case -> (runner, default tolerance); `case = all` runs them in name order
_CASE_TABLE = {
    "riccati-residual": (_run_riccati_residual, 1e-10),
    "darboux": (_run_darboux, 1e-8),
    "euler1": (_run_euler1, 1e-8),
    "euler2-baseline": (_run_euler2, 1e-8),
    "picard": (_run_picard, 1e-8),
    "cauchy-riccati": (_run_cauchy_riccati, 1e-10),
    "cauchy-schrodinger": (_run_cauchy_schrodinger, 1e-10),
    "laplace-reductions": (_run_laplace, 1e-10),
}
CASES = (*_CASE_TABLE, "all")

# config key -> converter; the keys are the whole config vocabulary
_PARSERS = {
    "case": _checked(
        str, lambda v: v in CASES, f"is an unknown case (choose from {', '.join(CASES)})"
    ),
    "domain": _bounds,
    "base": _point,
    **dict.fromkeys(_ORACLE_KEYS, _parse_oracle),
    "f": _source,
    "u": _source,
    "nu": _source,
    "w": _w,
    "z0": _point,
    "n_terms": _degree,
    "contour": _contour,
    "tolerance": _positive_real,
    "refine": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate line-oriented config text, converting each value once."""
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = _PARSERS[key](value)
        except (ValueError, ToolkitError) as exc:
            raise ConfigError(f"bad {key} {value!r}: {exc}", lineno) from None
        lines[key] = lineno

    if "case" not in values:
        raise ConfigError("missing required key 'case'")
    bounds, base = values.pop("domain", None), values.pop("base", None)
    oracles = {key: values.pop(key) for key in _ORACLE_KEYS if key in values}
    cfg = RunConfig(raw_text=text, oracles=oracles, **values)
    if base is not None and bounds is None:
        raise ConfigError("base needs a 'domain = ...' line", lines["base"])
    if bounds is not None:
        try:
            cfg.domain = DomainSpec(*bounds, base)
        except ToolkitError as exc:
            raise ConfigError(f"bad domain: {exc}", lines["domain"]) from None
    _check_refine(cfg, lines.get("refine", lines.get("contour")))
    if "z0" in lines:
        _check_z0(cfg, lines["z0"])
    elif cfg.case in ("euler2-baseline", "all"):
        _check_z0(cfg, lines.get("domain"), "the default z0")
    if cfg.case in ("cauchy-riccati", "cauchy-schrodinger", "laplace-reductions", "all"):
        try:  # the contour cases integrate on the rectangle of _check_z0
            cfg.contour.check_inside(cfg.domain or _CENTRED_SQUARE)
        except DomainError as exc:
            name = "contour" if "contour" in lines else "the default contour"
            raise ConfigError(f"{name}: {exc}", lines.get("contour", lines.get("domain"))) from None
    _validate_requirements(cfg)
    return cfg


def _check_refine(cfg: RunConfig, line: Optional[int] = None) -> None:
    """refine >= 0, and the finest contour level evaluates at most _MAX_CONTOUR_NODES
    integrand points per circle or polyline segment."""
    points = cfg.contour.integrand_points()
    if cfg.refine < 0:
        raise ConfigError(f"refine must be >= 0, got {cfg.refine}", line)
    # every contour has resolution >= 1, so refine > 20 always overflows the cap
    if cfg.refine > 20 or points << cfg.refine > _MAX_CONTOUR_NODES:
        raise ConfigError(
            f"refine = {cfg.refine} takes a contour of {points} integrand points (per circle "
            f"or polyline segment) past {_MAX_CONTOUR_NODES} points",
            line,
        )


def _check_z0(cfg: RunConfig, line: Optional[int], name: str = "z0") -> None:
    """z0 strictly inside the rectangle W is built on, and so is the default test square."""
    dom = cfg.domain or _CENTRED_SQUARE
    h = 0.0 if cfg.domain else _TEST_HALF_WIDTH
    x, y = cfg.z0.x, cfg.z0.y
    margin = min(x - dom.x_min, dom.x_max - x, y - dom.y_min, dom.y_max - y)
    if not (margin > 0 and margin >= h):
        where = f"has its test square z0 +- {h} outside the default" if h else "is not inside the"
        raise ConfigError(
            f"{name} = ({x:g}, {y:g}) {where} domain "
            f"[{dom.x_min:g}, {dom.x_max:g}] x [{dom.y_min:g}, {dom.y_max:g}]",
            line,
        )


_NEEDS_DOMAIN = {"darboux", "euler2-baseline", "cauchy-schrodinger", "laplace-reductions"}


def _validate_requirements(cfg: RunConfig) -> None:
    if cfg.case in _NEEDS_DOMAIN and cfg.domain is None and (cfg.f or cfg.u or cfg.w):
        raise ConfigError(
            f"case {cfg.case} reads f, u or w, so it needs a "
            "'domain = x_min x_max y_min y_max [nx ny]' line"
        )
    if cfg.case == "picard" and cfg.oracles and len(cfg.oracles) != 4:
        raise ConfigError("picard needs four oracle lines (oracle, oracle_b, oracle_c, oracle_d)")


def run(cfg: RunConfig, dump_dir: Optional[str] = None) -> dict:
    """Execute the configured case (or the whole default suite) and build a report.

    An exception in one case becomes that case's failed entry, with its class
    name in ``error_type``; one that is not a ToolkitError also prints its
    traceback to stderr.  Only an OSError (exit 3) ends the run.
    """
    cases = sorted(_CASE_TABLE) if cfg.case == "all" else [cfg.case]
    identities = []
    for case in cases:
        runner, default_tol = _CASE_TABLE[case]
        tol = cfg.tolerance or default_tol
        start = time.perf_counter()
        try:
            outcome, fields = runner(cfg, tol)
        except OSError:
            raise
        except Exception as exc:
            if not isinstance(exc, ToolkitError):  # a defect, not a verdict: keep its traceback
                sys.excepthook(type(exc), exc, exc.__traceback__)
            outcome, fields = exc, {}
        entry = _report_entry(case, tol, outcome)
        entry["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        if dump_dir and fields:
            _dump_fields(dump_dir, case, fields)
        identities.append(entry)
    return {
        "config": cfg.raw_text,
        "identities": identities,
        "overall_pass": all(entry["pass"] for entry in identities),
    }


def _finite(v):
    return v if math.isfinite(v) else None


def _report_entry(case: str, tol: float, outcome) -> dict:
    """The entry of a case from its identity's Check or the exception it raised (and a
    failed gate's Check); a non-finite number is None, so the report is strict JSON."""
    check = outcome if isinstance(outcome, Check) else Check(case, math.nan, tol, False)
    entry = {
        "case": case,
        "residual": _finite(check.value),
        "tolerance": check.limit,
        "pass": check.passed,
        "refinement": [[r, _finite(v)] for r, v in check.refinement],
    }
    if check is not outcome:
        entry.update(reason=str(outcome), error_type=type(outcome).__name__)
    if isinstance(outcome, GateError):
        gate = outcome.check
        at = None if gate.at is None else [_finite(c) for c in gate.at]
        entry.update(what=gate.what, value=_finite(gate.value), limit=_finite(gate.limit), at=at)
    return entry


def _dump_fields(dump_dir: str, case: str, fields: dict) -> None:
    import os

    os.makedirs(dump_dir, exist_ok=True)
    for name, f in fields.items():
        write_grid_csv(os.path.join(dump_dir, f"{case}_{name}.csv"), f.to_grid())


def mask_timings(report: dict) -> dict:
    """Copy of a report with timing fields zeroed, for golden comparisons."""
    masked = json.loads(json.dumps(report))
    for entry in masked["identities"]:
        entry["elapsed_ms"] = 0.0
    return masked


def _toolkit_error_names(cls: type = ToolkitError) -> set[str]:
    return {cls.__name__}.union(*map(_toolkit_error_names, cls.__subclasses__()))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify", description="Run identity verification suites from a config file."
    )
    parser.add_argument("--config", required=True, help="path to a line-oriented config file")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--dump-fields", metavar="DIR", help="dump residual fields as CSV")
    parser.add_argument(
        "--refine", type=int, default=None, help="override the config's refinement levels"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3

    try:
        cfg = parse_config(text)
        if args.refine is not None:
            cfg.refine = args.refine
            _check_refine(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(cfg, dump_dir=args.dump_fields)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    payload = json.dumps(report, indent=2, allow_nan=False)  # non-finite values are null
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 3
    else:
        print(payload)
    toolkit_errors = _toolkit_error_names()
    if any(e.get("error_type", "ToolkitError") not in toolkit_errors for e in report["identities"]):
        return 4
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

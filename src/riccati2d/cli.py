"""Command-line front end: parse a run config, execute identity checks,
emit a JSON report.

Config grammar is line-oriented ``key = value`` with ``#`` comments.  Exit
status: 0 all identities pass, 1 at least one fails, 2 config/usage error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ConfigError, ExpressionError, ToolkitError
from .expressions import parse_expression
from .field import (
    ComplexField,
    DomainSpec,
    ExprField,
    Point,
    ScalarField,
    laplacian,
    max_abs,
    read_grid_csv,
    write_grid_csv,
)
from . import oracle
from .oracle import OracleSolution
from .quadrature import AntiderivativeConfig, Contour
from .riccati import (
    RiccatiProblem,
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
    IdentityResult,
    analytic_exp,
    analytic_power,
    cauchy_laplace_reductions,
    cauchy_riccati,
    cauchy_schrodinger,
    euler_second_baseline,
    picard_identity,
)

CASES = (
    "riccati-residual",
    "darboux",
    "euler1",
    "euler2-baseline",
    "picard",
    "cauchy-riccati",
    "cauchy-schrodinger",
    "laplace-reductions",
    "all",
)

_KNOWN_KEYS = {
    "case",
    "domain",
    "base",
    "oracle",
    "oracle_b",
    "oracle_c",
    "oracle_d",
    "f",
    "u",
    "nu",
    "w",
    "z0",
    "n_terms",
    "contour",
    "tolerance",
    "refine",
}


@dataclass
class RunConfig:
    case: str
    raw_text: str
    domain: Optional[DomainSpec] = None
    base: Optional[Point] = None
    oracles: dict = dc_field(default_factory=dict)  # key -> (constructor name, args)
    f_spec: Optional[str] = None
    u_spec: Optional[str] = None
    nu_spec: Optional[str] = None
    w_spec: Optional[str] = None
    z0: Point = Point(0.0, 0.0)
    n_terms: int = 10
    contour_spec: Optional[str] = None
    tolerance: Optional[float] = None
    refine: int = 0


def _parse_domain(value: str, line: int) -> DomainSpec:
    parts = value.split()
    if len(parts) not in (4, 6):
        raise ConfigError("domain needs 'x_min x_max y_min y_max [nx ny]'", line)
    try:
        x0, x1, y0, y1 = map(float, parts[:4])
        nx, ny = (int(parts[4]), int(parts[5])) if len(parts) == 6 else (41, 41)
        return DomainSpec(x0, x1, y0, y1, nx, ny)
    except (ValueError, ToolkitError) as exc:
        raise ConfigError(f"invalid domain: {exc}", line) from None


def _parse_point(value: str, line: int, what: str) -> Point:
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{what} needs two coordinates", line)
    try:
        return Point(float(parts[0]), float(parts[1]))
    except (ValueError, ToolkitError) as exc:
        raise ConfigError(f"invalid {what}: {exc}", line) from None


def _validate_field_spec(value: str, line: int) -> str:
    """A field source is either 'csv PATH' or expression text (parsed eagerly)."""
    if value.startswith("csv "):
        return value
    try:
        parse_expression(value)
    except ExpressionError as exc:
        raise ConfigError(f"bad expression {value!r}: {exc}", line) from None
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate line-oriented config text."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[key] = value
        lines[key] = lineno

    if "case" not in values:
        raise ConfigError("missing required key 'case'")
    case = values["case"]
    if case not in CASES:
        raise ConfigError(f"unknown case {case!r} (choose from {', '.join(CASES)})", lines["case"])

    cfg = RunConfig(case=case, raw_text=text)
    if "domain" in values:
        cfg.domain = _parse_domain(values["domain"], lines["domain"])
    if "base" in values:
        cfg.base = _parse_point(values["base"], lines["base"], "base")
        if cfg.domain is not None:
            cfg.domain = DomainSpec(
                cfg.domain.x_min,
                cfg.domain.x_max,
                cfg.domain.y_min,
                cfg.domain.y_max,
                cfg.domain.nx,
                cfg.domain.ny,
                cfg.base,
            )
    for key in ("oracle", "oracle_b", "oracle_c", "oracle_d"):
        if key in values:
            cfg.oracles[key] = _parse_oracle(values[key], lines[key])
    for attr, key in (("f_spec", "f"), ("u_spec", "u"), ("nu_spec", "nu")):
        if key in values:
            setattr(cfg, attr, _validate_field_spec(values[key], lines[key]))
    if "w" in values:
        cfg.w_spec = values["w"]
        _parse_w(values["w"], cfg.domain or DomainSpec(-1, 1, -1, 1), lines["w"])
    if "z0" in values:
        cfg.z0 = _parse_point(values["z0"], lines["z0"], "z0")
    if "n_terms" in values:
        try:
            cfg.n_terms = int(values["n_terms"])
        except ValueError:
            raise ConfigError("n_terms must be an integer", lines["n_terms"]) from None
    if "contour" in values:
        cfg.contour_spec = values["contour"]
        _parse_contour(values["contour"], lines["contour"], base=Point(0, 0))
    if "tolerance" in values:
        try:
            cfg.tolerance = float(values["tolerance"])
        except ValueError:
            raise ConfigError("tolerance must be a number", lines["tolerance"]) from None
        if cfg.tolerance <= 0:
            raise ConfigError("tolerance must be positive", lines["tolerance"])
    if "refine" in values:
        try:
            cfg.refine = int(values["refine"])
        except ValueError:
            raise ConfigError("refine must be an integer", lines["refine"]) from None

    _validate_requirements(cfg)
    return cfg


_NEEDS_DOMAIN = {"darboux", "euler2-baseline", "cauchy-schrodinger", "laplace-reductions"}


def _validate_requirements(cfg: RunConfig) -> None:
    if cfg.case in _NEEDS_DOMAIN and cfg.domain is None and (
        cfg.f_spec or cfg.u_spec or cfg.w_spec
    ):
        raise ConfigError(
            f"case {cfg.case} reads f, u or w, so it needs a "
            "'domain = x_min x_max y_min y_max [nx ny]' line"
        )
    if cfg.case == "picard" and cfg.oracles and len(cfg.oracles) != 4:
        raise ConfigError("picard needs four oracle lines (oracle, oracle_b, oracle_c, oracle_d)")


def _checked(convert, ok, complaint: str):
    """Converter of parameter text that also requires ``ok(value)``."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{text!r} {complaint}")
        return value

    return check


_real = _checked(float, math.isfinite, "is not finite")
_nonnegative_real = _checked(_real, lambda v: v >= 0, "is negative")
_nonnegative_int = _checked(int, lambda v: v >= 0, "is negative")
_branch = _checked(str, lambda v: v in ("exp", "cosh"), "is not exp or cosh")
_harmonic_kind = _checked(
    str, lambda v: v in ("translate", "monomial"), "is not translate or monomial"
)


def _shift(text: str) -> Point:
    x, y = text.split(",")
    return Point(_real(x), _real(y))


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


def _parse_oracle(spec: str, line: Optional[int] = None) -> tuple:
    """Parse 'family key=value ...' into (constructor name, typed positional args)."""
    parts = spec.split()
    if not parts:
        raise ConfigError("empty oracle spec", line)
    if parts[0] not in _ORACLE_FAMILIES:
        raise ConfigError(f"unknown oracle family {parts[0]!r}", line)
    name, params = _ORACLE_FAMILIES[parts[0]]
    given: dict[str, str] = {}
    for item in parts[1:]:
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"oracle parameter {item!r} must be key=value", line)
        given[key] = text
    known = [key for key, _, _ in params]
    for key in given:
        if key not in known:
            raise ConfigError(
                f"unknown {parts[0]} parameter {key!r} (choose from {', '.join(known)})", line
            )
    args = []
    for key, convert, default in params:
        try:
            args.append(convert(given[key]) if key in given else default)
        except (ValueError, ToolkitError) as exc:
            raise ConfigError(f"bad oracle parameter {key}={given[key]!r}: {exc}", line) from None
    return name, tuple(args)


def _oracle(
    cfg: RunConfig, key: str, default: str, domain: Optional[DomainSpec] = None
) -> OracleSolution:
    name, args = cfg.oracles.get(key) or _parse_oracle(default)
    return getattr(oracle, name)(*args, domain=domain)


def _parse_contour(spec: str, line: int = 0, base: Point = Point(0, 0)) -> Contour:
    parts = spec.split()
    try:
        if parts[0] == "circle":
            cx, cy, radius = map(float, parts[1:4])
            n = int(parts[4]) if len(parts) > 4 else 256
            return Contour.circle(cx, cy, radius, n)
        if parts[0] == "polyline":
            coords = list(map(float, parts[1:]))
            if len(coords) % 2 == 1:
                n_per = int(coords[-1])
                coords = coords[:-1]
            else:
                n_per = 32
            pts = list(zip(coords[0::2], coords[1::2]))
            return Contour.polyline(pts, n_per)
        if parts[0] == "lpath":
            end = Point(float(parts[1]), float(parts[2])) if len(parts) > 2 else Point(1.0, 1.0)
            return Contour.lpath(base, end)
    except (ValueError, IndexError, ToolkitError) as exc:
        raise ConfigError(f"bad contour spec {spec!r}: {exc}", line) from None
    raise ConfigError(f"unknown contour kind {parts[0]!r}", line)


def _load_field(spec: str, domain: DomainSpec) -> ScalarField:
    if spec.startswith("csv "):
        return read_grid_csv(spec[4:].strip())
    return ExprField(domain, parse_expression(spec))


def _parse_w(spec: str, domain: DomainSpec, line: int = 0) -> ComplexField:
    parts = spec.split()
    if parts[0] == "expz":
        return analytic_exp(domain)
    if parts[0] == "zpow":
        try:
            return analytic_power(int(parts[1]), domain)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"bad w spec {spec!r}: {exc}", line) from None
    raise ConfigError(f"unknown w spec {spec!r} (use 'expz' or 'zpow N')", line)


# ---------------------------------------------------------------------------
# Case runners.  Each returns (IdentityResult, fields-to-dump dict).
# ---------------------------------------------------------------------------


def _default_problem(domain: DomainSpec, nu: ScalarField) -> RiccatiProblem:
    return RiccatiProblem(nu, domain, AntiderivativeConfig(domain.base))


def _run_riccati_residual(cfg: RunConfig):
    sol = _oracle(cfg, "oracle", "exp_family nu=1 theta=0.9272952180016123")
    prob = sol.problem()
    Q = log_derivative(sol.u)
    resid = riccati_residual(Q, prob)
    residual = max(max_abs(resid), max_abs(schrodinger_residual(sol.u, prob)))
    result = IdentityResult(
        "riccati-residual",
        residual,
        cfg.tolerance or 1e-10,
        [(float(prob.domain.nx), residual)],
    )
    return result, {"riccati_residual_re": resid.re, "riccati_residual_im": resid.im}


def _run_darboux(cfg: RunConfig):
    domain = cfg.domain or DomainSpec(0, 1, 0, 1, 41, 41, Point(0, 0))
    f = _load_field(cfg.f_spec or "exp(x)", domain)
    u = _load_field(cfg.u_spec or "exp(0.6*x+0.8*y)", domain)
    nu = _load_field(cfg.nu_spec or "1", domain)
    prob = _default_problem(domain, nu)
    v = darboux_v_from_u(u, f, prob)
    eta = darboux_potential_eta(f, prob)
    darboux_resid = -laplacian(v) + eta * v
    r1 = max_abs(darboux_resid, nx=21, ny=21)
    u_back = darboux_u_from_v(v, f, prob)
    alpha = (u_back.evaluate(domain.base) - u.evaluate(domain.base)) / f.evaluate(domain.base)
    xg, yg = domain.mesh(21, 21)
    r2 = float(np.max(np.abs(u_back(xg, yg) - alpha * f(xg, yg) - u(xg, yg))))
    residual = max(r1, r2)
    result = IdentityResult("darboux", residual, cfg.tolerance or 1e-8, [(21.0, residual)])
    return result, {"darboux_conjugate": v}


def _run_euler1(cfg: RunConfig):
    sol0 = _oracle(cfg, "oracle", "exp_family nu=1 theta=0")
    sol1 = _oracle(cfg, "oracle_b", "exp_family nu=1 theta=0.9272952180016123", sol0.domain)
    prob = sol0.problem()
    W = euler_first_W_from_Q(sol1.Q, sol0.Q, prob)
    f0 = exp_reconstruct(sol0.Q, prob)
    r1 = max_abs(vekua_residual(W, f0), nx=15, ny=15)
    Q_back = euler_first_Q_from_W(W)
    xg, yg = prob.domain.mesh(15, 15)
    r2 = float(np.max(np.abs(Q_back(xg, yg) - sol1.Q(xg, yg))))
    residual = max(r1, r2)
    result = IdentityResult("euler1", residual, cfg.tolerance or 1e-8, [(15.0, residual)])
    return result, {"euler1_W_re": W.re, "euler1_W_im": W.im}


def _run_euler2(cfg: RunConfig):
    domain = cfg.domain or DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0, 0))
    W = _parse_w(cfg.w_spec or "expz", domain)
    if cfg.domain is not None:
        region = cfg.domain
    else:
        # square comfortably inside the coefficient circle's convergence sweet
        # spot, so truncation and coefficient noise both stay below tolerance
        h = 0.28
        region = DomainSpec(cfg.z0.x - h, cfg.z0.x + h, cfg.z0.y - h, cfg.z0.y + h, 33, 33)
    result = euler_second_baseline(
        W, cfg.z0, cfg.n_terms, region=region, tolerance=cfg.tolerance or 1e-8
    )
    return result, {}


def _run_picard(cfg: RunConfig):
    defaults = {
        "oracle": "separable nu1=1 nu2=0 branch1=cosh shift1=1",
        "oracle_b": "separable nu1=0 nu2=1 branch2=cosh shift2=1",
        "oracle_c": "exp_family nu=1 theta=0",
        "oracle_d": "exp_family nu=1 theta=0.9272952180016123",
    }
    domain = cfg.domain or DomainSpec(0, 1, 0, 1, 41, 41, Point(0, 0))
    sols = [_oracle(cfg, key, spec, domain) for key, spec in defaults.items()]
    prob = sols[0].problem()
    result = picard_identity(*(s.Q for s in sols), prob, tolerance=cfg.tolerance or 1e-8)
    return result, {}


def _run_cauchy_riccati(cfg: RunConfig):
    domain = cfg.domain or DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0, 0))
    sol0 = _oracle(cfg, "oracle", "exp_family nu=1 theta=0", domain)
    sol1 = _oracle(cfg, "oracle_b", "exp_family nu=1 theta=0.9272952180016123", domain)
    gamma = _parse_contour(cfg.contour_spec or "circle 0 0 1 256", base=domain.base)
    prob = sol0.problem()
    result = cauchy_riccati(
        sol0.Q, sol1.Q, gamma, prob, tolerance=cfg.tolerance or 1e-10, refine=cfg.refine
    )
    return result, {}


def _run_cauchy_schrodinger(cfg: RunConfig):
    domain = cfg.domain or DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0, 0))
    f = _load_field(cfg.f_spec or "exp(x)", domain)
    u = _load_field(cfg.u_spec or "exp(0.6*x+0.8*y)", domain)
    nu = _load_field(cfg.nu_spec or "1", domain)
    gamma = _parse_contour(cfg.contour_spec or "circle 0 0 1 256", base=domain.base)
    prob = _default_problem(domain, nu)
    result = cauchy_schrodinger(
        f, u, gamma, prob, tolerance=cfg.tolerance or 1e-10, refine=cfg.refine
    )
    return result, {}


def _run_laplace(cfg: RunConfig):
    domain = cfg.domain or DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0, 0))
    u = _load_field(cfg.u_spec or "x**2-y**2", domain)
    f = _load_field(cfg.f_spec or "4+x", domain)
    gamma = _parse_contour(cfg.contour_spec or "circle 0 0 1 256", base=domain.base)
    tol = cfg.tolerance or 1e-10
    r1 = cauchy_laplace_reductions(u, gamma, kind="derivative", tolerance=tol, refine=cfg.refine)
    r2 = cauchy_laplace_reductions(f, gamma, kind="reciprocal", tolerance=tol, refine=cfg.refine)
    residual = max(r1.residual, r2.residual)
    table = r1.refinement_table + r2.refinement_table
    return IdentityResult("laplace-reductions", residual, tol, table), {}


_RUNNERS = {
    "riccati-residual": _run_riccati_residual,
    "darboux": _run_darboux,
    "euler1": _run_euler1,
    "euler2-baseline": _run_euler2,
    "picard": _run_picard,
    "cauchy-riccati": _run_cauchy_riccati,
    "cauchy-schrodinger": _run_cauchy_schrodinger,
    "laplace-reductions": _run_laplace,
}


def run(cfg: RunConfig, dump_dir: Optional[str] = None) -> dict:
    """Execute the configured case (or the whole default suite) and build a report."""
    cases = sorted(_RUNNERS) if cfg.case == "all" else [cfg.case]
    identities = []
    overall = True
    for case in cases:
        start = time.perf_counter()
        try:
            result, fields = _RUNNERS[case](cfg)
            entry = result.to_dict()
            entry["case"] = case
        except ToolkitError as exc:
            entry = {
                "case": case,
                "residual": None,
                "tolerance": cfg.tolerance,
                "pass": False,
                "refinement": [],
                "reason": str(exc),
            }
            fields = {}
        entry["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        if dump_dir and fields:
            _dump_fields(dump_dir, case, fields)
        identities.append(entry)
        overall = overall and entry["pass"]
    return {
        "config": cfg.raw_text,
        "identities": identities,
        "overall_pass": overall,
    }


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
    except (ConfigError, ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.refine is not None:
        cfg.refine = args.refine

    try:
        report = run(cfg, dump_dir=args.dump_fields)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    payload = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 3
    else:
        print(payload)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

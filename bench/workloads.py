"""Seeded workloads of the riccati2d benchmark.

Each workload is one cycle of operations, repeated by a single closed-loop
client.  ``build`` writes the workload's inputs (configs) into a scratch
directory and returns the operations.  The seed changes parameters only
(angles, frequencies), never problem sizes, and every range is chosen so
that the expression trees, grid sizes and refinement levels are the same for
every seed.

Every operation has an untimed check: the CLI workloads compare each
identity's verdict with the expected one, ``antiderivative-mesh`` compares
the sampled antiderivative with the closed form.  A miss is counted, never
hidden: the 401^2 mesh is kept although it misses the accuracy bound today.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

WHY = {
    "suite": "case = all is what a user runs; it spreads the work over oracle "
    "self-checks, riccati, theorems, cli parse/report and some quadrature",
    "darboux-mesh": "darboux at 41^2, 81^2, 161^2 is dominated by expression-tree "
    "evaluation; it exercises hash-consing and memoising Expr",
    "antiderivative-mesh": "op_A sampled on 201^2/401^2 meshes against a closed form; "
    "the only integrands past 2 panels, and 401^2 hits the _MAX_BATCH cap",
}
WORKLOADS = tuple(WHY)

# ROADMAP item 2 asks for <= 1e-9 at any mesh size; an error above this
# share of the antiderivative's range is no longer the right quantity at all
ACCURACY_BOUND = 1e-9
GROSS_ERROR_SHARE = 1e-6
# residuals of double-precision identities cannot mean more digits than this
RESIDUAL_FLOOR = 2.0**-56

# about equal time at each size; the 161^2 op stays rare enough that the
# tail percentile lands among the 81^2 ops at any machine speed
DARBOUX_CYCLE = (161,) + (81,) * 5 + (41,) * 10
# the 401^2 ops are frequent enough that the tail lands among them
MESH_CYCLE = (201, 201, 401)
MESH_SPAN = 3.0


@dataclass
class Outcome:
    """What the untimed check found for one operation."""

    ok: bool  # verdicts as expected and accuracy within its bound
    correct: bool  # the output is the right quantity (no raise, no wrong verdict)
    verdicts: int = 0
    samples: int = 0
    error: float = 0.0  # largest identity residual or antiderivative error
    report_bytes: int = 0
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[dict] = field(default_factory=list)
    setup_config: Optional[str] = None  # config text parsed by the set-up probe


def _angle(rng: random.Random, centre: float, spread: float) -> float:
    return centre + rng.uniform(-spread, spread)


def _exp_text(theta: float) -> str:
    return f"exp({math.cos(theta)!r}*x + {math.sin(theta)!r}*y)"


def _write(workdir: str, name: str, text: str, inputs: list[dict]) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    inputs.append({"file": name, "text": text})
    return path


def _cli_op(cli, kind: str, cfg_path: str, out_path: str, expected: tuple[str, ...]) -> Op:
    def run():
        return cli.main(["--config", cfg_path, "--out", out_path])

    def check(status) -> Outcome:
        with open(out_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        entries = report["identities"]
        cases = tuple(entry["case"] for entry in entries)
        wrong = [entry["case"] for entry in entries if entry["pass"] is not True]
        residuals = [entry["residual"] for entry in entries]
        good = status == 0 and cases == expected and not wrong and None not in residuals
        for entry in entries:
            entry["elapsed_ms"] = 0.0
        return Outcome(
            ok=good,
            correct=good,
            verdicts=len(entries),
            samples=sum(len(entry["refinement"]) for entry in entries),
            error=max((r for r in residuals if r is not None), default=math.inf),
            report_bytes=len(json.dumps(report, indent=2)) + 1,
            detail="" if good else f"exit {status}, cases {cases}, failed {wrong}",
        )

    return Op(kind, run, check)


def _suite(cli, rng, workdir, w: Workload) -> None:
    # four exp_family angles, one per quadrant, so no oracle pair is degenerate
    thetas = [_angle(rng, (k + 0.5) * math.pi / 2, 0.3) for k in range(4)]
    keys = ("oracle", "oracle_b", "oracle_c", "oracle_d")
    text = "case = all\n" + "".join(
        f"{key} = exp_family nu=1 theta={t!r}\n" for key, t in zip(keys, thetas)
    )
    cfg = _write(workdir, "suite.cfg", text, w.inputs)
    expected = tuple(sorted(c for c in cli.CASES if c != "all"))
    w.ops.append(_cli_op(cli, "suite", cfg, os.path.join(workdir, "suite.json"), expected))
    w.setup_config = text


def _darboux(cli, rng, workdir, w: Workload) -> None:
    # nu = 1 solutions exp(cos t x + sin t y); angles stay off the axes so that
    # constant folding never shrinks the trees for one seed and not another
    u_theta = _angle(rng, 0.93, 0.2)
    f_theta = _angle(rng, -0.5, 0.2)
    ops = {}
    for n in sorted(set(DARBOUX_CYCLE)):
        text = (
            "case = darboux\n"
            f"domain = 0 1 0 1 {n} {n}\n"
            f"u = {_exp_text(u_theta)}\n"
            f"f = {_exp_text(f_theta)}\n"
        )
        cfg = _write(workdir, f"darboux-{n}.cfg", text, w.inputs)
        out = os.path.join(workdir, f"darboux-{n}.json")
        ops[n] = _cli_op(cli, f"darboux-{n}", cfg, out, ("darboux",))
    w.ops.extend(ops[n] for n in DARBOUX_CYCLE)
    w.setup_config = w.inputs[0]["text"]


def _mesh_op(pkg, n: int, a: float, b: float, c: float) -> Op:
    text = f"sin({a!r}*x)*cosh({b!r}*y) + x*cos({c!r}*y)"

    def closed_form(x, y):
        return np.sin(a * x) * np.cosh(b * y) + x * np.cos(c * y)

    def run():
        domain = pkg.DomainSpec(0.0, MESH_SPAN, 0.0, MESH_SPAN, n, n, pkg.Point(0.0, 0.0))
        phi = pkg.ExprField(domain, text)
        return pkg.op_A(pkg.d_z(phi), pkg.AntiderivativeConfig(domain.base)).sample()

    def check(values) -> Outcome:
        grid = np.linspace(0.0, MESH_SPAN, n)
        xg, yg = np.meshgrid(grid, grid)
        exact = closed_form(xg, yg) - closed_form(0.0, 0.0)
        error = float(np.max(np.abs(np.asarray(values) - exact)))
        scale = float(np.max(np.abs(exact)))
        correct = bool(np.shape(values) == exact.shape and error <= GROSS_ERROR_SHARE * scale)
        return Outcome(
            ok=correct and error <= ACCURACY_BOUND,
            correct=correct,
            verdicts=1,
            samples=int(exact.size),
            error=error if math.isfinite(error) else math.inf,
            detail=f"max error {error:.3e} (bound {ACCURACY_BOUND:g})",
        )

    return Op(f"mesh-{n}", run, check)


def _antiderivative(pkg, rng, workdir, w: Workload) -> None:
    # frequencies near (7, 3, 9): 201^2 needs 8 panels, 401^2 stops at the batch cap
    a, b, c = (v * (1.0 + rng.uniform(-0.02, 0.02)) for v in (7.0, 3.0, 9.0))
    w.inputs.append({"phi": f"sin({a!r}*x)*cosh({b!r}*y) + x*cos({c!r}*y)", "meshes": list(MESH_CYCLE)})
    w.ops.extend(_mesh_op(pkg, n, a, b, c) for n in MESH_CYCLE)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs of one workload for one seed and return its cycle."""
    import riccati2d
    import riccati2d.cli as cli

    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, [])
    if name == "suite":
        _suite(cli, rng, workdir, w)
    elif name == "darboux-mesh":
        _darboux(cli, rng, workdir, w)
    elif name == "antiderivative-mesh":
        _antiderivative(riccati2d, rng, workdir, w)
        w.setup_config = "case = all\n"
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w

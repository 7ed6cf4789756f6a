"""riccati2d benchmark: one seeded workload, one closed-loop client, one process.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it measures half
the time untraced and half traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it start with
``#`` and carry the run header and a readable copy of every metric.  Generated
inputs live in ``.bench_work/`` and are removed at exit; the result, header
included, stays in ``.bench_work/results/``, and a traced run also leaves the
spans of its first traced cycle there.  ``--workload all`` runs every
workload, each in its own process, and prints every metric of each.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "verdicts_per_s": "1/s",
    "samples_per_s": "1/s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

# fresh interpreter -> import riccati2d.cli plus the first parse_config
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import riccati2d.cli
with open(sys.argv[2], encoding="utf-8") as fh:
    riccati2d.cli.parse_config(fh.read())
print(repr(time.perf_counter() - start))
"""


@dataclass
class Sample:
    kind: str
    seconds: float
    outcome: workloads.Outcome
    trace: Optional[dict] = None
    spans: Optional[list] = None


def _import_program():
    """Import riccati2d from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "riccati2d", "__init__.py")):
        sys.exit(f"bench: no riccati2d sources under {SRC}")
    sys.path.insert(0, SRC)
    import riccati2d
    import riccati2d.cli  # noqa: F401  (the tracer wraps every module)

    if os.path.dirname(os.path.dirname(os.path.abspath(riccati2d.__file__))) != SRC:
        sys.exit(f"bench: riccati2d was imported from {riccati2d.__file__}, not {SRC}")
    return riccati2d


def _git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _header(args, pkg, w: workloads.Workload) -> dict:
    quad = pkg.quadrature
    return {
        "workload": w.name,
        "why": workloads.WHY[w.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client in one process",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "quadrature._MAX_BATCH": getattr(quad, "_MAX_BATCH", None),
        "quadrature.MAX_PANELS": getattr(quad, "MAX_PANELS", None),
        "inputs": w.inputs,
    }


def _setup_seconds(workdir: str, config_text: str) -> float:
    path = os.path.join(workdir, "setup-probe.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, SRC, path],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _run_op(op: workloads.Op, pkg=None) -> Sample:
    tracer = tracing.Tracer(pkg) if pkg is not None else None
    failure = None
    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            failure = traceback.format_exc()
        elapsed = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
    if failure is None:
        try:
            outcome = op.check(result)
        except Exception:
            failure = traceback.format_exc()
    if failure is not None:
        print(f"bench: operation {op.kind} failed:\n{failure}", file=sys.stderr)
        outcome = workloads.Outcome(ok=False, correct=False, error=math.nan, detail=failure.splitlines()[-1])
    if tracer is None:
        return Sample(op.kind, elapsed, outcome)
    return Sample(op.kind, elapsed, outcome, tracer.summary(), tracer.span_log())


def _run_cycles(w: workloads.Workload, seconds: float, pkg=None) -> list[Sample]:
    """Whole cycles until ``seconds`` have passed (at least one cycle)."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.extend(_run_op(op, pkg) for op in w.ops)
    return samples


def _tail(durations: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond it of the highest percentile with
    TAIL_BEYOND samples beyond it (the maximum when the run is shorter)."""
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _digits(samples: list[Sample]) -> float:
    errors = [s.outcome.error for s in samples if math.isfinite(s.outcome.error)]
    if not errors:
        return 0.0
    return -math.log10(max(max(errors), workloads.RESIDUAL_FLOOR))


def _breakdown(samples: list[Sample]) -> dict:
    kinds: dict[str, list[Sample]] = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {
        kind: {
            "ops": len(group),
            "failed": sum(not s.outcome.ok for s in group),
            "median_s": statistics.median(s.seconds for s in group),
            "accuracy_digits": _digits(group),
            "detail": group[-1].outcome.detail,
        }
        for kind, group in kinds.items()
    }


def _end_to_end(samples: list[Sample], setup_s: float) -> tuple[dict, dict]:
    durations = [s.seconds for s in samples]
    busy = sum(durations)
    tail, pct, beyond = _tail(durations)
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail,
        "verdicts_per_s": sum(s.outcome.verdicts for s in samples) / busy,
        "samples_per_s": sum(s.outcome.samples for s in samples) / busy,
        "accuracy_digits": _digits(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": sum(s.outcome.ok for s in samples) / len(samples),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    notes = {
        "op_s_tail": f"p{pct:.2f} of {len(samples)} operations, {beyond} beyond it",
        "per_kind": _breakdown(samples),
    }
    return metrics, notes


_COUNT_UNITS = ("count", "bytes", "bytes_computed")


def _per_layer(untraced: list[Sample], traced: list[Sample], cycle: int) -> tuple[dict, dict]:
    """Counters from the first traced cycle, times as medians over traced cycles."""
    cycles = [traced[i : i + cycle] for i in range(0, len(traced), cycle)]
    per_cycle = [
        tracing.layer_metrics(
            tracing.merge([s.trace for s in group]), sum(s.outcome.report_bytes for s in group)
        )
        for group in cycles
    ]
    metrics = {}
    for name, (value, unit) in per_cycle[0].items():
        if unit not in _COUNT_UNITS:
            value = statistics.median(m[name][0] for m in per_cycle)
        metrics[name] = {"value": value, "unit": unit}
    ratio = statistics.median(s.seconds for s in traced) / statistics.median(s.seconds for s in untraced)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    per_op = []
    for s in cycles[0]:
        counts = tracing.layer_metrics(tracing.merge([s.trace]), s.outcome.report_bytes)
        per_op.append({
            "kind": s.kind,
            "seconds": s.seconds,
            "accuracy_digits": _digits([s]),
            **{
                name: counts[name][0]
                for name in (
                    "quadrature.adaptive_calls",
                    "quadrature.integrand_points",
                    "quadrature.max_panels",
                    "quadrature.capped_calls",
                    "expressions.node_visits",
                )
            },
        })
    notes = {"traced_cycles": len(cycles), "per_op_first_cycle": per_op}
    spans = [{"kind": s.kind, "spans": s.spans} for s in cycles[0]]
    return metrics, notes, spans


def _measure(args) -> int:
    pkg = _import_program()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = workloads.build(args.workload, args.seed, workdir)
        header = _header(args, pkg, w)
        print("# header " + json.dumps(header), flush=True)
        setup_s = _setup_seconds(workdir, w.setup_config) if not args.trace else None
        warmup = _run_cycles(w, 0.0)
        if args.trace:
            untraced = _run_cycles(w, args.seconds / 2.0)
            traced = _run_cycles(w, args.seconds / 2.0, pkg)
            metrics, notes, spans = _per_layer(untraced, traced, len(w.ops))
            samples = untraced + traced
        else:
            samples = _run_cycles(w, args.seconds)
            metrics, notes = _end_to_end(samples, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": all(s.outcome.correct for s in warmup + samples),
        "attempted": len(samples),
        "failed": sum(not s.outcome.ok for s in samples),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(WORK, "results", name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"header": header, "notes": notes, "result": result}, fh, indent=1)
    if args.trace:
        with open(os.path.join(WORK, "results", name + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"header": header, "first_traced_cycle": spans}, fh)
    for metric, entry in metrics.items():
        print(f"# {metric} = {entry['value']:.6g} {entry['unit']}")
    print("# notes " + json.dumps(notes))
    print(json.dumps(result), flush=True)
    return 0


def _measure_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"# {name:20s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _measure_all(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for arcperm.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op starts when the previous one
returns.  A run repeats its workload's fixed op list ("a pass") until
--seconds is used up, checks every op's output after each pass (outside the
timed region) and prints the end-to-end metrics (--trace 0) or, from a run
that times half its passes untraced and half traced, the per-layer metrics
(--trace 1).  The metric names and units come from BENCHMARK.json.  The last
line of output is one JSON object: correct, attempted, failed, metrics.

End-to-end times are at a reference speed (see reference.py): a pass takes
a speed probe before it, after it and every PROBE_EVERY_S within it, and
scales each stretch of an op's work by the probes on either side of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
SETUP_SPAWNS = 21
SHOWN_FAILURES = 5
PROBE_EVERY_S = 0.2  # seconds between the speed probes of an untraced pass

if __name__ == "__main__" and not (SRC / "arcperm" / "__init__.py").is_file():
    sys.exit(f"error: no {SRC / 'arcperm'}; run from the root of an arcperm checkout")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from reference import REF_PROBE_S, Timeline  # noqa: E402


@dataclass
class Passes:
    walls: list[float] = field(default_factory=list)  # normalised seconds per pass
    latencies: list[list[float]] = field(default_factory=list)  # normalised seconds per op, per pass
    raw_walls: list[float] = field(default_factory=list)  # measured seconds per pass
    probes: list[float] = field(default_factory=list)  # measured seconds per probe
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def run_passes(workload, seconds: float, passes: Passes, tracer=None) -> Passes:
    """Run whole passes until ``seconds`` would be exceeded (at least one).
    Untraced passes take speed probes from a timer, inside ops too; traced
    passes take one before and one after, so no probe falls inside a span."""
    began = time.perf_counter()
    while True:
        ops = workload.make_ops()
        gc.collect()
        results, intervals = [], []
        t_pass = time.perf_counter()
        timeline = Timeline()
        timeline.take()
        with tracer.installed() if tracer else timeline.periodic(PROBE_EVERY_S):
            for op in ops:
                call = tracer.wrap(spans.OP_SPAN, op.call) if tracer else op.call
                t_op = time.perf_counter()
                try:
                    out, error = call(), None
                except Exception as exc:  # an op that raises counts as failed
                    out, error = None, f"{type(exc).__name__}: {exc}"
                intervals.append((t_op, time.perf_counter()))
                results.append((op, out, error))
        timeline.take()
        elapsed = time.perf_counter() - t_pass
        measured, scaled = zip(*(timeline.scaled(t0, t1) for t0, t1 in intervals))
        passes.latencies.append(list(scaled))
        passes.walls.append(sum(scaled))
        passes.raw_walls.append(sum(measured))
        passes.probes.extend(timeline.durations())
        for op, out, error in results:
            passes.attempted += 1
            reason = error or op.check(out)
            if reason is not None:
                passes.failed += 1
                passes.failures.append(f"{op.label}: {reason}")
        del results, ops
        if time.perf_counter() - began + elapsed > seconds:
            return passes


def op_latencies(passes: Passes) -> list[float]:
    """Each op's latency: its median over the run's passes.  A pass runs the
    same ops in the same order, so the k-th latency of every pass is one op's."""
    return [statistics.median(times) for times in zip(*passes.latencies)]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:  # verify-suite is a single op
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Run in a fresh interpreter: the import timed between two speed probes.
SETUP_CODE = """\
import time, reference
before = reference.probe()
t = time.perf_counter()
import arcperm.cli
elapsed = time.perf_counter() - t
print(reference.normalise(elapsed, before, reference.probe()))
"""


def setup_seconds() -> float:
    """Median over SETUP_SPAWNS fresh interpreters of the time to import
    arcperm.cli, at the reference speed.  Interpreter start-up is left out:
    no change to arcperm moves it."""
    # with bytecode caching on, as for an installed arcperm
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)  # writes bytecode
    times = [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                                  capture_output=True, text=True).stdout)
             for _ in range(SETUP_SPAWNS)]
    return statistics.median(times)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(workload, seconds: float) -> tuple[dict, Passes]:
    setup = setup_seconds()
    passes = run_passes(workload, seconds, Passes())
    latencies = op_latencies(passes)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(passes.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "op_p90_ms": percentile(latencies, 90) * 1000,
    }
    return values, passes


def per_layer(workload, seconds: float, trace_path: Path) -> tuple[dict, Passes]:
    passes = run_passes(workload, seconds / 2, Passes())
    untraced = len(passes.walls)
    tracer = spans.Tracer()
    run_passes(workload, seconds / 2, passes, tracer)
    tracer.write(trace_path)
    traced_walls = passes.walls[untraced:]
    count = len(traced_walls)
    self_s, calls = tracer.layer_totals()
    values = {
        "trace.overhead_s": statistics.median(traced_walls)
        - statistics.median(passes.walls[:untraced]),
        "trace.spans": len(tracer.start) / count,
    }
    for name in self_s:
        values[f"{name}.s"] = self_s[name] / count
        values[f"{name}.calls"] = calls[name] / count
    for name, total in tracer.counts.items():
        values[name] = total / count
    return values, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = workloads.build(args.workload, args.seed,
                               json.loads((BENCH_DIR / "expected.json").read_text()),
                               OUT_DIR / args.workload)
    # keep the long-lived inputs out of the collections a pass triggers
    gc.collect()
    gc.freeze()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workload.sizes, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "git_sha": git_sha(),
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        values, passes = per_layer(workload, args.seconds,
                                   OUT_DIR / f"trace-{args.workload}.json")
    else:
        values, passes = end_to_end(workload, args.seconds)

    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<32} {value:>14.6g} {metric['unit']}")
    print(f"{'passes':<32} {len(passes.walls):>14} "
          f"(op latencies of {len(passes.latencies[0])} ops; measured pass seconds "
          f"{' '.join(f'{w:.3f}' for w in passes.raw_walls)})")
    print(f"{'probe_ms':<32} {statistics.median(passes.probes) * 1000:>14.6g} "
          f"(median of {len(passes.probes)}; reference {REF_PROBE_S * 1000:g} ms)")
    print(f"{'failed_frac':<32} {passes.failed / passes.attempted:>14.6g} "
          f"({passes.failed} of {passes.attempted} ops)")
    for reason in passes.failures[:SHOWN_FAILURES]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

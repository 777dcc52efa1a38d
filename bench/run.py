"""qfrac benchmark: one seeded workload, timed, checked, printed as JSON.

    python3 bench/run.py --workload identities --seed 7 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it are the same numbers for people.  The library is
imported from ``src/`` of the checkout this script sits in; without it the
script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
LAYER_MODULES = ("core", "special", "fractional", "ivp", "checks", "expr", "cli", "errors")
# Layer aggregates reported as calls and self time per op, and as self time only.
CALL_LAYERS = (
    "core.q_integral", "core.q_integral_tail", "special.q_factorial_power",
    "special.q_gamma", "special.q_exp", "fractional.right_integral",
    "fractional.left_integral", "fractional.derivative", "ivp.q_mittag_leffler",
    "expr.operand",
)
SELF_LAYERS = (
    "core.nabla_q_n", "ivp.closed", "ivp.picard", "ivp.residual",
    "checks.run_suite", "cli.main",
)


def import_library():
    """Import qfrac from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    if not (src / "qfrac" / "__init__.py").is_file():
        sys.exit(f"bench: no qfrac sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import workloads

    lib = workloads.load_library()
    if Path(lib.qfrac.__file__).resolve().parent != (src / "qfrac").resolve():
        sys.exit(f"bench: imported qfrac from {lib.qfrac.__file__}, not from {src}")
    return lib


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, started by this script in a fresh interpreter.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--identity-rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    # Negative control of the self-tests: check a corrupted library.
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.identity_rep:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(args) -> float:
    """Median CPU time, at reference speed, of fresh interpreters that import
    qfrac and build the run's inputs."""
    from speed import speed_factor

    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times, factors = [], [speed_factor()]
    for _ in range(SETUP_PROBES):
        cpu = children_cpu()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(children_cpu() - cpu)
        factors.append(speed_factor())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(times) * statistics.fmean(factors)


def tail_latency(latencies):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:  # too few samples for a tail: report the maximum
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def src_lines() -> dict:
    lines = {}
    for module in LAYER_MODULES:
        path = ROOT / "src" / "qfrac" / f"{module}.py"
        lines[f"{module}.src_lines"] = (
            len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0)
    return lines


def end_to_end(result, setup_s: float) -> dict:
    untraced = [lat for lat, tr in zip(result.latencies, result.traced) if not tr]
    value, pct, n = tail_latency(untraced)
    headroom = result.gate.headroom
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(untraced) / result.busy_s, "1/s"),
        "op_p50_ms": (statistics.median(untraced) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms", f"p{pct:.2f} of {n} ops, 10 beyond it"),
        # Infinite only when no checked op had a non-zero error.
        "tol_headroom_digits": (headroom if math.isfinite(headroom) else 99.0, "digits"),
        "peak_rss_mb": (result.peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(result, agg: dict, tail_cache: int) -> dict:
    n = max(sum(result.traced), 1)
    metrics = {}
    for key in CALL_LAYERS:
        calls, _, self_s = agg.get(key, (0, 0.0, 0.0))
        metrics[f"{key}.calls"] = (calls / n, "count/op")
        metrics[f"{key}.self_s"] = (self_s / n, "s/op")
    for key in SELF_LAYERS:
        metrics[f"{key}.self_s"] = (agg.get(key, (0, 0.0, 0.0))[2] / n, "s/op")
    metrics["core.terms"] = (result.terms / n, "count/op")
    metrics["special.tail_cache_entries"] = (tail_cache, "count")
    metrics["ivp.picard.evaluations"] = (result.extra.get("picard_evaluations", 0) / n, "count/op")
    metrics["checks.records_passed_ratio"] = (result.extra.get("records_passed_ratio", 0.0), "ratio")
    metrics["cli.report_bytes"] = (result.extra.get("report_bytes", 0), "B")
    for name, lines in src_lines().items():
        metrics[name] = (lines, "lines")
    # From the untraced ops of this run: the tracer's own allocations would
    # inflate the collector's time in the traced ones.
    untraced_gc = [g for g, tr in zip(result.collector, result.traced) if not tr]
    metrics["python.gc_s"] = (sum(untraced_gc) / max(len(untraced_gc), 1), "s/op")
    traced_total = [x for x, tr in zip(result.latencies, result.traced) if tr]
    untraced_total = [x for x, tr in zip(result.latencies, result.traced) if not tr]
    overhead = (statistics.fmean(traced_total) - statistics.fmean(untraced_total)
                if traced_total and untraced_total else 0.0)
    metrics["trace.overhead_ms_per_op"] = (overhead * 1e3, "ms/op")
    return metrics


def merge_aggregates(parts) -> dict:
    merged = {}
    for part in parts:
        for key, (calls, total, self_s) in part.items():
            into = merged.setdefault(key, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += self_s
    return merged


def make_tracer(lib):
    from tracer import Tracer

    tracer = Tracer()
    tracer.prepare(lib.qfrac)
    if tracer.missing:
        print(f"bench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    return tracer


def identity_rep_main(args, lib) -> int:
    """Child mode: one report repetition, printed as one JSON line."""
    import workloads

    tracer = make_tracer(lib) if args.trace else None
    out = workloads.identity_rep(lib, args.seed, Path(args.out), tracer)
    if tracer is not None:
        out["agg"] = tracer.agg
        tracer.write_spans(OUT_DIR / "identities-spans.jsonl")
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    lib = import_library()
    import workloads

    args = parse_args(argv)
    if args.corrupt:
        workloads.corrupt_library(lib)
    if args.identity_rep:
        return identity_rep_main(args, lib)
    if args.probe_setup:
        workloads.build_inputs(lib, args.workload, args.seed, args.seconds)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    setup_s = measure_setup(args)
    if args.workload == "identities":
        reports = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
        result = workloads.run_identities(ROOT, args.seed, args.seconds, bool(args.trace),
                                          reports, args.corrupt)
        agg = merge_aggregates(result.extra.get("agg", []))
        tail_cache = result.extra["tail_cache_entries"]
    else:
        inputs = workloads.build_inputs(lib, args.workload, args.seed, args.seconds)
        tracer = make_tracer(lib) if args.trace else None
        run = workloads.run_pointwise if args.workload == "pointwise" else workloads.run_ivp
        result = run(lib, inputs, args.seconds, tracer)
        agg = tracer.agg if tracer is not None else {}
        tail_cache = workloads.tail_cache_entries(lib)
        if tracer is not None:
            tracer.write_spans(OUT_DIR / f"{args.workload}-spans.jsonl")

    gate = result.gate
    if args.trace:
        metrics = per_layer(result, agg, tail_cache)
    else:
        metrics = end_to_end(result, setup_s)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:9s} {note[0] if note else ''}")
    print(f"  {'machine speed factor':36s} {result.speed:14.6g} {'':9s} "
          "timings above are scaled to factor 1")
    print(f"  {'failed_ratio':36s} {gate.failed / max(gate.attempted, 1):14.6g} "
          f"{'ratio':9s} {gate.failed} of {gate.attempted} ops")
    if not args.trace:
        state = {"special.tail_cache_entries": tail_cache, **src_lines()}
        print("  state: " + "  ".join(f"{k}={v}" for k, v in state.items()))
    for note in gate.notes:
        print(f"  FAILED: {note}"[:400])
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded inputs, the timed ops and their correctness gates.

Every op's result is checked; any exception is recorded as a failed op and
the run goes on.  Library functions are always looked up through their
module at call time (``lib.special.q_gamma``), so that a tracer installed on
the modules sees the calls.
"""

from __future__ import annotations

import contextlib
import itertools
import hashlib
import inspect
import io
import json
import math
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import reference as ref
from speed import CLOCK, GcTimer, Speedometer

SUITES = ("core", "special", "frac")
WORKLOADS = ("identities", "ivp-solve", "pointwise")

# Work per run, per second of --seconds.  The amount of work is fixed by
# (--seconds, --seed), so a faster program does the same work in less time
# and its memory is compared on equal work.  At --seconds 20 the ops of the
# library as first benchmarked take about 4 s on pointwise, 22 s on ivp-solve
# and 25 s on identities at reference speed (speed.py), and a whole run
# about 10, 35 and 40 s on a 2-core x86-64 virtual machine.
#
# pointwise: every random alpha adds entries to qfrac's unbounded tail cache;
# as it grows, full collections of the garbage collector and resizes of the
# cache's dict make a few ops take 5-150 ms.  With 30,000 ops a run had 6 to
# 10 of them, as many as the ten beyond op_tail_ms's percentile, and
# op_tail_ms swung between 4.5 and 6.9 ms; with 15,000 it has 5 or 6.
POINTWISE_OPS_PER_S = 750
# ivp-solve: 96 problems, one block of STRATA rounds, at --seconds 20.
IVP_PROBLEMS_PER_S = 4.8
# identities: reports per run, per second of --seconds; a report takes about
# 7 s.  With 3 reports per run the spread of op_p50_ms over ten seeds was
# 6.5% in one set and 17.4% in another, from the machine's changes of speed.
IDENTITY_REPS_PER_S = 0.25
# Least share of a run_suite call that the latencies of its records must
# cover.  Measured: 0.85 on `special`, 0.89 on `core` (their sorting and JSON
# weigh more against their light records), 0.99 on `frac`; records built
# before they are asked for would cover almost none of it.
RECORD_COVERAGE = 0.75
# A run stops starting new ops after this many times --seconds.
TIME_CAP_FACTOR = 3.0


def load_library():
    import qfrac
    from qfrac import checks, cli, core, expr, fractional, ivp, special

    return SimpleNamespace(qfrac=qfrac, core=core, special=special,
                           fractional=fractional, ivp=ivp, checks=checks,
                           expr=expr, cli=cli)


def rel_err(got: float, want: float) -> float:
    """Floored relative error, as in the qfrac identity reports."""
    return abs(got - want) / max(abs(got), abs(want), 1.0)


@dataclass
class Gate:
    """Correctness of a run's ops, and the accuracy margin of its checks."""

    attempted: int = 0
    failed: int = 0
    headroom: float = math.inf
    notes: list = field(default_factory=list)

    def close(self, got: float, want: float, tol: float, headroom: bool = True) -> bool:
        """Check |got - want| within tol; feed the margin into the headroom."""
        if not (math.isfinite(got) and math.isfinite(want)):
            return False
        err = rel_err(got, want)
        if headroom and tol > 0.0 and err > 0.0:
            self.headroom = min(self.headroom, -math.log10(err / tol))
        return err <= tol

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Result:
    # Seconds per op at reference speed, and the part of it spent in the
    # cyclic garbage collector.
    latencies: list = field(default_factory=list)
    collector: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # True where the op was traced
    gate: Gate = field(default_factory=Gate)
    busy_s: float = 0.0  # time of the untraced ops, at reference speed
    speed: float = 1.0  # median speed factor of the machine during the ops
    peak_rss_kb: int = 0
    terms: int = 0  # terms counted by one outer count_terms() per op (traced ops)
    extra: dict = field(default_factory=dict)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def _uniform_off(rng: random.Random, lo: float, hi: float, radius: float = 0.05) -> float:
    """Uniform draw at least `radius` away from every integer."""
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= radius:
            return x


def _off_grid_ratio(rng: random.Random, q: float, lo: float, hi: float) -> float:
    """A ratio u in (lo, hi) whose q-log is at least 0.05 from an integer."""
    while True:
        u = rng.uniform(lo, hi)
        d = math.log(u) / math.log(q)
        if abs(d - round(d)) >= 0.05:
            return u


# ---------------------------------------------------------------------------
# pointwise: independent single calls away from the grid and from poles.

LEFT_OPERANDS = (
    ((1.0, 0),),
    ((1.0, 1),),
    ((1.0, 2),),
    ((1.0, 0), (1.0, 1)),
    ((2.0, 1), (-1.0, 2)),
    ((0.5, 0), (-1.5, 1), (1.0, 2)),
)
RIGHT_OPERANDS = (
    ((1.0, -3),),
    ((1.0, -4),),
    ((2.0, -3), (1.0, -4)),
)

# kind -> relative tolerance of its re-derivation
POINTWISE_KINDS = {
    "q_gamma": 1e-10,
    "q_factorial_power_grid": 1e-9,
    "q_factorial_power_off": 1e-9,
    "q_exp_e": 1e-10,
    "q_exp_E": 1e-10,
    "q_mittag_leffler": 1e-9,
    "left_frac_integral": 1e-8,
    "left_caputo": 1e-8,
    "right_frac_integral": 1e-8,
}
# One op in this many is re-derived by an independent route.
POINTWISE_SAMPLE = 3
# Bases of the ops.  An op's cost grows like 1 / (1 - q)**2; drawn from a
# continuous range, the costliest ops would form a long thin tail, and the
# 11th-slowest of them (op_tail_ms) would swing from seed to seed.
POINTWISE_Q = (0.3, 0.5, 0.7)


def pointwise_inputs(seed: int, count: int) -> list:
    """`count` op specs (kind, params, sampled); kinds cycle in a fixed order."""
    rng = random.Random(f"pointwise:{seed}")
    kinds = list(POINTWISE_KINDS)
    ops = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        q = rng.choice(POINTWISE_Q)
        if kind == "q_gamma":
            args = {"alpha": rng.uniform(0.1, 4.5)}
        elif kind == "q_factorial_power_grid":
            t = rng.uniform(0.3, 2.0)
            args = {"t": t, "s": t * q ** rng.randint(1, 3),
                    "alpha": _uniform_off(rng, 0.1, 2.5)}
        elif kind == "q_factorial_power_off":
            t = rng.uniform(0.3, 2.0)
            args = {"t": t, "s": t * _off_grid_ratio(rng, q, 0.05, 0.9),
                    "alpha": _uniform_off(rng, 0.1, 2.5)}
        elif kind == "q_exp_e":
            args = {"t": rng.uniform(-0.7, 0.7) / (1.0 - q)}
        elif kind == "q_exp_E":
            args = {"t": rng.uniform(-0.7, 0.7)}
        elif kind == "q_mittag_leffler":
            # The series converges geometrically with ratio about
            # |lam| ((1 - q) z)**alpha; keep that ratio below 1/2.
            alpha = rng.uniform(0.3, 1.5)
            lam = rng.uniform(-1.0, 1.0)
            z_max = min(1.5, (0.5 / max(abs(lam), 1e-3)) ** (1.0 / alpha) / (1.0 - q))
            args = {"alpha": alpha, "lam": lam, "z": rng.uniform(0.1, z_max)}
        elif kind in ("left_frac_integral", "left_caputo"):
            t = rng.uniform(0.4, 1.5)
            alpha = (_uniform_off(rng, 0.2, 1.8) if kind == "left_frac_integral"
                     else rng.uniform(0.1, 0.9))
            args = {"t": t, "a": t * _off_grid_ratio(rng, q, 0.1, 0.8), "alpha": alpha,
                    "operand": rng.randrange(len(LEFT_OPERANDS))}
        else:  # right_frac_integral, to infinity
            args = {"t": rng.uniform(0.3, 2.0), "alpha": _uniform_off(rng, 0.2, 1.6),
                    "operand": rng.randrange(len(RIGHT_OPERANDS))}
        ops.append((kind, q, args, rng.randrange(POINTWISE_SAMPLE) == 0))
    return ops


def compile_operands(lib) -> dict:
    return {
        "left": [lib.expr.compile_expr(ref.poly_text(p)) for p in LEFT_OPERANDS],
        "right": [lib.expr.compile_expr(ref.poly_text(p)) for p in RIGHT_OPERANDS],
    }


def _pointwise_call(lib, operands, kind, q, args):
    """A zero-argument callable for the op (library calls resolved at call time)."""
    p = lib.core.QParams(q)
    sp, fr = lib.special, lib.fractional
    if kind == "q_gamma":
        return lambda: sp.q_gamma(args["alpha"], p)
    if kind.startswith("q_factorial_power"):
        return lambda: sp.q_factorial_power(args["t"], args["s"], args["alpha"], p)
    if kind == "q_exp_e":
        return lambda: sp.q_exp_e(args["t"], p)
    if kind == "q_exp_E":
        return lambda: sp.q_exp_E(args["t"], p)
    if kind == "q_mittag_leffler":
        mp = lib.ivp.MLParams(args["alpha"], 1.0, args["lam"], 0.0)
        return lambda: lib.ivp.q_mittag_leffler(mp, args["z"], p)
    if kind == "right_frac_integral":
        f = operands["right"][args["operand"]]
        return lambda: fr.right_frac_integral(f, math.inf, args["alpha"], args["t"], p)
    f = operands["left"][args["operand"]]
    if kind == "left_frac_integral":
        return lambda: fr.left_frac_integral(f, args["a"], args["alpha"], args["t"], p)
    return lambda: fr.left_caputo(f, args["a"], args["alpha"], args["t"], p)


def _pointwise_reference(lib, kind, q, args) -> float:
    """The op's value by another route: an identity, or the plain-loop reference."""
    p = lib.core.QParams(q)
    if kind == "q_gamma":
        alpha = args["alpha"]
        return lib.special.q_gamma(alpha + 1.0, p) * (1.0 - q) / (1.0 - q**alpha)
    if kind.startswith("q_factorial_power"):
        return ref.factorial_power(args["t"], args["s"], args["alpha"], q)
    if kind == "q_exp_e":
        return lib.special.q_exp_E((1.0 - q) * args["t"], p)
    if kind == "q_exp_E":
        return lib.special.q_exp_e(args["t"] / (1.0 - q), p)
    if kind == "q_mittag_leffler":
        return ref.mittag_leffler(args["alpha"], args["lam"], args["z"], q)
    if kind == "right_frac_integral":
        return ref.right_integral(RIGHT_OPERANDS[args["operand"]], args["alpha"], args["t"], q)
    poly = LEFT_OPERANDS[args["operand"]]
    if kind == "left_frac_integral":
        return ref.left_integral(poly, args["a"], args["alpha"], args["t"], q)
    return ref.left_caputo(poly, args["a"], args["alpha"], args["t"], q)


def run_pointwise(lib, inputs, seconds: float, tracer=None) -> Result:
    ops, plain = inputs
    wrapped = plain if tracer is None else {
        side: [tracer.wrap("expr.operand", f) for f in fs] for side, fs in plain.items()}
    result = Result()
    gate = result.gate
    rounds = len(POINTWISE_KINDS)
    meter, chunks, collector = Speedometer(), [], GcTimer()
    deadline = time.perf_counter() + TIME_CAP_FACTOR * seconds
    for i, (kind, q, args, sampled) in enumerate(ops):
        if time.perf_counter() > deadline:
            break
        traced = tracer is not None and (i // rounds) % 2 == 1
        call = _pointwise_call(lib, wrapped if traced else plain, kind, q, args)
        chunks.append(meter.tick())
        value, error = _timed_op(lib, call, tracer if traced else None, result, collector)
        result.traced.append(traced)
        ok = error is None and math.isfinite(value)
        if ok and sampled:
            try:
                want = _pointwise_reference(lib, kind, q, args)
            except Exception as exc:  # the reference route failing is a failed check
                ok, error = False, f"reference: {type(exc).__name__}: {exc}"
            else:
                ok = gate.close(value, want, POINTWISE_KINDS[kind])
                error = None if ok else f"value {value!r} vs reference {want!r}"
        gate.record(ok, f"{kind} q={q!r} {args}: {error or value!r}")
    _finish(result, meter, chunks)
    return result


def _finish(result: Result, meter: Speedometer, chunks: list) -> None:
    result.latencies = meter.scale(result.latencies, chunks)
    result.collector = meter.scale(result.collector, chunks)
    result.busy_s = sum(lat for lat, tr in zip(result.latencies, result.traced) if not tr)
    result.speed = meter.median_factor()
    result.peak_rss_kb = peak_rss_kb()


def _timed_op(lib, call, tracer, result: Result, collector: GcTimer):
    """Run one op and append its timings to result; returns (value, error text)."""
    value, error = math.nan, None
    with collector:
        collected = collector.total
        if tracer is None:
            start = CLOCK()
            try:
                value = call()
            except Exception as exc:  # recorded as a failed op; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = CLOCK() - start
        else:
            tracer.enable()
            start = CLOCK()
            try:
                with lib.core.count_terms() as counter:
                    value = tracer.op(call)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed = CLOCK() - start
            tracer.disable()
            result.terms += counter.total
        collected = collector.total - collected
    result.latencies.append(elapsed)
    result.collector.append(collected)
    return value, error


# ---------------------------------------------------------------------------
# ivp-solve: seeded Caputo IVPs solved in closed form and by Picard iteration.

PICARD_TOL = 1e-6  # guaranteed |Picard(m) - closed| at the solve point
NUMERIC_TOL = 1e-9  # closed form vs series, Picard(m) vs its partial sum
RESIDUAL_TOL = 1e-5
PICARD_MAX = 40  # more Picard iterations than the drawn ranges ever need (16)
# The problems of `qfrac check ivp`: q in {0.3, 0.5}, a = q**4 or 0, solved
# at t = a q**-j (t = q**(4 - j) when a = 0) for depth j = 1..4.  One round
# holds one problem of each class (q, j).
IVP_Q = (0.3, 0.5)
IVP_DEPTHS = (1, 2, 3, 4)
IVP_CLASSES = tuple((q, j) for q in IVP_Q for j in IVP_DEPTHS)
A_EXPONENT = 4
# (a > 0, forced).
IVP_KINDS = ((False, False), (True, False), (True, True), (False, True))
ALPHA_RANGE = (0.5, 1.0)
LAM_RANGE = (0.2, 0.4)  # of |lam|; the sign is drawn
# A problem's cost is set by q, j, the kind, alpha and m (which alpha and
# |lam| set) and spans a factor of 100.  Drawn independently, op_p50_ms of
# 64 problems swung by a third from seed to seed.  So the mix is fixed and
# only the points within it are drawn: in every block of STRATA rounds each
# class meets each kind STRATA / 4 times, and draws alpha and |lam| once from
# each of STRATA equal parts of their ranges, in an order that spreads each
# kind's parts over the ranges.  The spread left (9-10% over ten seeds, 7%
# over five runs of one seed) is mostly the machine's.
STRATA = 12
# Steps through the parts, coprime to STRATA: a kind recurs every 4 slots,
# when its alpha part has moved on by 8 of the 12 and its |lam| part by 4.
ALPHA_STEP, LAM_STEP = 5, 7


@dataclass(frozen=True)
class IvpCase:
    q: float
    alpha: float
    lam: float
    a: float
    a0: float
    coeffs: tuple  # forcing = sum_n c_n (s - a)_q^n, or () for none
    forcing_text: str
    t: float
    m: int  # Picard iterations, the fewest that meet PICARD_TOL

    def series(self):
        """The solution series at t (reference.ivp_series)."""
        return ref.ivp_series(self.alpha, self.lam, self.a, self.a0, self.coeffs, self.t, self.q)


def _forcing_text(coeffs, a: float, q: float) -> str:
    basis = ("1", f"(s - {a!r})", f"(s - {a!r})*(s - {q * a!r})")
    return " + ".join(f"({c!r})*{b}" for c, b in zip(coeffs, basis) if c)


def _stratum(rng: random.Random, bounds: tuple, part: int) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * (part + rng.random()) / STRATA


def picard_steps(series) -> int:
    """The fewest m whose series tail after term m is within PICARD_TOL / 10."""
    sizes = []
    for term in series:
        sizes.append(abs(term))
        if len(sizes) > 2 and max(sizes[-2:]) < PICARD_TOL * 1e-7:
            break
        if len(sizes) > PICARD_MAX:
            raise ValueError("the IVP series converges too slowly")
    m, tail = len(sizes) - 1, 0.0
    while m > 0 and tail + sizes[m] <= PICARD_TOL / 10:
        tail += sizes[m]
        m -= 1
    return m


def ivp_inputs(seed: int, count: int) -> list:
    """`count` problems, cycling through IVP_CLASSES (see STRATA)."""
    rng = random.Random(f"ivp-solve:{seed}")
    cases = []
    for i in range(count):
        rnd, c = divmod(i, len(IVP_CLASSES))
        q, j = IVP_CLASSES[c]
        slot = rnd % STRATA
        # A kind returns every 4 slots, when the parts have moved by a third
        # of the range.
        shifted, forced = IVP_KINDS[(slot + c) % len(IVP_KINDS)]
        alpha_part = (ALPHA_STEP * slot + c) % STRATA
        lam_part = (LAM_STEP * slot + 3 * c) % STRATA
        a = q**A_EXPONENT if shifted else 0.0
        coeffs = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) if forced else ()
        a0 = rng.uniform(0.5, 1.5)
        alpha = _stratum(rng, ALPHA_RANGE, alpha_part)
        lam = rng.choice((-1.0, 1.0)) * _stratum(rng, LAM_RANGE, lam_part)
        t = q ** (A_EXPONENT - j)
        m = picard_steps(ref.ivp_series(alpha, lam, a, a0, coeffs, t, q))
        cases.append(IvpCase(q, alpha, lam, a, a0, coeffs,
                             _forcing_text(coeffs, a, q) if forced else "", t, m))
    return cases


def run_ivp(lib, inputs, seconds: float, tracer=None) -> Result:
    cases, forcings = inputs
    result = Result()
    gate = result.gate
    meter, chunks, collector = Speedometer(), [], GcTimer()
    deadline = time.perf_counter() + TIME_CAP_FACTOR * seconds
    evaluations = 0
    for i, case in enumerate(cases):
        if time.perf_counter() > deadline:
            break
        traced = tracer is not None and (i // len(IVP_CLASSES)) % 2 == 1
        forcing = forcings[i]
        if forcing is not None and traced:
            forcing = tracer.wrap("expr.operand", forcing)
        out = {}

        def solve(case=case, forcing=forcing, out=out):
            ivp = lib.ivp
            p = lib.core.QParams(case.q)
            prob = ivp.IVProblem(case.alpha, case.lam, case.a, case.a0, forcing)
            closed = ivp.solve_ivp_closed(prob, p)
            picard = ivp.solve_ivp_picard(prob, case.m, p)
            out["closed"] = closed(case.t)
            out["picard"] = picard(case.t)
            out["residual"] = ivp.ivp_residual(prob, closed, case.t, p)
            out["evaluations"] = picard.diagnostics.get("evaluations", 0)
            return out["picard"]

        chunks.append(meter.tick())
        _, error = _timed_op(lib, solve, tracer if traced else None, result, collector)
        result.traced.append(traced)
        if traced:
            evaluations += out.get("evaluations", 0)
        ok = error is None
        if ok:
            exact = ref.series_sum(case.series())
            partial = math.fsum(itertools.islice(case.series(), case.m + 1))
            checks = (
                gate.close(out["residual"], 0.0, RESIDUAL_TOL),
                gate.close(out["closed"], exact, NUMERIC_TOL),
                gate.close(out["picard"], partial, NUMERIC_TOL),
                # Its error is the truncation the generator chose, so it gates
                # but does not set the accuracy headroom.
                gate.close(out["picard"], out["closed"], PICARD_TOL, headroom=False),
            )
            ok = all(checks)
            if not ok:
                error = (f"closed {out['closed']!r} picard {out['picard']!r} "
                         f"residual {out['residual']!r}")
        gate.record(ok, f"{case}: {error}")
    result.extra["picard_evaluations"] = evaluations
    _finish(result, meter, chunks)
    return result


# ---------------------------------------------------------------------------
# identities: `qfrac check S --seed N` for S in core, special, frac.  Each
# repetition runs in a fresh interpreter, as every qfrac invocation does.

def identity_reps(seconds: float) -> int:
    return max(2, round(IDENTITY_REPS_PER_S * seconds))


def run_identities(root: Path, seed: int, seconds: float, trace: bool, out_prefix: Path,
                   corrupt: bool = False) -> Result:
    """Run the report repetitions; with tracing, every second one is traced.
    `corrupt` runs them on a corrupted library (see corrupt_library)."""
    result = Result()
    gate = result.gate
    digests = {}
    deadline = time.perf_counter() + TIME_CAP_FACTOR * seconds
    rep = 0
    while rep < identity_reps(seconds) and (rep < 2 or time.perf_counter() < deadline):
        traced = trace and rep % 2 == 1
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--identity-rep",
               "--seed", str(seed), "--trace", "1" if traced else "0",
               "--out", f"{out_prefix}-rep{rep}"] + (["--corrupt"] if corrupt else [])
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"identity repetition {rep} exited with {proc.returncode}")
        rep_out = json.loads(lines[-1])
        gate_identity_rep(gate, digests, rep, rep_out)
        result.latencies.extend(rep_out["latencies"])
        result.collector.extend(rep_out["collector"])
        result.traced.extend([traced] * len(rep_out["latencies"]))
        if not traced:
            result.busy_s += rep_out["busy_s"]
        result.speed = rep_out["speed"]
        result.peak_rss_kb = max(result.peak_rss_kb, rep_out["peak_rss_kb"])
        if traced:
            result.terms += rep_out["terms"]
            result.extra.setdefault("agg", []).append(rep_out["agg"])
        result.extra["tail_cache_entries"] = rep_out["tail_cache_entries"]
        result.extra["report_bytes"] = rep_out["report_bytes"]
        result.extra["records_passed_ratio"] = rep_out["records_passed_ratio"]
        rep += 1
    return result


def gate_identity_rep(gate: Gate, digests: dict, rep: int, rep_out: dict) -> None:
    """A record passes if it passed in its report, the command exited 0 and
    the report is byte-identical to the first repetition's."""
    for suite in SUITES:
        info = rep_out["suites"][suite]
        same = info["sha256"] == digests.setdefault(suite, info["sha256"])
        for ok, note in info["records"]:
            gate.record(ok and info["exit"] == 0 and same,
                        f"{suite} rep {rep} exit {info['exit']} same report {same}: {note}")
        gate.headroom = min(gate.headroom, info["headroom"])


def identity_rep(lib, seed: int, out_prefix: Path, tracer=None) -> dict:
    """One repetition in this interpreter: the three suites through cli.main.

    A record's latency is the time its suite's record generator
    (``checks._SUITE_BUILDERS``) takes to produce it; that generator is where
    a record's work happens.  This holds only while the builders are
    generator functions that do each record's work when it is asked for, so
    the repetition fails if they are not, or if its records' latencies cover
    less than RECORD_COVERAGE of each ``checks.run_suite`` call.  The busy
    time of a suite is its whole cli.main call (parsing, the suite, sorting,
    JSON), less the calibration samples.
    """
    builders = getattr(lib.checks, "_SUITE_BUILDERS", None)
    if not (isinstance(builders, dict)
            and all(inspect.isgeneratorfunction(b) for b in builders.values())):
        raise RuntimeError("checks._SUITE_BUILDERS is not a table of generator functions: "
                           "the identities workload cannot time single records")
    meter, collector = Speedometer(), GcTimer()
    raw, collected, chunks = [], [], []
    # Calibrating between records happens inside cli.main and run_suite; a
    # span of its own keeps it out of their self time.
    tick = meter.tick if tracer is None else tracer.wrap("bench.calibration", meter.tick)

    def timed(builder):
        def records(*args, **kwargs):
            it = iter(builder(*args, **kwargs))
            while True:
                chunk = tick()
                before, start = collector.total, CLOCK()
                try:
                    rec = next(it) if tracer is None else tracer.op(next, it)
                except StopIteration:
                    return
                raw.append(CLOCK() - start)
                collected.append(collector.total - before)
                chunks.append(chunk)
                yield rec
        return records

    suite_cpu = []  # CPU time of each run_suite call, less calibration

    def timed_suite(*args, **kwargs):
        spent, start = meter.spent, CLOCK()
        try:
            return run_suite(*args, **kwargs)
        finally:
            suite_cpu.append(CLOCK() - start - (meter.spent - spent))

    out = {"suites": {}, "terms": 0, "report_bytes": 0}
    passed = total = 0
    rest = 0.0  # CPU time of the cli.main calls less calibration
    saved = dict(builders)
    builders.update({name: timed(b) for name, b in saved.items()})
    if tracer is not None:
        tracer.enable()
    run_suite = lib.checks.run_suite  # the tracer's wrapper, when tracing
    lib.checks.run_suite = timed_suite
    try:
        for argv in build_inputs(lib, "identities", seed, 0):
            suite = argv[1]
            path = Path(f"{out_prefix}-{suite}.json")
            argv = argv + ["--out", str(path)]
            first, spent, start = len(raw), meter.spent, CLOCK()
            with contextlib.redirect_stderr(io.StringIO()), collector:
                with lib.core.count_terms() as counter:
                    code = lib.cli.main(argv)
            rest += CLOCK() - start - (meter.spent - spent)
            if len(suite_cpu) != len(out["suites"]) + 1:
                raise RuntimeError(f"cli.main({argv}) did not call checks.run_suite once")
            covered = sum(raw[first:]) / suite_cpu[-1]
            if covered < RECORD_COVERAGE:
                raise RuntimeError(f"records of suite {suite} cover {covered:.0%} of its "
                                   "run_suite time: their latencies would miss the work")
            out["terms"] += counter.total
            data = path.read_bytes()
            path.unlink()
            out["report_bytes"] += len(data)
            report = json.loads(data)
            suite_gate = Gate()
            records = []
            for rec in report["records"]:
                ok = bool(rec["passed"]) and rec["error"] is None
                if ok and rec["tolerance"] > 0.0:
                    ok = suite_gate.close(rec["rel_err"], 0.0, rec["tolerance"])
                records.append((ok, "" if ok else f"{rec['identity']} {rec['params']}"))
                passed += bool(rec["passed"])
                total += 1
            out["suites"][suite] = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                                    "records": records, "headroom": suite_gate.headroom,
                                    "covered": covered}
    finally:
        lib.checks.run_suite = run_suite
        if tracer is not None:
            tracer.disable()
        builders.update(saved)
    out["latencies"] = meter.scale(raw, chunks)
    out["collector"] = meter.scale(collected, chunks)
    out["speed"] = meter.median_factor()
    # Records at their chunk's speed; the rest of cli.main (parsing, sorting,
    # JSON) at the median speed.
    rest -= sum(raw)
    out["busy_s"] = sum(out["latencies"]) + rest * out["speed"]
    out["records_passed_ratio"] = passed / total if total else 0.0
    out["tail_cache_entries"] = tail_cache_entries(lib)
    out["peak_rss_kb"] = peak_rss_kb()
    return out


def corrupt_library(lib) -> None:
    """Scale special.q_gamma, as reached through its module, by 1 + 1e-6: a
    negative control for the self-tests (279 `frac` records fail at seed 7)."""
    q_gamma = lib.special.q_gamma
    lib.special.q_gamma = lambda *args: q_gamma(*args) * (1.0 + 1e-6)


def tail_cache_entries(lib) -> int:
    cache = getattr(lib.special, "_TAIL_CACHE", None)
    return len(cache) if cache is not None else 0


# ---------------------------------------------------------------------------

def _whole_round_pairs(count: float, round_size: int) -> int:
    """count rounded to whole pairs of rounds (at least one pair), so that a
    traced run, which traces every second round, traces half of each kind."""
    return 2 * round_size * max(1, round(count / (2 * round_size)))


def build_inputs(lib, workload: str, seed: int, seconds: float):
    """Everything a run needs before its first op: the set-up that setup_s times."""
    if workload == "pointwise":
        count = _whole_round_pairs(POINTWISE_OPS_PER_S * seconds, len(POINTWISE_KINDS))
        return pointwise_inputs(seed, count), compile_operands(lib)
    if workload == "ivp-solve":
        cases = ivp_inputs(seed, _whole_round_pairs(IVP_PROBLEMS_PER_S * seconds,
                                                    len(IVP_CLASSES)))
        forcings = [lib.expr.compile_expr(c.forcing_text) if c.coeffs else None for c in cases]
        return cases, forcings
    if workload == "identities":
        return [["check", s, "--seed", str(seed)] for s in SUITES]
    raise ValueError(f"unknown workload {workload!r}")

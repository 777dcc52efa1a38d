"""Per-layer tracing of qfrac from outside the library.

The tracer replaces library functions with timing wrappers at every place a
caller binds them: the module attribute that callers reach through the
module (``fractional`` and ``ivp`` call ``special.q_factorial_power``), and
every by-name import of the same object (``core.q_integral`` is also
``fractional.q_integral``, ``ivp.q_integral`` and ``checks.q_integral``).

Each wrapped call adds to its layer's aggregate: calls, total time and self
time (total minus the time of wrapped calls nested inside it), in wall-clock
seconds without speed correction.  Time in an unwrapped function counts as
self time of the nearest wrapped caller.  Millions of inner calls therefore
cost a fixed amount of memory.  Spans (name, start,
duration, parent, op) are kept only for ops and for calls into the outer
layers (``fractional``, ``ivp``, ``checks``, ``cli``), up to a cap, and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer key).  Several attributes may share one key.
TARGETS = (
    ("core", "q_integral", "core.q_integral"),
    ("core", "q_integral_tail", "core.q_integral_tail"),
    ("core", "nabla_q_n", "core.nabla_q_n"),
    ("core", "nabla_q", "core.nabla_q_n"),
    ("special", "q_factorial_power", "special.q_factorial_power"),
    ("special", "q_gamma", "special.q_gamma"),
    ("special", "q_exp_e", "special.q_exp"),
    ("special", "q_exp_E", "special.q_exp"),
    ("fractional", "left_frac_integral", "fractional.left_integral"),
    ("fractional", "right_frac_integral", "fractional.right_integral"),
    ("fractional", "left_riemann_deriv", "fractional.derivative"),
    ("fractional", "right_riemann_deriv", "fractional.derivative"),
    ("fractional", "left_caputo", "fractional.derivative"),
    ("fractional", "right_caputo", "fractional.derivative"),
    ("ivp", "q_mittag_leffler", "ivp.q_mittag_leffler"),
    ("ivp", "ivp_residual", "ivp.residual"),
    ("checks", "run_suite", "checks.run_suite"),
    ("cli", "main", "cli.main"),
)

# Layers whose calls get a span of their own; the rest only aggregate.
SPAN_LAYERS = ("op", "fractional.", "ivp.", "checks.", "cli.")
SPAN_CAP = 200_000


def _call(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self._stack: list[list] = []  # frames: [start, child_s, span_id]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_index = -1
        self._sites: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.missing: list[str] = []
        self._op = self.wrap("op", _call)

    def wrap(self, key: str, fn):
        """Return fn wrapped so that each call adds to the aggregate of key."""
        agg = self.agg.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        with_span = key.startswith(SPAN_LAYERS)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = -1
            if with_span:
                if len(spans) < SPAN_CAP:
                    span_id = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    parent = stack[-1][2] if stack else -1
                    spans[span_id] = (key, frame[0], duration, parent, tracer.op_index)

        return wrapper

    def op(self, fn, *args):
        """Call fn(*args) as one op: a root span that owns its nested spans."""
        self.op_index += 1
        return self._op(fn, *args)

    def prepare(self, package) -> None:
        """Find every place a module of the package binds a target, and make
        its wrapper; enable() puts the wrappers there, disable() takes them out."""
        import importlib

        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for module_name, attr, key in TARGETS:
            try:
                owner = importlib.import_module(f"{prefix}.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, name, original, wrapper))
        ivp = sys.modules.get(prefix + ".ivp")
        solution = getattr(ivp, "IVPSolution", None)
        if solution is not None:
            call = solution.__call__
            closed = self.wrap("ivp.closed", call)
            picard = self.wrap("ivp.picard", call)

            def traced_call(sol, t):
                method = getattr(sol, "method", "")
                return (closed if method.startswith("closed") else picard)(sol, t)

            self._sites.append((solution, "__call__", call, traced_call))
        else:
            self.missing.append("ivp.IVPSolution")

    def enable(self) -> None:
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)

    def disable(self) -> None:
        for owner, name, original, _ in self._sites:
            setattr(owner, name, original)

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (start times relative to the first)."""
        kept = [s for s in self.spans if s is not None]
        origin = min((s[1] for s in kept), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                key, start, duration, parent, op = span
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": key,
                    "start_us": round((start - origin) * 1e6, 1),
                    "dur_us": round(duration * 1e6, 1),
                }) + "\n")
            if self.spans_dropped:
                out.write(json.dumps({"dropped": self.spans_dropped}) + "\n")

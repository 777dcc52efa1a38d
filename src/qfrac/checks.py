"""Identity suites: every proved formula of the calculus as a numeric record.

Each record compares two independently computed routes to the same quantity
and stores the floored relative error |lhs - rhs| / max(|lhs|, |rhs|, 1),
which reduces to an absolute error for small values.  Suites are fully
deterministic: random sweeps come from a fixed linear-congruential generator
(Knuth MMIX constants, documented in the README) seeded by the caller.

The identities are data: one table entry each (see ``_TABLE``).
"""

from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from operator import itemgetter
from typing import TextIO

from . import special
from .core import (QFunction, QParams, Truncation, _accumulate, count_terms, nabla_q, nabla_q_n,
                   q_bracket, q_integral, q_integral_tail)
from .errors import QCalculusError
from .fractional import (left_caputo, left_frac_integral, left_riemann_deriv, r_coef,
                         right_caputo, right_frac_integral, right_riemann_deriv)
from .ivp import (IVProblem, MLParams, _ZeroHead, ivp_residual, q_mittag_leffler,
                  solve_ivp_closed, solve_ivp_picard)

__all__ = ["Lcg", "IdentityRecord", "CheckReport", "SUITE_NAMES", "run_suite",
           "explore_finite_right_semigroup", "default_explore_grid"]

INF = math.inf

SUITE_NAMES = ("core", "special", "frac", "ivp")

# Least distance of a drawn exponent from every integer: the special suite's
# factorial powers sit on the grid, where a negative integer exponent is a
# pole of their ratio and a factor 1 - q**(m + x) near it amplifies rounding.
_INTEGER_MARGIN = 0.1

_Q_SWEEP = (0.3, 0.5, 0.8)
_Q_SWEEP_GAMMA = (0.3, 0.5, 0.9)

# Polynomial test family; decaying powers cover the infinite-tail operators.
_POLYS: dict[str, QFunction] = {
    "1": lambda s: 1.0,
    "t": lambda s: s,
    "t^2": lambda s: s * s,
    "t+t^2": lambda s: s + s * s,
}
_OPERANDS: dict[str, QFunction] = {**_POLYS, "s^-2": lambda s: s**-2.0, "s^-4": lambda s: s**-4.0}


class Lcg:
    """64-bit linear congruential generator (Knuth MMIX multiplier/increment).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64;
    uniforms are state / 2**64.  Chosen over the stdlib RNG so reports are
    bit-reproducible across platforms and Python versions.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self._MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self._MASK
        return self.state

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self._step() / 2.0**64)

    def away_from_integers(self, lo: float, hi: float) -> float:
        """Uniform draw at least _INTEGER_MARGIN away from every integer."""
        while True:
            x = self.uniform(lo, hi)
            if abs(x - round(x)) >= _INTEGER_MARGIN:
                return x


@dataclass
class IdentityRecord:
    identity: str
    params: dict
    lhs: float = math.nan
    rhs: float = math.nan
    rel_err: float = math.nan
    tolerance: float = math.nan
    passed: bool = False
    terms: int = 0
    error: str | None = None


@dataclass
class CheckReport:
    suite: str
    seed: int
    truncation: Truncation
    records: list[IdentityRecord] = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.records)

    def to_json_obj(self) -> dict:
        # The wall-clock duration is deliberately omitted so identical seeds
        # produce byte-identical reports.  Records skip dataclasses.asdict: its
        # deep copy of each float took 85 ms of a 1 s `check frac` (Python 3.11).
        obj = {**vars(self), "truncation": asdict(self.truncation),
               "records": [vars(r) for r in self.records], "n_records": len(self.records),
               "n_failed": self.n_failed, "passed": self.passed}
        del obj["duration"]
        return obj

    def write_json(self, stream: TextIO) -> None:
        """Write json.dumps(self.to_json_obj(), sort_keys=True, indent=2) and a
        newline, byte for byte, from the C encoder and REPORT_CHUNK records at
        a time, so no step holds more than one chunk's text.  With indent, json
        runs its pure-Python encoder: 0.17 s against 0.08 s here for the core,
        special and frac reports at seed 7 (2-core VM)."""
        obj = self.to_json_obj()
        records, trunc = obj["records"], obj["truncation"]
        (text,) = _flat_dicts([{**obj, "records": 0, "truncation": 0}], 0)
        key = '\n  "truncation": '
        text = text.replace(key + "0", key + _flat_dicts([trunc], 1)[0], 1)
        head, tail = text.split('\n  "records": 0', 1)
        stream.write(head + '\n  "records": ' + ("[" if records else "[]"))
        pad = "\n    "
        for start in range(0, len(records), REPORT_CHUNK):
            texts = _record_texts(records[start:start + REPORT_CHUNK])
            stream.write(("," if start else "") + pad + ("," + pad).join(texts))
        stream.write(("\n  ]" if records else "") + tail + "\n")


# The report's JSON text.  A raw newline in it only ever comes from a
# separator, since strings escape theirs, so a newline and its indent mark a key.
_SCALARS = frozenset({str, int, float, bool, type(None)})
# Records encoded and written at a time: a report is never held whole.
REPORT_CHUNK = 256


def _flat_dicts(dicts: list[dict], depth: int) -> list[str]:
    """json.dumps(d, sort_keys=True, indent=2) of each dict of scalars, its
    lines past the first indented by depth levels, from one call of the C
    encoder."""
    if not dicts:
        return []
    pad = "\n" + "  " * (depth + 1)
    text = json.JSONEncoder(sort_keys=True, separators=("," + pad, ": ")).encode(dicts)
    # Inside a dict the separator follows a scalar and precedes a key, so
    # "}," + pad + "{" is only ever where one dict ends and the next begins.
    return ["{" + pad + body + pad[:-2] + "}" if body else "{}"
            for body in text[2:-2].split("}," + pad + "{")]


def _record_texts(records: list[dict]) -> list[str]:
    """_flat_dicts(records, 2), with each record's params at any depth.  The
    records, params masked, are one call of the C encoder and their flat
    params dicts another; each params text is spliced in at its key."""
    params = [rec["params"] for rec in records]
    flat = [_SCALARS.issuperset(map(type, p.values())) for p in params]
    bulk = iter(_flat_dicts([p for p, is_flat in zip(params, flat) if is_flat], 3))
    # Params that hold a container go through json.dumps, its lines moved
    # to depth 3.
    params = [next(bulk) if is_flat else json.dumps(p, sort_keys=True, indent=2).replace(
        "\n", "\n      ") for p, is_flat in zip(params, flat)]
    key = '\n      "params": '
    texts = _flat_dicts([{**rec, "params": 0} for rec in records], 2)
    return [text.replace(key + "0", key + p, 1) for text, p in zip(texts, params)]


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _within(lhs, rhs, tolerance):
    err = _rel_err(lhs, rhs)
    return lhs, err, err <= tolerance


def _record(identity, params, lhs_fn, rhs_fn, tolerance, judge=_within) -> IdentityRecord:
    """Both routes under a term counter whose total goes to terms, then
    judge(lhs, rhs, tolerance) gives the recorded lhs, rel_err and verdict
    (lhs_fn may return raw values that the judge reduces to one).

    A numeric failure, from this package or from float arithmetic, becomes
    the record's error, with lhs, rhs and rel_err left NaN, so one bad record
    never aborts its suite.
    """
    rec = IdentityRecord(identity, params, tolerance=tolerance)
    with count_terms() as counter:
        try:
            lhs, rhs = lhs_fn(), rhs_fn()
            (rec.lhs, rec.rel_err, rec.passed), rec.rhs = judge(lhs, rhs, tolerance), rhs
        except (QCalculusError, ArithmeticError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.terms = counter.total
    return rec


def _all_zero(parts, rhs, tolerance):
    """(inner integral, summand) pairs pass only if every one is exactly 0."""
    total = sum(summand for _, summand in parts)
    return total, abs(total), all(v == 0.0 for pair in parts for v in pair)


def _within_terms(parts, rhs, tolerance):
    """parts = (lhs, mass): the error in units of mass, the total size of the
    terms that rhs sums, so that a tolerance in eps is one in eps times the
    condition mass / |rhs|."""
    lhs, mass = parts
    err = abs(lhs - rhs) / mass
    return lhs, err, err <= tolerance


def _non_increasing(errors, rhs, tolerance):
    ok = all(later <= earlier + tolerance for earlier, later in zip(errors, errors[1:]))
    return errors[-1], 0.0 if ok else max(errors), ok


# ---------------------------------------------------------------------------
# The identity table.  A sweep maps each key (or tuple of keys, filled from
# tuples) to its values, or to a function giving them; the params dicts are
# the product in key order, with the q sweep first unless an entry names its
# own.  Routes and value functions read the case by parameter name: its
# params, p, the operand f that params["f"] names, the suite's draws and
# memo(fn, *args), which calls fn once per arguments in a run of the suite.

def _grid_desc(q):
    """[1, q, ..., q^6] by successive multiplication, so nested chains and memos meet."""
    grid = [1.0]
    for _ in range(6):
        grid.append(grid[-1] * q)
    return grid


_TS = lambda q: _grid_desc(q)[3::-1]  # q^3, q^2, q, 1
_STARTS = lambda q: (0.0, _grid_desc(q)[3])  # a
# Orders above 1 need nabla f at a, which is undefined at 0.
_STARTS_BY_ORDER = lambda q, alpha: _STARTS(q)[1 if alpha > 1.0 else 0:]
_ABOVE_A = lambda q, a: [t for t in _TS(q) if t > a]
_ENDS = lambda q: (1.0, q**-2)  # b
_BELOW_B = lambda q, b: [t for t in _TS(q) if t < b]
_POWERS = lambda q, f: [q**n for n in range(0 if f == "e_q" else -5, 11)]
_IVP_TS = lambda q: (q**3, q**2, q, 1.0)
_ORDERS = (0.4, 0.9, 1.3)
_DRAWN = {"q": _Q_SWEEP_GAMMA, "m": range(1, 6)}
_DRAWN_ALPHA = {**_DRAWN, "alpha": lambda q, m, draws: [abs(b) + 0.15 for b, _ in draws[q, m]]}
_LEFT = {"a": _STARTS, "f": _POLYS, "t": _ABOVE_A}
_RIGHT = {"b": _ENDS, "f": _POLYS, "t": _BELOW_B}
_RIGHT_INF = {"f": ("s^-2", "s^-4"), "t": _TS}
_IVP = {"q": (0.5,), "alpha": (0.9,), "lam": (0.3,), "a": (0.5**4,)}


def _reader(fn):
    """fields -> the fields that fn's parameters name, as a tuple in order."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    return itemgetter(*names) if len(names) > 1 else lambda fields: tuple(fields[n] for n in names)


def _expand(sweep, draws):
    rows = [{}]
    for key, values in {"q": _Q_SWEEP, **sweep}.items():
        read = _reader(values) if callable(values) else None
        rows = [{**row, **(dict(zip(key, v)) if isinstance(key, tuple) else {key: v})}
                for row in rows
                for v in (values(*read({**row, "draws": draws})) if read else values)]
    return rows


def _draws(suite, seed):
    """A suite's random values in a fixed order.  core, per q: product_rule's samples
    at t, qt, q^2 t, then integral_linearity's constants; special: three (beta,
    gamma) per (q, m), each and their sum away from integers."""
    rng = Lcg(seed)
    u = partial(rng.uniform, -2.0, 2.0)
    draws = {}
    for q in _Q_SWEEP if suite == "core" else ():
        for n in (-2, 0, 3):
            t = q**n
            draws[q, t] = {x: (u(), u()) for x in (t, q * t, q * q * t)}
        draws[q] = (u(), u())
    for q in _Q_SWEEP_GAMMA if suite == "special" else ():
        for m in range(1, 6):
            pairs = draws[q, m] = []
            while len(pairs) < 3:
                beta, gam = rng.away_from_integers(-1.5, 2.5), rng.away_from_integers(-1.5, 2.5)
                if abs((beta + gam) - round(beta + gam)) >= _INTEGER_MARGIN:
                    pairs.append((beta, gam))
    return draws


# The e_q operand, memoised per q: the Jackson chains of its records share points.
_exp_rule = lambda p: cache(lambda s: special.q_exp_e(s, p))


# x -> lam * op(f, a, alpha, x, p), memoised.
_pointwise = lambda op, f, a, alpha, p, lam=1.0: cache(lambda x: lam * op(f, a, alpha, x, p))


def _increments(t, lam, a, alpha, p):
    """The k-th increment of repeated fractional integration of the constant
    initial value, k = 0..5; t keys one chain per evaluation point."""
    chain = [lambda x: 1.0]
    for _ in range(5):
        chain.append(_pointwise(left_frac_integral, chain[-1], a, alpha, p, lam))
    return chain


# y(t) for C^alpha y = lam y + f, y(a) = 1: closed form, or m Picard steps;
# and the closed form's residual in the equation at t.
_closed_at = lambda alpha, lam, a, f, t, p, memo: memo(
    solve_ivp_closed, IVProblem(alpha, lam, a, 1.0, f), p)(t)
_picard_at = lambda alpha, lam, a, f, t, p, memo, m: memo(
    solve_ivp_picard, IVProblem(alpha, lam, a, 1.0, f), m, p)(t)
_residual_at = lambda alpha, lam, a, f, t, p, memo: ivp_residual(
    IVProblem(alpha, lam, a, 1.0, f), memo(solve_ivp_closed, IVProblem(alpha, lam, a, 1.0, f), p),
    t, p)


def _forcing_by_orders(alpha, lam, a, f, t, p):
    """sum_k lam**k I_a^(alpha(k+1)) f(t), one fractional integral per order
    until a term is below 1e-17 of the sum: the route that the closed form's
    kernel series replaces on the lattice."""
    total, k = 0.0, 0
    while True:
        term = lam**k * left_frac_integral(f, a, alpha * (k + 1), t, p)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
        k += 1


def _picard_errors(q, alpha, lam, a, f, p, memo, m_values):
    """Sup-norm distance of Picard iterates to the closed form, per m."""
    iterates = (solve_ivp_picard(IVProblem(alpha, lam, a, 1.0), m, p) for m in m_values)
    return [max(abs(y(t) - _closed_at(alpha, lam, a, f, t, p, memo)) for t in _IVP_TS(q))
            for y in iterates]


# The definitions of the derivatives, n = ceil(alpha) q-derivatives composed
# with the (n - alpha)-integral: references that the integrals at order
# -alpha, which serve these derivatives from every a >= 0 and to every b,
# never call.
def _riemann_composed(f, a, alpha, t, p, memo):
    n = math.ceil(alpha)
    return nabla_q_n(memo(_pointwise, left_frac_integral, f, a, n - alpha, p), t, n, p)


def _caputo_composed(f, a, alpha, t, p):
    n = math.ceil(alpha)
    return left_frac_integral(lambda s: nabla_q_n(f, s, n, p), a, n - alpha, t, p)


def _right_caputo_composed(f, b, alpha, t, p):
    n = math.ceil(alpha)
    return right_frac_integral(lambda s: (-1.0) ** n * nabla_q_n(f, s, n, p), b, n - alpha, t, p)


def _right_riemann_composed(f, b, alpha, t, p, memo):
    n = math.ceil(alpha)
    return (-1.0) ** n * nabla_q_n(
        memo(_pointwise, right_frac_integral, f, b, n - alpha, p), t, n, p)


# The q-Mittag-Leffler series from z0 = 0 at the z where |lam ((1-q) z)**alpha|
# = zeta (lam = +-1): summed as q_mittag_leffler sums it, or cut after the
# fewest K terms with zeta**K <= 1e-17 (q; q)_inf, past which every term is
# below 1e-17 (1-q)**(beta-1) (see ivp._ZeroHead, whose coefficients both read).
_ml_point = lambda q, alpha, zeta: zeta ** (1.0 / alpha) / (1.0 - q)
_ml_from_zero = lambda q, alpha, beta, lam, zeta, p: q_mittag_leffler(
    MLParams(alpha, beta, lam), _ml_point(q, alpha, zeta), p)
_ml_cut = lambda q, alpha, beta, lam, zeta, p: _ZeroHead(MLParams(alpha, beta, lam), p).cut(
    _ml_point(q, alpha, zeta),
    math.ceil(math.log(1e-17 * special._pochhammer_tail(1.0, p)) / math.log(zeta)))


def _partial_fractions(q, alpha, lam, t, j):
    """The unforced closed form with a0 = 1 at t = a q**-j, j >= 1, as j
    partial fractions: by the finite q-binomial theorem its head
    sum_k zeta**k (q**(alpha k + 1); q)_(j-1) / (q; q)_(j-1), zeta = lam
    ((1-q) t)**alpha, is sum_{i<j} (-1)**i q**(i(i+1)/2) / ((q; q)_i
    (q; q)_(j-1-i) (1 - zeta q**(alpha i))), whose poles are the zeros of the
    lattice recursion's diagonals and which reads no lattice weight."""
    zeta = lam * ((1.0 - q) * t) ** alpha
    poch = [1.0]  # (q; q)_n
    for n in range(1, j):
        poch.append(poch[-1] * (1.0 - q**n))
    return [(-1.0) ** i * q ** (i * (i + 1) / 2)
            / (poch[i] * poch[j - 1 - i] * (1.0 - zeta * q ** (alpha * i))) for i in range(j)]


_pf_condition = lambda terms: sum(map(abs, terms)) / abs(sum(terms))
_pf_point = lambda q, j: _grid_desc(q)[6 - j]  # a q**-j for a = q^6
_pf_sum = lambda alpha, lam, t, q, j, p, memo: _accumulate(
    memo(_partial_fractions, q, alpha, lam, t, j), p.trunc, detect_growth=False, count=j,
    where=("partial fractions at t={!r}, j={!r}", t, j))


# ivp_fixed_point's solutions, memoised under their own key: its records
# share them only among themselves.
_fixed_point_solution = lambda alpha, lam, a, p: solve_ivp_closed(IVProblem(alpha, lam, a, 1.0), p)
_df2 = lambda q, j, k, t, s: (t**j * s**k - (q * t) ** j * s**k) / ((1.0 - q) * t)


def _product_rhs(q, t, p, draws):
    f = lambda x: draws[q, t][x][0]
    g = lambda x: draws[q, t][x][1]
    return f(q * t) * nabla_q(g, t, p) + nabla_q(f, t, p) * g(t)


def _outer_tail_parts(q, p, alpha, beta, b, t):
    """Outer-tail (inner integral, summand) pairs of the nested right
    composition with an operand supported on (0, b q**(1-alpha)]: both tails
    of every inner integral sample the operand above its support."""
    shift = q ** (1.0 - alpha)
    cutoff = b * shift * (1.0 + 1e-12)

    def integrand(tau, s):
        u = s * shift
        fv = (u + u * u) if u <= cutoff else 0.0
        return 0.0 if fv == 0.0 else special.q_factorial_power(s, tau, alpha - 1.0, p) * fv

    parts = []
    for i in range(1, 13):
        tt = b / q**i
        tau = tt * q ** (1.0 - beta)
        g = partial(integrand, tau)
        inner = r_coef(alpha, q) / special.q_gamma(alpha, p) * (
            q_integral_tail(g, tau, INF, p) - q_integral_tail(g, b, INF, p))
        summand = (1.0 - q) * b * q**-i * special.q_factorial_power(tt, t, beta - 1.0, p) * inner
        parts.append((inner, summand))
    return parts


# The routes of fundamental_theorem and friends truncate at different
# indices, so they carry a truncation-tail budget, not a rounding one.
_TAIL_TOL = lambda trunc: 10.0 * trunc.rel_tol
# tolerance: a number, or a function of the truncation policy.
_Identity = namedtuple("_Identity", "name tolerance sweep lhs rhs judge",
                       defaults=(lambda: 0.0, _within))

_TABLE = {
    "core": (
        _Identity("fundamental_theorem", _TAIL_TOL, {"f": [*_POLYS, "e_q"], "t": _POWERS},
            lambda f, t, p: nabla_q(lambda x: q_integral(f, 0.0, x, p), t, p), lambda f, t: f(t)),
        _Identity("integral_of_derivative", _TAIL_TOL, {"f": _POLYS, "t": _POWERS},
            lambda f, t, p: q_integral(lambda s: nabla_q(f, s, p), 0.0, t, p),
            lambda f, t: f(t) - f(0.0)),
        # Exact algebra; checked on arbitrary sampled values.
        _Identity("product_rule", 1e-13, {"t": lambda q: [q**n for n in (-2, 0, 3)]},
            lambda q, t, p, draws: nabla_q(lambda x: math.prod(draws[q, t][x]), t, p),
            _product_rhs),
        _Identity("diff_under_integral_variable_upper", _TAIL_TOL,
            {"j": range(3), "k": range(3), "a": _STARTS, "t": lambda q: [q]},
            lambda j, k, a, t, p: nabla_q(
                lambda x: q_integral(lambda s: x**j * s**k, a, x, p), t, p),
            lambda q, j, k, a, t, p: q_integral(partial(_df2, q, j, k, t), a, t, p)
            + (q * t) ** j * t**k),
        _Identity("diff_under_integral_variable_lower", _TAIL_TOL,
            {"j": range(3), "k": range(3), "b": lambda q: [q**-2], "t": lambda q: [q]},
            lambda j, k, b, t, p: nabla_q(
                lambda x: q_integral_tail(lambda s: x**j * s**k, x, b, p), t, p),
            lambda q, j, k, b, t, p: q_integral_tail(partial(_df2, q, j, k, t), q * t, b, p)
            - t**j * t**k),
        _Identity("integral_additivity", 1e-13, {("a", "b", "t"): lambda q: [
                [_grid_desc(q)[i] for i in ijk] for ijk in ((4, 2, 0), (3, 1, 0), (5, 3, 1))]},
            lambda a, t, p: q_integral(_POLYS["t+t^2"], a, t, p),
            lambda a, b, t, p: q_integral(_POLYS["t+t^2"], a, b, p)
            + q_integral(_POLYS["t+t^2"], b, t, p)),
        _Identity("integral_linearity", _TAIL_TOL, {"t": (1.0,)},
            lambda q, t, p, draws: q_integral(
                lambda s: draws[q][0] * s + draws[q][1] * s * s, 0.0, t, p),
            lambda q, t, p, draws: draws[q][0] * q_integral(_POLYS["t"], 0.0, t, p)
            + draws[q][1] * q_integral(_POLYS["t^2"], 0.0, t, p)),
    ),
    "special": (
        _Identity("factorial_split", 1e-9,
            {**_DRAWN, ("beta", "gamma"): lambda q, m, draws: draws[q, m]},
            lambda q, m, beta, gamma, p: special.q_factorial_power(1.0, q**m, beta + gamma, p),
            lambda q, m, beta, gamma, p: special.q_factorial_power(1.0, q**m, beta, p)
            * special.q_factorial_power(1.0, q**beta * q**m, gamma, p)),
        _Identity("factorial_scaling", 1e-9, {**_DRAWN, "beta": lambda q, m, draws: [
                beta for beta, _ in draws[q, m]], "scale": lambda q: (q * q, q, 2.0)},
            lambda q, m, beta, scale, p: special.q_factorial_power(
                scale * 1.0, scale * q**m, beta, p),
            lambda q, m, beta, scale, p: scale**beta
            * special.q_factorial_power(1.0, q**m, beta, p)),
        _Identity("factorial_derivative_in_t", 1e-9, _DRAWN_ALPHA,
            lambda q, m, alpha, p: nabla_q(
                lambda x: special.q_factorial_power(x, q**m, alpha, p), 1.0, p),
            lambda q, m, alpha, p: q_bracket(alpha, p)
            * special.q_factorial_power(1.0, q**m, alpha - 1.0, p)),
        _Identity("factorial_derivative_in_s", 1e-9, _DRAWN_ALPHA,
            lambda q, m, alpha, p: nabla_q(
                lambda x: special.q_factorial_power(1.0, x, alpha, p), q**m, p),
            lambda q, m, alpha, p: -q_bracket(alpha, p)
            * special.q_factorial_power(1.0, q * q**m, alpha - 1.0, p)),
        _Identity("gamma_recurrence", 1e-10, {"q": _Q_SWEEP_GAMMA, "alpha": (0.3, 0.5, 1.7, 2.4)},
            lambda alpha, p: special.q_gamma(alpha + 1.0, p),
            lambda alpha, p: q_bracket(alpha, p) * special.q_gamma(alpha, p)),
        # (t - r)_q^m must vanish identically, not approximately.
        _Identity("factorial_vanishing", 0.0,
            {"q": _Q_SWEEP_GAMMA, "j": (1, 2, 4), "m": lambda j: (j + 1, j + 3)},
            lambda q, j, m, p: special.q_factorial_power(1.0, 1.0 / q**j, m, p)),
        _Identity("exp_identity", 1e-10, {"t": (0.1, 0.5, 0.9)},
            lambda t, p: special.q_exp_e(t, p), lambda q, t, p: special.q_exp_E((1.0 - q) * t, p)),
    ),
    "frac": (
        # The workhorse behind the linear solver.
        _Identity("power_rule", 1e-8, {"a": _STARTS, "mu": (0.0, 0.5, 1.0, 2.0),
                                       "alpha": (0.5, 1.0, 1.7), "t": lambda q: _TS(q)[1:]},
            lambda a, mu, alpha, t, p: left_frac_integral(
                lambda s: special.q_factorial_power(s, a, mu, p), a, alpha, t, p),
            lambda a, mu, alpha, t, p: special.q_gamma(mu + 1.0, p)
            / special.q_gamma(alpha + mu + 1.0, p)
            * special.q_factorial_power(t, a, mu + alpha, p)),
        _Identity("left_semigroup", 1e-6,
            {"a": _STARTS, "f": _POLYS, "alpha": _ORDERS, "beta": _ORDERS, "t": _ABOVE_A},
            lambda a, f, alpha, beta, t, p, memo: left_frac_integral(
                memo(_pointwise, left_frac_integral, f, a, alpha, p), a, beta, t, p),
            lambda a, f, alpha, beta, t, p: left_frac_integral(f, a, alpha + beta, t, p)),
        _Identity("cauchy_reduction", 1e-6,
            {"a": _STARTS, "f": _POLYS, "n": (1, 2), "t": _ABOVE_A},
            lambda a, f, n, t, p, memo: nabla_q_n(
                memo(_pointwise, left_frac_integral, f, a, n, p), t, n, p),
            lambda f, t: f(t)),
        # Right-sided reductions on decaying operands (b = infinity).
        _Identity("right_inverse_reduction", 1e-8,
            {("n", "f"): ((1, "s^-2"), (2, "s^-4")), "t": _TS},
            lambda f, n, t, p, memo: nabla_q_n(
                memo(_pointwise, right_frac_integral, f, INF, n, p), t, n, p),
            lambda f, n, t: (-1.0) ** n * f(t)),
        _Identity("right_semigroup_infinite", 1e-6, {"alpha": _ORDERS, "beta": _ORDERS,
                  "f": lambda alpha, beta: ["s^-4" if alpha + beta >= 2.0 else "s^-2"], "t": _TS},
            lambda alpha, beta, f, t, p, memo: right_frac_integral(
                memo(_pointwise, right_frac_integral, f, INF, alpha, p), INF, beta, t, p),
            lambda alpha, beta, f, t, p: right_frac_integral(f, INF, alpha + beta, t, p)),
        # To a finite b: with the inner endpoint at b q**(1-beta) the outer
        # integral samples it on its own lattice, and the nested route equals
        # the direct one to b q for every alpha, beta (q-Chu-Vandermonde on
        # the weights).  Exact finite sums; explore reads this entry.
        _Identity("right_semigroup_finite", 1e-12,
            {("alpha", "beta"): ((0.4, 1.0), (0.9, 0.9), (1.3, 1.7)), **_RIGHT},
            lambda q, alpha, beta, b, f, t, p, memo: right_frac_integral(
                memo(_pointwise, right_frac_integral, f, b * q ** (1.0 - beta), alpha, p),
                b, beta, t, p),
            lambda q, alpha, beta, b, f, t, p: right_frac_integral(f, b * q, alpha + beta, t, p)),
        # Every summand vanishes identically, so the sum is exactly zero.
        _Identity("vanishing_above_endpoint", 0.0,
            {("alpha", "beta"): ((0.5, 0.7), (1.3, 0.4)), "b": (1.0,), "t": lambda q: [q**2]},
            _outer_tail_parts, judge=_all_zero),
        _Identity("left_transfer_first_order", 1e-6, {"alpha": _ORDERS, **_LEFT},
            lambda alpha, a, f, t, p: left_frac_integral(
                lambda s: nabla_q(f, s, p), a, alpha, t, p),
            lambda alpha, a, f, t, p, memo: nabla_q(
                memo(_pointwise, left_frac_integral, f, a, alpha, p), t, p)
            - special.q_factorial_power(t, a, alpha - 1.0, p) * f(a) / special.q_gamma(alpha, p)),
        _Identity("left_transfer_iterated", 1e-6, {"alpha": (1.5, 2.3), "a": _STARTS_BY_ORDER,
                                                   "f": _POLYS, "t": _ABOVE_A, "p_fold": (2,)},
            lambda alpha, a, f, t, p: left_frac_integral(
                lambda s: nabla_q_n(f, s, 2, p), a, alpha, t, p),
            lambda alpha, a, f, t, p, memo: nabla_q_n(
                memo(_pointwise, left_frac_integral, f, a, alpha, p), t, 2, p)
            - sum(special.q_factorial_power(t, a, alpha - 2.0 + k, p)
                  / special.q_gamma(alpha + k - 1.0, p) * nabla_q_n(f, a, k, p)
                  for k in range(2))),
        _Identity("right_transfer", 1e-6, {"alpha": _ORDERS, **_RIGHT},
            lambda q, alpha, b, f, t, p: right_frac_integral(
                lambda s: -nabla_q(f, s, p), b / q, alpha, t, p),
            lambda q, alpha, b, f, t, p, memo: -nabla_q(
                memo(_pointwise, right_frac_integral, f, b, alpha, p), t, p)
            - r_coef(alpha, q) / special.q_gamma(alpha, p)
            * special.q_factorial_power(b, q * t, alpha - 1.0, p) * f(q ** (1.0 - alpha) * b / q)),
        _Identity("caputo_riemann_left", 1e-6, {"alpha": (0.3, 0.6, 0.9), **_LEFT},
            lambda alpha, a, f, t, p: left_caputo(f, a, alpha, t, p),
            lambda alpha, a, f, t, p, memo: _riemann_composed(f, a, alpha, t, p, memo)
            - special.q_factorial_power(t, a, -alpha, p) * f(a) / special.q_gamma(1.0 - alpha, p)),
        _Identity("caputo_riemann_right", 1e-6, {"alpha": (0.3, 0.6, 0.9), **_RIGHT},
            lambda q, alpha, b, f, t, p: right_caputo(f, b / q, alpha, t, p),
            lambda q, alpha, b, f, t, p: right_riemann_deriv(f, b, alpha, t, p)
            - r_coef(1.0 - alpha, q) / special.q_gamma(1.0 - alpha, p)
            * special.q_factorial_power(b, q * t, -alpha, p) * f(q**alpha * b / q)),
        # To infinity the boundary term vanishes for decaying operands, and
        # right_caputo is the Riemann series itself: judged by the definition.
        _Identity("caputo_riemann_right_infinite", 1e-10, {"alpha": (0.3, 0.6, 0.9), **_RIGHT_INF},
            lambda alpha, f, t, p: _right_caputo_composed(f, INF, alpha, t, p),
            lambda alpha, f, t, p: right_riemann_deriv(f, INF, alpha, t, p)),
        # Each derivative's series against the other's definition.
        _Identity("riemann_caputo_left", 1e-6, {"alpha": (0.3, 0.6, 0.9), **_LEFT},
            lambda alpha, a, f, t, p: left_riemann_deriv(f, a, alpha, t, p),
            lambda alpha, a, f, t, p: _caputo_composed(f, a, alpha, t, p)
            + special.q_factorial_power(t, a, -alpha, p) * f(a) / special.q_gamma(1.0 - alpha, p)),
        _Identity("riemann_series_right", 1e-10, {"alpha": (0.3, 0.6, 0.9), **_RIGHT_INF},
            lambda alpha, f, t, p: right_riemann_deriv(f, INF, alpha, t, p),
            lambda alpha, f, t, p, memo: _right_riemann_composed(f, INF, alpha, t, p, memo)),
        _Identity("riemann_series_right", 1e-10, {"alpha": (0.3, 0.6, 0.9), **_RIGHT},
            lambda alpha, b, f, t, p: right_riemann_deriv(f, b, alpha, t, p),
            _right_riemann_composed),
        _Identity("caputo_inversion", 1e-6,
            {"alpha": (0.7, 1.6), "a": _STARTS_BY_ORDER, "f": _POLYS, "t": _ABOVE_A},
            lambda alpha, a, f, t, p, memo: left_frac_integral(
                memo(_pointwise, left_caputo, f, a, alpha, p), a, alpha, t, p),
            lambda alpha, a, f, t, p: f(t) - sum(
                special.q_factorial_power(t, a, k, p) / special.q_gamma(k + 1.0, p)
                * nabla_q_n(f, a, k, p) for k in range(math.ceil(alpha)))),
    ),
    "ivp": (
        _Identity("ml_exp_reduction", 1e-10, {"lam": (0.5, -0.5), "z": lambda q: (q, 1.0)},
            lambda lam, z, p: q_mittag_leffler(MLParams(1.0, 1.0, lam, 0.0), z, p),
            lambda lam, z, p: special.q_exp_e(lam * z, p)),
        _Identity("ivp_fixed_point", 1e-6, {"q": (0.3, 0.5), "alpha": (0.5, 0.9),
                                            "lam": (0.3, -0.3), "a": lambda q: [q**4],
                                            "t": _IVP_TS},
            lambda alpha, lam, a, t, p, memo: memo(_fixed_point_solution, alpha, lam, a, p)(t),
            lambda alpha, lam, a, t, p, memo: 1.0 + lam * left_frac_integral(
                memo(_fixed_point_solution, alpha, lam, a, p), a, alpha, t, p)),
        _Identity("picard_vs_closed", 1e-6, {**_IVP, "m": (25,), "t": _IVP_TS},
            _picard_at, _closed_at),
        _Identity("ivp_residual_closed", 1e-5, {**_IVP, "t": _IVP_TS}, _residual_at),
        _Identity("closed_exp_reduction", 1e-8,
            {"q": (0.5,), "alpha": (1.0,), "lam": (1.0,), "a": (0.0,), "t": _IVP_TS},
            _closed_at, lambda t, p: special.q_exp_e(t, p)),
        _Identity("picard_error_monotone", 1e-9, {**_IVP, "m_values": ([5, 10, 15, 20, 25],)},
            _picard_errors, judge=_non_increasing),
        _Identity("ivp_nonhomogeneous", 1e-6, {**_IVP, "a": (0.0,), "f": ("t",), "t": _IVP_TS},
            _closed_at, lambda alpha, lam, a, f, t, p, memo: _picard_at(
                alpha, lam, a, f, t, p, memo, 25)),
        # Series term k with z0 = a against the k-th increment.
        _Identity("ml_term_picard_increment", 1e-9, {**_IVP, "t": (0.5**2, 1.0), "k": range(6)},
            lambda alpha, lam, a, t, k, p: lam**k * special.q_factorial_power(t, a, alpha * k, p)
            / special.q_gamma(alpha * k + 1.0, p),
            lambda alpha, lam, a, t, k, p, memo: memo(_increments, t, lam, a, alpha, p)[k](t)),
        # Picard(m), a cut series, against the sum of the first m increments:
        # iterated integrals, a route that shares no series with it.
        _Identity("picard_vs_increments", 1e-12, {**_IVP, "m": (1, 3, 5), "t": _IVP_TS},
            _picard_at, lambda alpha, lam, a, t, m, p, memo: sum(
                d(t) for d in memo(_increments, t, lam, a, alpha, p)[:m + 1])),
        _Identity("ivp_residual_forced", 1e-5,
            {**_IVP, "a": (0.0, 0.5**4), "f": ("t",), "t": _IVP_TS}, _residual_at),
        # The forcing from a = 0 or on the grid of a: the kernel's one series
        # (and its first orders apart, more of them as q nears 1) against the
        # integrals order by order.  The second lam puts z = lam ((1-q) t)**alpha
        # at 1/2 for t = 1, so that the kernel, not the stopping rule, ends
        # the orders at every q.
        _Identity("forcing_kernel_vs_orders", 1e-12,
            {**_IVP, "q": (0.3, 0.5, 0.9), "lam": lambda q, alpha: (0.3, 0.5 / (1.0 - q) ** alpha),
             "a": lambda q: (0.0, q**4), "f": ("t", "t+t^2"), "t": _IVP_TS},
            lambda alpha, lam, a, f, t, p, memo: memo(
                solve_ivp_closed, IVProblem(alpha, lam, a, 0.0, f), p)(t),
            _forcing_by_orders),
        # Euler's expansion past P, or fewer direct terms where zeta allows,
        # against the long direct sum of the same coefficients; worst 7.4e-14.
        # At q = 0.9 the alternating series at |zeta| = 0.9 have terms 1e4 to
        # 5e9 times their value, whose cancellation the growth watch rejects;
        # those are left out.
        _Identity("ml_euler_vs_series", 1e-12, {
                "q": (0.3, 0.5, 0.7, 0.9), "alpha": _ORDERS, "beta": (1.0, 0.5, 2.5, -0.5),
                "lam": (1.0, -1.0),
                "zeta": lambda q, lam: (0.3,) if q == 0.9 and lam < 0.0 else (0.3, 0.9)},
            _ml_from_zero, _ml_cut),
        # The closed form on the time scale, the lattice recursion's cells,
        # against its head as partial fractions, which share no lattice
        # weight with it; rel_err is in units of the fractions' total size,
        # so the tolerance is 16 eps times their condition, kept at most 64.
        _Identity("closed_time_scale_partial_fractions", 16 * 2.0**-52, {
                "q": (0.3, 0.5, 0.7), "alpha": (0.5, 0.9, 1.0), "lam": (0.3, -0.4),
                "j": lambda q, alpha, lam: [j for j in (1, 2, 4, 6) if _pf_condition(
                    _partial_fractions(q, alpha, lam, _pf_point(q, j), j)) <= 64.0],
                "a": lambda q: (_grid_desc(q)[6],), "t": lambda q, j: (_pf_point(q, j),)},
            lambda alpha, lam, a, t, q, j, p, memo: (
                memo(solve_ivp_closed, IVProblem(alpha, lam, a, 1.0), p)(t),
                sum(map(abs, memo(_partial_fractions, q, alpha, lam, t, j)))),
            _pf_sum, _within_terms),
    ),
}


def _suite_records(suite, seed, trunc):
    """The records of one suite, each computed when it is asked for."""
    draws = _draws(suite, seed)
    memo = cache(lambda fn, *args: fn(*args))
    qparams = cache(partial(QParams, trunc=trunc))
    for entry in _TABLE[suite]:
        tol = entry.tolerance(trunc) if callable(entry.tolerance) else entry.tolerance
        read_lhs, read_rhs = _reader(entry.lhs), _reader(entry.rhs)
        for params in _expand(entry.sweep, draws):
            p = qparams(params["q"])
            f = params.get("f")
            case = {**params, "p": p, "draws": draws, "memo": memo,
                    "f": memo(_exp_rule, p) if f == "e_q" else _OPERANDS.get(f)}
            yield _record(entry.name, params, partial(entry.lhs, *read_lhs(case)),
                          partial(entry.rhs, *read_rhs(case)), tol, entry.judge)


_SUITE_BUILDERS = {name: partial(_suite_records, name) for name in SUITE_NAMES}


def run_suite(
    suite: str, seed: int = 0, trunc: Truncation | None = None
) -> CheckReport:
    """Run one named identity suite (or all of them, concatenated in
    SUITE_NAMES order) deterministically: records come in the table's order,
    entry by entry, each entry's in the order of its sweep."""
    if suite != "all" and suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES + ('all',)}")
    trunc = trunc or Truncation()
    names = SUITE_NAMES if suite == "all" else (suite,)
    started = time.perf_counter()
    records = [record for name in names for record in _SUITE_BUILDERS[name](seed, trunc)]
    return CheckReport(suite, seed, trunc, records, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# explore: the finite-b right semigroup of check frac over a grid of orders.

def default_explore_grid() -> list[tuple[float, float]]:
    """6 x 6 grid over 0.25..1.5; includes pairs with integer alpha + beta."""
    values = [0.25 * k for k in range(1, 7)]
    return [(a, b) for a in values for b in values]


def explore_finite_right_semigroup(
    pairs: list[tuple[float, float]],
    q: float,
    b: float,
    f: QFunction,
    t: float,
    trunc: Truncation | None = None,
) -> list[IdentityRecord]:
    """check frac's right_semigroup_finite records at one q, b, t and operand f.

    One record per (alpha, beta) pair, judged at the entry's tolerance: lhs
    is I_b^beta [I_{b q^(1-beta)}^alpha f](t), the nested route, and rhs is
    I_{b q}^(alpha+beta) f(t).  The pairs share one memo of inner values.  A
    pair whose evaluation fails numerically carries the failure in its error
    field.
    """
    entry = next(e for e in _TABLE["frac"] if e.name == "right_semigroup_finite")
    read_lhs, read_rhs = _reader(entry.lhs), _reader(entry.rhs)
    case = {"p": QParams(q, trunc or Truncation()), "f": f,
            "memo": cache(lambda fn, *args: fn(*args))}
    records = []
    for alpha, beta in pairs:
        params = {"q": q, "alpha": alpha, "beta": beta, "b": b, "t": t}
        case.update(params)
        records.append(_record(entry.name, params, partial(entry.lhs, *read_lhs(case)),
                               partial(entry.rhs, *read_rhs(case)), entry.tolerance))
    return records

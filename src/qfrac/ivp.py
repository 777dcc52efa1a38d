"""q-Mittag-Leffler function and the linear Caputo q-fractional IVP.

Solves, for 0 < alpha <= 1 on the q-grid through a,

    (left Caputo deriv of order alpha of y)(t) = lam * y(t) + f(t),  y(a) = a0,

in closed form through the q-Mittag-Leffler kernel, or by m steps of Picard
successive approximation, which are that series cut after m terms; a
pointwise residual check ties the solutions back to the equation itself.
On the time scale a q**-k of a > 0 both are one lattice pass over
lam a0 + f: the closed form the solution of the lattice equations, one
forward substitution over the points up to t, and Picard one cut series.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator

from . import special
from .core import (QFunction, QParams, _accumulate, _chain_sum, _check_budget, _check_domain,
                   _grew, _name, _power, _start_steps, count_terms, q_bracket)
from .errors import DomainError, NonConvergence
from .fractional import (_LEFT_AT, _lattice_cells, _lattice_weights, _left_series, left_caputo,
                         left_frac_integral)

__all__ = [
    "MLParams",
    "IVProblem",
    "IVPSolution",
    "q_mittag_leffler",
    "solve_ivp_closed",
    "solve_ivp_picard",
    "ivp_residual",
]


@dataclass(frozen=True)
class MLParams:
    """Parameters of the q-Mittag-Leffler series.

    The series is sum_k lam**k (z - z0)_q^(alpha k) / q_gamma(alpha k + beta);
    the fractional exponent alpha*k sits on the q-factorial power, which does
    not factor into a plain k-th power unless z0 = 0.  alpha must be a finite
    real > 0, beta finite (1 / q_gamma is entire, so beta may sit on a pole
    of q_gamma), lam finite and z0 finite and >= 0.
    """

    alpha: float
    beta: float = 1.0
    lam: float = 0.0
    z0: float = 0.0

    def __post_init__(self) -> None:
        _check_domain("MLParams", self.alpha, self.beta, self.lam, self.z0)


def q_mittag_leffler(mp: MLParams, z: float, p: QParams) -> float:
    """Evaluate the q-Mittag-Leffler series at z.

    A term whose alpha k + beta is a pole of q_gamma is 0, as 1 / q_gamma is
    entire.  From z0 = 0 (z > 0) the sum is a _ZeroHead's, built for this
    call, and |lam ((1-q) z)**alpha| >= 1 raises NonConvergence before any
    term.  From any other z0 it is _ml_sum's at the lattice position of z0
    below z, and divergence is detected at runtime, by terms that grow.
    """
    _check_domain("q_mittag_leffler", z)
    j = _start_steps(mp.z0, z, p.q)
    return _ZeroHead(mp, p)(z) if j is None else _ml_sum(mp, z, j, p)


@dataclass(frozen=True)
class IVProblem:
    """Linear Caputo q-fractional initial value problem on the grid through a:
    alpha in (0, 1], lam and a0 finite, a finite and >= 0."""

    alpha: float
    lam: float
    a: float
    a0: float
    forcing: QFunction | None = None

    def __post_init__(self) -> None:
        _check_domain("IVProblem", self.alpha, self.lam, self.a, self.a0)


class IVPSolution:
    """Evaluable solution with a method tag and evaluation diagnostics.

    Instances are callable.  Values of rule are memoised by functools.cache,
    keyed by the point, under a lock, so threads sharing one compute each
    point once.
    """

    def __init__(self, rule: QFunction, method: str, diagnostics: dict) -> None:
        self._memo, self._lock = cache(rule), threading.Lock()
        self.method = method
        self.diagnostics = diagnostics

    def __call__(self, t: float) -> float:
        with self._lock:  # the memo and the diagnostics that rule keeps
            return self._memo(t)

    def __repr__(self) -> str:
        return f"IVPSolution(method={self.method!r})"


_ML_AT = "q-Mittag-Leffler at z={!r}, z0={!r}, alpha={!r}, beta={!r}, lam={!r}, q={!r}"
_HUMP_AT = (_ML_AT + ": the series converges (|lam ((1-q) z)**alpha| = {!r} < 1), but its "
            "alternating terms grew past the growth watch, so a term-wise sum would cancel "
            "their digits")
# The gain A(x) = (-q**x; q)_inf / (q**x; q)_inf bounds how far rounding
# grows in the forcing kernel's recurrence (x = alpha (P + 1) its lowest
# order; see _kernel_orders) and in the cancellation of Euler's expansion of
# the q-Mittag-Leffler series (x = beta + alpha P; see _euler_split).  Each
# sums its first P orders, the fewest that keep A within its bound, one by
# one instead.  The kernel's 28 leaves P = 0 at q <= 0.5 for alpha >= 0.5,
# where A(alpha) is at most 24.9, so that the forcing there is one series,
# and stays below A(2) = 30.0 at q = 0.7, which keeps P = 2 there for
# alpha = 1 as at 8: against 40-digit values the forcing is at least as
# accurate as at 8 at each q of tests/test_ml_reference.py.  The
# expansion's 8 is pinned in eps units in the same file.
_KERNEL_GAIN = 28.0
_EULER_GAIN = 8.0


def _diverges(where: tuple, size: float, x: str = "t") -> NonConvergence:
    """The error of a series in lam ((1-q) x)**alpha, named by where, whose
    ratio has size |lam ((1-q) x)**alpha| >= 1."""
    return NonConvergence(f"{_name(where)}: |lam ((1-q) {x})**alpha| = {size!r} >= 1, "
                          f"so the series diverges")


def _euler_split(alpha: float, beta: float, p: QParams) -> int | None:
    """P for _ZeroHead's series from z0 = 0: the terms summed one by one ahead
    of Euler's expansion, or None where P passes max_terms and the expansion
    is never taken.

    P is the fewest with y / (1 - y) <= (ln _EULER_GAIN / 2) (1 - q),
    y = q**(beta + alpha P): as ln A(x) = sum_i ln((1 + x q**i) / (1 - x q**i))
    <= 2 x / ((1 - x) (1 - q)), that keeps the cancellation
    A(beta + alpha P) = (-y; q)_inf / (y; q)_inf of the expansion's
    alternating sum within _EULER_GAIN.
    """
    q = p.q
    gain = 0.5 * math.log(_EULER_GAIN) * (1.0 - q)
    lowest = (math.log(gain / (1.0 + gain)) / math.log(q) - beta) / alpha  # the least real P
    if not lowest <= p.trunc.max_terms:
        return None
    return math.ceil(max(lowest, 0.0))


def _split_sum(terms: Iterator[float], orders: int, rest: Callable[[], float], p: QParams,
               where: tuple) -> float:
    """The first `orders` terms under the stopping rule, watched for growth
    (see core._accumulate, which takes where), plus rest(), the sum past
    them, unless the rule has ended them first: where the terms are small
    from the start the sum ends as it would with no rest, whose terms are
    below the rule."""
    passed = []  # set once all the orders are summed and the rule has not ended them

    def first() -> Iterator[float]:
        yield from itertools.islice(terms, orders)
        passed.append(True)

    value = _accumulate(first(), p.trunc, detect_growth=True, where=where)
    return value + rest() if passed else value


def _ml_sum(mp: MLParams, z: float, j: int, p: QParams) -> float:
    """sum_k lam**k (z - z0)_q^(alpha k) / q_gamma(alpha k + beta) from a
    z0 > 0, with j = _start_steps(z0, z, q), to the stopping rule watched
    for growth (see core._accumulate): the closed form's head off the time
    scale.  From z0 = 0 the series is _ZeroHead's.

    By q_gamma's product form Gamma_q(x) = (q; q)_inf (1-q)**(1-x) /
    (q**x; q)_inf, term k is (1-q)**(beta-1) zeta**k (q**(alpha k + beta);
    q)_inf R_k / (q; q)_inf, with zeta = lam ((1-q) z)**alpha and
    R_k = (z - z0)_q^(alpha k) / z**(alpha k): (q**j; q)_inf /
    (q**(j + alpha k); q)_inf for z0 = z q**j (so j = 0 keeps only the k = 0
    term), and, by the q-power rule, the running product of
    (z - z0 q**(alpha i))_q^(alpha) / z**alpha, i < k, for z0 off the grid of
    z or above it.  zeta**k (with R_k off the grid) is a running product, so
    no power of lam or 1 - q grows apart, and no q_gamma is called.

    For an integer beta and j >= 1 the tails' quotient is finite, and term k
    is zeta**k / [beta-1]_q! times the |j - beta| factors
    (1 - q**(alpha k + lo + i)) / (1 - q**max(lo + i, 1)), lo = min(beta, j),
    each inverted for beta > j ([beta-1]_q! = 1 for beta <= 1, where the
    first 1 - beta factors are the q-numbers [alpha k + beta + i]_q).  So
    no infinite product is formed, and no finite one apart: (q; q)_(j-1) and
    (1-q)**(beta-1) underflow for q near 1 while their quotient does not.
    For beta = 1 and j = 1 term k is zeta**k.  The factors a term takes are
    checked against the budget before the first term.  A term that
    overflows raises NumericOverflow naming z, z0, alpha, beta, lam and q.
    """
    alpha, beta, lam, z0, q = mp.alpha, mp.beta, mp.lam, mp.z0, p.q
    where = (_ML_AT, z, z0, alpha, beta, lam, q)
    step, tail = lam * (1.0 - q) ** alpha, special._pochhammer_tail
    if j == -1:
        steps = (step * special.q_factorial_power(z, z0 * q ** (alpha * i), alpha, p)
                 for i in itertools.count())
    else:
        steps = itertools.repeat(step * special.q_factorial_power(z, 0.0, alpha, p))

    def finite_terms() -> Iterator[float]:
        b = int(beta)
        lo, n, invert = min(b, j), abs(j - b), b > j
        _check_budget(n + max(b - 2, 0), p.trunc, where)
        start, shift = _power(q, lo, *where), q**alpha
        # 1 - q**max(lo + i, 1), from the products the k = 0 factors take
        fixed = [1.0 - min(c, q) for c in itertools.islice(
            itertools.accumulate(itertools.repeat(q), operator.mul, initial=start), n)]
        first = 1.0 / math.prod(q_bracket(i, p) for i in range(2, b))  # 1 / [b-1]_q!
        for power in itertools.accumulate(steps, operator.mul, initial=first):
            moving = start
            for factor in fixed:
                power *= factor / (1.0 - moving) if invert else (1.0 - moving) / factor
                moving *= q
            yield power
            start *= shift

    def tail_terms() -> Iterator[float]:
        # (1-q)**(beta-1) zeta**k (q**(alpha k + beta); q)_inf / (q; q)_inf,
        # times R_k off the grid
        first, below = _power(1.0 - q, beta - 1.0, *where), tail(1.0, p)
        powers = itertools.accumulate(steps, operator.mul, initial=first)
        ratios = itertools.repeat(1.0)
        if j >= 0:
            before = tail(float(j), p)
            ratios = itertools.chain([1.0], (before / tail(j + alpha * k, p)
                                             for k in itertools.count(1)))
        for k, (power, ratio) in enumerate(zip(powers, ratios)):
            yield power * tail(alpha * k + beta, p) * ratio / below

    terms = finite_terms() if j >= 1 and beta == int(beta) else tail_terms()
    return _accumulate(terms, p.trunc, detect_growth=True, where=where)


def _euler_multipliers(alpha: float, x: float, q: float) -> list[float]:
    """The factors -q**(x + n) / (1 - q**(n + 1)), n < N - 1, that take term
    n of Euler's expansion of sum_k zeta**k (q**(alpha k + x); q)_inf, less
    zeta and the scale, to term n + 1 (see _ZeroHead), for the fewest
    N >= 1 whose rest is below 2**-54 (1 - q**alpha) of term 0.

    The ratio r_n = q**(x + n) / (1 - q**(n + 1)) of their sizes falls with
    n, so past n the sizes add up to at most |e_n| / (1 - r_n) once r_n < 1;
    they fall like q**(n(n-1)/2), and N is found in a few steps with no
    tail read.
    """
    y, fall = q**x, q
    floor = 2.0**-54 * (1.0 - q**alpha)
    multipliers, size, ratio = [], 1.0, y / (1.0 - fall)  # |e_n / e_0|, r_n
    while True:
        y, fall = y * q, fall * q
        following = y / (1.0 - fall)
        if following < 1.0 and size * ratio <= floor * (1.0 - following):
            return multipliers
        multipliers.append(-ratio)
        size *= ratio
        ratio = following


class _ZeroHead:
    """The q-Mittag-Leffler series from z0 = 0 of one MLParams as a function
    of z, from one list of coefficients grown only as far as a call needs.

    With zeta = lam ((1-q) z)**alpha and e_0 = (1-q)**(beta-1) / (q; q)_inf
    the series is the sum of c_k zeta**k, c_k = e_0 (q**(alpha k + beta);
    q)_inf (see _ml_sum), and past P = orders (_euler_split) it is

        sum_{k<P} c_k zeta**k + zeta**P sum_n e_n / (1 - zeta q**(alpha n)),

    e_n = e_0 (-1)**n q**(n(n-1)/2) y**n / (q; q)_n, y = q**(beta + alpha P):
    Euler's expansion of (x; q)_inf at x = q**(alpha k + beta), summed over
    k >= P first as a geometric series, which |zeta| < 1 allows.  As
    |1 - zeta q**(alpha n)| > 1 - q**alpha for n >= 1, N, the fewest n >= 1
    that put the expansion's rest below 2**-54 |zeta**P e_0|
    (_euler_multipliers), needs no zeta, and this full plan is exact to
    rounding whatever rel_tol.  Once alpha k + beta >= 0 each tail is at most
    1, so the rest past K terms is below 2**-54 |c_j zeta**j|, c_j the first
    c_k not 0, if |zeta|**(K-j) <= floor (1 - |zeta|), floor = 2**-54
    |c_j / e_0|: a call with |zeta|**(P-j) <= floor (1 - |zeta|), or any with
    P None, sums the fewest such K >= 1 with alpha K + beta >= 0 alone.

    The first call with |zeta| < 1, whether or not cut ran before it, checks
    P + N (length, formed then or for the closed form's diagnostics) against
    max_terms and reads (q; q)_inf and, but at P = 0, c_0 to c_j; the list
    grows to a call's K or P, each tail read and noted once (a K past
    max_terms raises NonConvergence), and the running product e_n is formed
    at the first full plan.  A call's terms are one cut sum of
    core._accumulate, math.fsum with no stopping rule.  |zeta| >= 1 raises
    NonConvergence before any tail is read; for zeta < 0 the direct terms
    summed are watched for growth (core._grew), and a hump raises
    NonConvergence naming the cancellation.  cut sums the first terms in
    full, Picard's head from a = 0, and forms no N.  The list lives in the
    instance, grown under a solution's lock: one per q_mittag_leffler call,
    one per solution from a = 0.
    """

    def __init__(self, mp: MLParams, p: QParams) -> None:
        alpha, beta, q = mp.alpha, mp.beta, p.q
        self._mp, self._p, self.orders = mp, p, _euler_split(alpha, beta, p)
        self._step = mp.lam * (1.0 - q) ** alpha
        self._least = min(max(-beta / alpha, 1.0), p.trunc.max_terms + 1.0)  # K is no less
        self._coefs: list[float] = []
        self._scale: float | None = None
        self._lead, self._floor = 0, 0.0
        self._euler: list[float] | None = None
        self._called = False

    @cached_property
    def length(self) -> int:
        """P + N, for orders not None, with the full plan's multipliers."""
        alpha, q = self._mp.alpha, self._p.q
        self._multipliers = _euler_multipliers(alpha, self._mp.beta + alpha * self.orders, q)
        self._lifts = list(itertools.accumulate(itertools.repeat(
            q**alpha, len(self._multipliers)), operator.mul, initial=1.0))  # q**(alpha n)
        return self.orders + len(self._lifts)

    def _grow(self, count: int, where: tuple) -> list[float]:
        """The c_k, at least count of them, count checked against max_terms
        before new tails are read; the first c_j not 0 sets lead (j) and floor."""
        coefs, alpha, beta, p = self._coefs, self._mp.alpha, self._mp.beta, self._p
        tail = special._pochhammer_tail
        _check_budget(count, p.trunc, where)  # only a count past len(coefs) can fail it
        if self._scale is None:
            self._scale = _power(1.0 - p.q, beta - 1.0, *where) / tail(1.0, p)  # e_0
        for k in range(len(coefs), count):
            value = tail(alpha * k + beta, p)
            if value and not self._floor:
                self._lead, self._floor = k, 2.0**-54 * abs(value)
            coefs.append(self._scale * value)
        return coefs

    def __call__(self, z: float) -> float:
        where = (_ML_AT, z, 0.0, self._mp.alpha, self._mp.beta, self._mp.lam, self._p.q)
        zeta = self._step * _power(z, self._mp.alpha, *where)
        size, orders = abs(zeta), self.orders
        if not size < 1.0:
            raise _diverges(where, size, "z")
        if not self._called:  # cut may have grown the list, and checked no length
            if orders is not None:
                _check_budget(self.length, self._p.trunc, where)
            self._grow(int(orders != 0), where)  # c_j and floor serve no P = 0
            while orders != 0 and not self._floor:  # c_0 = 0: up to the first c_j that is not
                self._grow(len(self._coefs) + 1, where)
            self._called = True
        if orders is None or orders and size**(orders - self._lead) <= self._floor * (1.0 - size):
            rest = self._floor * (1.0 - size)
            if size and not rest:
                raise NonConvergence(f"{_name(where)}: the bound on the rest underflowed")
            count = math.ceil(max(self._least, self._lead + math.log(rest, size) if size else 1.0))
            return self._sum(zeta, count, where, zeta < 0.0)
        if self._euler is None:
            self._euler = list(itertools.accumulate(self._multipliers, operator.mul,
                                                    initial=self._scale))
        return self._sum(zeta, orders, where, zeta < 0.0, True)

    def cut(self, z: float, count: int) -> float:
        """The first count terms at z in full, however they grow: Picard's head."""
        where = (_ML_AT, z, 0.0, self._mp.alpha, self._mp.beta, self._mp.lam, self._p.q)
        return self._sum(self._step * _power(z, self._mp.alpha, *where), count, where)

    def _sum(self, zeta: float, count: int, where: tuple, watch: bool = False,
             expansion: bool = False) -> float:
        """core._accumulate's cut sum of c_k zeta**k, k < count, and with expansion
        Euler's N past them; with watch the first count are watched first."""
        coefs = self._coefs if len(self._coefs) >= count else self._grow(count, where)
        powers = list(itertools.accumulate(itertools.repeat(zeta, count), operator.mul,
                                           initial=1.0))
        top = powers.pop()  # zeta**count
        terms = list(map(operator.mul, coefs, powers))
        if expansion:
            terms += [top * e / (1.0 - zeta * lift) for e, lift in zip(self._euler, self._lifts)]
        if watch and _grew(itertools.islice(terms, count)):
            raise NonConvergence(_name((_HUMP_AT, *where[1:], abs(zeta))))
        return _accumulate(terms, self._p.trunc, detect_growth=False, count=len(terms),
                           where=where)


_FORCING_AT = "forcing term at t={!r}, alpha={!r}, lam={!r}, k={!r}"
_FORCING_SUM_AT = "forcing at t={!r}, alpha={!r}, lam={!r}, q={!r}"
# Cells a kernel row is first filled to.
_KERNEL_CHUNK = 16


def _kernel_orders(alpha: float, p: QParams) -> int:
    """The fewest P >= 0 with A(alpha (P + 1)) <= _KERNEL_GAIN, by doubling
    and bisection: A falls as beta grows, so a large P takes few products.
    P is 0 at q <= 0.5 for alpha >= 0.5, 2 to 4 at q = 0.7 and 17 to 34 at
    q = 0.9 (alpha from 1 down to 0.5)."""

    def within(orders: int) -> bool:
        beta = alpha * (orders + 1)
        where = ("(-q**beta; q)_inf at beta={!r}, q={!r}", beta, p.q)
        gain = special._q_product(-(p.q**beta), p, where) / special._pochhammer_tail(beta, p)
        return gain <= _KERNEL_GAIN

    top = 1
    while not within(top):
        top *= 2
    return bisect.bisect_left(range(top), True, key=within)


class _Kernel:
    """The forcing kernel K_i(x) = sum_{k>=P} z**k w_i^(alpha(k+1)) at the
    chain points x of one solution, with z = lam ((1-q) x)**alpha,
    P = _kernel_orders(alpha, p) and w^(mu) the weights of
    fractional._lattice_series downward at order mu, weight 1 and offset 1:
    past its first P orders the forcing at x is the one series
    h sum_i K_i(x) f(x q**i), h = ((1-q) x)**alpha, and for P = 0 (at
    q <= 0.5 for alpha >= 0.5) the whole forcing is that series.

    Row x holds K_0(x), K_1(x), ...  K_0 = z**P / (1 - z), and as
    z(xq) = q**alpha z(x) the weights' recurrence gives K_i(x)
    = q / (1 - q**i) (K_{i-1}(x) - q**(i-1+alpha) K_{i-1}(xq)), two
    multiplies a cell.  Rows are keyed by the point, so the evaluations that
    pass x (the residual's points among them) read the same cells; they are
    filled from the solution's rule, under its lock.
    """

    def __init__(self, alpha: float, lam: float, p: QParams) -> None:
        self.orders = _kernel_orders(alpha, p)
        self._alpha, self._lam, self._q = alpha, lam, p.q
        self._rows: dict[float, list[float]] = {}
        self._scale, self._shift = [0.0], [0.0]  # q / (1 - q**i), q**(i-1+alpha); i >= 1

    def _first(self, x: float) -> float:
        """K_0(x)."""
        z = self._lam * ((1.0 - self._q) * x) ** self._alpha
        return z**self.orders / (1.0 - z)

    def row(self, x: float, n: int) -> list[float]:
        """Row x with at least n cells.  Cell i of a row reads cell i - 1 of
        the row below (xq), so the rows below that are short, one cell less
        each, are filled first, upward from the first one long enough."""
        rows, q = self._rows, self._q
        short = []
        while True:
            row = rows.get(x)
            if row is None:
                row = rows[x] = [self._first(x)]
            if len(row) >= n:
                break
            short.append((row, n))
            x, n = x * q, n - 1
        scale, shift = self._scale, self._shift
        for i in range(len(scale), n + len(short)):
            scale.append(q / (1.0 - q**i))
            shift.append(q ** (i - 1 + self._alpha))
        below = row
        for row, n in reversed(short):
            for i in range(len(row), n):
                row.append(scale[i] * (row[i - 1] - shift[i] * below[i - 1]))
            below = row
        return below

    def weights(self, x: float, h: float) -> Iterator[float]:
        """h K_0(x), h K_1(x), ...: the weights of the series at x, without end."""
        row = self.row(x, _KERNEL_CHUNK)
        for i in itertools.count():
            if i == len(row):
                row = self.row(x, i + i // 2)
            yield h * row[i]


def _solution(prob: IVProblem, value: Callable[[float, int | None], float], method: str,
              p: QParams, **diagnostics: int) -> IVPSolution:
    """The solution both solvers build: at t > a it is value(t, steps), with
    steps = _start_steps(a, t, q) found once per point.  t is checked, t < a
    raises DomainError and y(a) = a0 with nothing summed; the diagnostics
    count the evaluated points and their terms, then hold the solver's own."""
    a = prob.a
    diagnostics = {"terms": 0, "evaluations": 0, **diagnostics}

    def rule(t: float) -> float:
        _check_domain("IVPSolution", t)
        if not t >= a:
            raise DomainError(f"the solution needs t >= a, got t={t}, a={a}")
        with count_terms() as counter:
            # At t = a the head's terms past the first and the integrals vanish.
            result = prob.a0 if t == a else value(t, _start_steps(a, t, p.q))
        diagnostics["evaluations"] += 1
        diagnostics["terms"] += counter.total
        return result

    return IVPSolution(rule, method, diagnostics)


def _operands(prob: IVProblem) -> tuple[QFunction | None, QFunction | None]:
    """f, memoised, as the terms of a forcing series sample it on the same
    lattice points, and g = lam a0 + f, the operand of the one lattice pass
    that a point of the time scale a q**-k takes, None where it is 0."""
    f = None if prob.forcing is None else cache(prob.forcing)
    rate = prob.lam * prob.a0
    if f is None:
        return None, None if rate == 0.0 else lambda s: rate
    return f, lambda s: rate + f(s)


def solve_ivp_closed(prob: IVProblem, p: QParams) -> IVPSolution:
    """Closed-form solution: y(t) = a0 E_{alpha,1}(lam, t - a) + forcing term.

    The forcing term integral_a^t (t - qs)_q^(alpha-1) E_{alpha,alpha}(lam,
    t - q**alpha s) f(s) nabla_q s is, by the q-power rule (t - s)_q^(mu)
    (t - q**mu s)_q^(nu) = (t - s)_q^(mu+nu), sum_k lam**k I_a^(alpha(k+1)) f(t).

    On the time scale, t = a q**-j with a > 0, y solves the lattice
    equations at every lam, one forward substitution over g = lam a0 + f:
    with t_k = a q**-k, h_k = ((1-q) t_k)**alpha and u_k = y(t_k) - a0,
    u_k (1 - lam h_k) = g(t_k) h_k - sum_{i=1}^{k-1} w_i u_{k-i}, w the
    order -alpha lattice weights of left_caputo (fractional._lattice_cells),
    and y(t) = a0 + u_j, the cells kept for the solution's later points.

    Elsewhere y is a0 times the q-Mittag-Leffler series plus the forcing
    series, whose term k is z**k (z = lam h, h = ((1-q) t)**alpha) times a
    left series of weight h; with lam = 0 the forcing is one fractional
    integral.  From a = 0 the head is _ZeroHead's, exact to rounding (its P
    and N are head_orders and head_euler_terms in the diagnostics), and the
    forcing orders past the first P are one series over _Kernel, whose cells
    the points share, unless the stopping rule ends them first; for P = 0
    (q <= 0.5, alpha >= 0.5) that series is the whole forcing.  From an a
    off the grid of t the head is _ml_sum's and the orders are summed one by
    one, and terms that grow raise NonConvergence.

    |z| >= 1 at t from a = 0 or on the time scale raises NonConvergence
    before any cell is formed or f sampled, and so does an alternating hump
    of the head from 0 too steep to sum, naming the cancellation.  t < a
    raises DomainError; y(a) = a0, with nothing summed.
    """
    alpha, lam, a, a0, q = prob.alpha, prob.lam, prob.a, prob.a0, p.q
    forcing, source = _operands(prob)
    cells = [0.0]  # u_k = y(a q**-k) - a0 on the time scale
    mp = MLParams(alpha, 1.0, lam, a)
    zero_head = _ZeroHead(mp, p) if a == 0.0 else None
    kernel = _Kernel(alpha, lam, p) if a == 0.0 and forcing is not None and lam != 0.0 else None
    orders = None if zero_head is None else zero_head.orders
    diagnostics = {} if orders is None else {
        "head_orders": orders, "head_euler_terms": zero_head.length - orders}

    def forced(t: float, steps: int | None) -> float:
        """The forcing term at t off the time scale."""
        if forcing is None:
            return 0.0
        if lam == 0.0:  # every term after the first is 0.0 times an integral
            return left_frac_integral(forcing, a, alpha, t, p)
        h = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        where = (_FORCING_SUM_AT, t, alpha, lam, q)
        orders = (_power(lam * h, k, _FORCING_AT, t, alpha, lam, k)
                  * _left_series(forcing, a, alpha * (k + 1), t, steps, h, p)
                  for k in itertools.count())
        if steps == -1:
            return _accumulate(orders, p.trunc, detect_growth=True, where=where)
        if not abs(lam * h) < 1.0:
            raise _diverges(where, abs(lam * h))
        series = lambda: _chain_sum(forcing, t, False, kernel.weights(t, h), None, p, where)
        if kernel.orders == 0:
            return series()
        # Far down the chain z is small, and the rule ends the orders before P.
        return _split_sum(orders, kernel.orders, series, p, where)

    def step(t: float, s: float) -> float:
        """u_k at t = t_k from the convolution s of the cells below."""
        h = ((1.0 - q) * t) ** alpha
        return (source(t) * h - s) / (1.0 - lam * h)

    def value(t: float, steps: int | None) -> float:
        if steps is None or steps == -1:  # from a = 0, or off the time scale
            if a0 == 0.0:
                return forced(t, steps)
            head = _ml_sum(mp, t, steps, p) if zero_head is None else zero_head(t)
            return a0 * head + forced(t, steps)
        if source is None:
            return a0
        # Below t every cell has |lam h_k| < 1, so no diagonal 1 - lam h_k
        # vanishes and no cell needs a PoleError.
        size = abs(lam) * ((1.0 - q) * max(t, a / q**steps)) ** alpha
        if not size < 1.0:
            raise (_diverges((_ML_AT, t, a, alpha, 1.0, lam, q), size, "z") if a0 != 0.0
                   else _diverges((_FORCING_SUM_AT, t, alpha, lam, q), size))
        where = ("lattice cell at t={!r}, a={!r}, alpha={!r}, lam={!r}, q={!r}", a, alpha, lam, q)
        return a0 + _lattice_cells(cells, steps, alpha, a, step, p, where)[steps]

    return _solution(prob, value, "closed-form", p, **diagnostics)


def solve_ivp_picard(prob: IVProblem, m: int, p: QParams) -> IVPSolution:
    """m-step successive approximation y_k = a0 + lam I^alpha y_{k-1} + I^alpha f.

    By the q-power rule and the semigroup law I^alpha I^(alpha k) =
    I^(alpha (k+1)), y_m is the closed form's series cut after term m:

        y_m(t) = a0 sum_{k<=m} lam**k (t - a)_q^(alpha k) / Gamma_q(alpha k + 1)
                 + sum_{k<m} lam**k I_a^(alpha(k+1)) f(t),

    summed in full however its terms grow, so y_m exists where the closed
    form raises NonConvergence.  Every point lies on the grid of a, so the
    sum over k of lam**k I_a^(alpha(k+1)) g(t) is one lattice series over the
    samples g(t q**i), its weight at i h sum_{k<m} (lam h)**k w_i^(alpha(k+1)),
    h = ((1-q) t)**alpha, with w the unit-weight lattice weights of each
    order (fractional._lattice_weights), added in k order; m is checked
    against max_terms before any weight is formed.  On the time scale,
    t = a q**-j with a > 0, y_m(t) = a0 + sum_{k<m} lam**k I_a^(alpha(k+1)) g(t)
    for g = lam a0 + f, that series over the j points below t; from a = 0 it
    is a0 times the first m + 1 terms of _ZeroHead's series (cut) plus that
    series of f, without end.  Diagnostics count the evaluated points and
    their terms.  t < a and, with a > 0, a t off the time scale raise
    DomainError; y(a) = a0, and y_0 = a0 even when forced.
    """
    _check_domain("solve_ivp_picard", m)
    alpha, lam, a, a0, q, m = prob.alpha, prob.lam, prob.a, prob.a0, p.q, int(m)
    forcing, source = _operands(prob)
    zero_head = _ZeroHead(MLParams(alpha, 1.0, lam), p) if a == 0.0 else None

    def series(g: QFunction, t: float, steps: int | None) -> float:
        """sum_{k<m} lam**k I_a^(alpha(k+1)) g(t), one lattice series."""
        h = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        where = (_FORCING_SUM_AT, t, alpha, lam, q)
        _check_budget(m, p.trunc, where)
        orders = [_lattice_weights(h * _power(lam * h, k, _FORCING_AT, t, alpha, lam, k), q,
                                   alpha * (k + 1), 1.0, q, where) for k in range(m)]
        return _chain_sum(g, t, False, map(sum, zip(*orders)), steps, p, where)

    def value(t: float, steps: int | None) -> float:
        if steps == -1:
            raise DomainError(f"with a > 0, Picard iterates live on the time scale "
                              f"a q**-j; t={t} is not on it (a={a})")
        if zero_head is None:
            return a0 if source is None or m == 0 else a0 + series(source, t, steps)
        head = 0.0 if a0 == 0.0 else a0 * zero_head.cut(t, m + 1)
        return head if forcing is None or m == 0 else head + series(forcing, t, None)

    return _solution(prob, value, f"picard({m})", p, iterations=m)


def ivp_residual(
    prob: IVProblem, y: "IVPSolution | QFunction", t: float, p: QParams
) -> float:
    """Pointwise defect of y in the equation: Caputo term minus lam y(t) + f(t)."""
    _check_domain("ivp_residual", t)
    if not t > prob.a:
        raise DomainError(f"residual point must satisfy t > a, got t={t}, a={prob.a}")
    forcing_value = prob.forcing(t) if prob.forcing is not None else 0.0
    return (
        left_caputo(y, prob.a, prob.alpha, t, p)
        - prob.lam * y(t)
        - forcing_value
    )

"""q-Mittag-Leffler function and the linear Caputo q-fractional IVP.

Solves, for 0 < alpha <= 1 on the q-grid through a,

    (left Caputo deriv of order alpha of y)(t) = lam * y(t) + f(t),  y(a) = a0,

in closed form through the q-Mittag-Leffler kernel, or by m steps of Picard
successive approximation, which are that series cut after m terms; a
pointwise residual check ties the solutions back to the equation itself.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

from . import special
from .core import (QFunction, QParams, _accumulate, _chain_sum, _check_budget, _name, _power,
                   _start_steps, count_terms, q_bracket)
from .errors import DomainError, NonConvergence, NumericOverflow
from .fractional import _LEFT_AT, _left_series, left_caputo, left_frac_integral

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
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be a finite real > 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam}")
        if self.z0 < 0.0:
            raise DomainError(f"z0 must be >= 0, got {self.z0}")
        if not math.isfinite(self.z0):
            raise DomainError(f"z0 must be finite, got {self.z0}")


def q_mittag_leffler(mp: MLParams, z: float, p: QParams) -> float:
    """Evaluate the q-Mittag-Leffler series at z.

    The sum is _ml_sum's at the lattice position of z0 below z.  A term whose
    alpha k + beta is a pole of q_gamma is 0, as 1 / q_gamma is entire.  From
    z0 = 0 (z > 0) the series is a geometric one in zeta = lam ((1-q)
    z)**alpha: |zeta| >= 1 raises NonConvergence before any term, and the
    sum takes Euler's expansion past its first P terms (_euler_split, worked
    out once per call); alternating terms that rise past the growth watch
    raise NonConvergence naming that cancellation.
    From any other z0 divergence is detected at runtime, by terms that grow.
    """
    j = _start_steps(mp.z0, z, p.q)
    split = _euler_split(mp.alpha, mp.beta, p) if j is None else None
    return _ml_sum(mp, z, j, p, split=split)


@dataclass(frozen=True)
class IVProblem:
    """Linear Caputo q-fractional initial value problem on the grid through a:
    alpha in (0, 1], lam and a0 finite, a >= 0."""

    alpha: float
    lam: float
    a: float
    a0: float
    forcing: QFunction | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam}")
        if self.a < 0.0:
            raise DomainError(f"a must be >= 0, got {self.a}")
        if not math.isfinite(self.a0):
            raise DomainError(f"a0 must be finite, got {self.a0}")


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


def _euler_split(alpha: float, beta: float, p: QParams) -> int | None:
    """P for _ml_sum's series from z0 = 0: the terms summed one by one ahead
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
               where: tuple, detect_growth: bool = True, grew: tuple | None = None) -> float:
    """The first `orders` terms under the stopping rule (see core._accumulate,
    which takes detect_growth, where and grew) plus rest(), the sum past
    them, unless the rule has ended them first: where the terms are small
    from the start the sum ends as it would with no rest, whose terms are
    below the rule."""
    passed = []  # set once all the orders are summed and the rule has not ended them

    def first() -> Iterator[float]:
        yield from itertools.islice(terms, orders)
        passed.append(True)

    value = _accumulate(first(), p.trunc, detect_growth=detect_growth, where=where, grew=grew)
    return value + rest() if passed else value


def _ml_sum(mp: MLParams, z: float, j: int | None, p: QParams,
            count: int | None = None, split: int | None = None) -> float:
    """sum_k lam**k (z - z0)_q^(alpha k) / q_gamma(alpha k + beta) with
    j = _start_steps(z0, z, q), to the stopping rule watched for growth
    (from z0 = 0 only where the terms alternate, see below), or over
    k < count in full if count is given (see core._accumulate).

    By q_gamma's product form Gamma_q(x) = (q; q)_inf (1-q)**(1-x) /
    (q**x; q)_inf, term k is (1-q)**(beta-1) zeta**k (q**(alpha k + beta);
    q)_inf R_k / (q; q)_inf, with zeta = lam ((1-q) z)**alpha and
    R_k = (z - z0)_q^(alpha k) / z**(alpha k): 1 for z0 = 0, (q**j; q)_inf /
    (q**(j + alpha k); q)_inf for z0 = z q**j (so j = 0 keeps only the k = 0
    term), and, by the q-power rule, the running product of
    (z - z0 q**(alpha i))_q^(alpha) / z**alpha, i < k, for z0 off the grid of
    z or above it.  zeta**k (with R_k off the grid) is a running product, so
    no power of lam or 1 - q grows apart, and no q_gamma is called.

    From z0 = 0 with no count (j None) the series is geometric in zeta:
    |zeta| >= 1 raises NonConvergence before any term, and below 1 it
    converges, so terms that grow are a hump, watched only for zeta < 0,
    where they cancel: one the watch rejects raises NonConvergence that says
    so, as a term-wise sum would lose the hump's digits.  split, P from
    _euler_split, is given there only: the first P terms are summed one by
    one and, unless the stopping rule ends them, the rest by Euler's
    expansion (x; q)_inf = sum_n (-1)**n q**(n(n-1)/2) x**n / (q; q)_n, at
    x = q**(alpha k + beta) and summed over k >= P as a geometric series
    (|zeta| < 1, and the sum converges absolutely): sum_{k>=P} zeta**k
    (q**(alpha k + beta); q)_inf = zeta**P sum_n (-1)**n q**(n(n-1)/2) y**n
    / ((q; q)_n (1 - zeta q**(alpha n))), y = q**(beta + alpha P), whose
    terms follow each other in O(1) with no infinite product.  So a sum
    reads at most P + 1 products from the tail cache, which notes their
    terms on every read.

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
        zeta = step * special.q_factorial_power(z, 0.0, alpha, p)
        steps = itertools.repeat(zeta)
        if j is None and count is None and not abs(zeta) < 1.0:
            raise NonConvergence(f"{_name(where)}: |lam ((1-q) z)**alpha| = {abs(zeta)!r} "
                                 f">= 1, so the series diverges")

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

    def scale() -> tuple[float, float]:
        return _power(1.0 - q, beta - 1.0, *where), tail(1.0, p)  # (1-q)**(beta-1), (q; q)_inf

    def tail_terms(parts: tuple[float, float] | None = None) -> Iterator[float]:
        # (1-q)**(beta-1) zeta**k (q**(alpha k + beta); q)_inf / (q; q)_inf,
        # times R_k off the grid
        first, below = parts or scale()
        powers = itertools.accumulate(steps, operator.mul, initial=first)
        ratios = itertools.repeat(1.0)
        if j is not None and j >= 0:
            before = tail(float(j), p)
            ratios = itertools.chain([1.0], (before / tail(j + alpha * k, p)
                                             for k in itertools.count(1)))
        for k, (power, ratio) in enumerate(zip(powers, ratios)):
            yield power * tail(alpha * k + beta, p) * ratio / below

    def euler_terms(orders: int, first: float, below: float) -> Iterator[float]:
        # term n of the expansion past the first `orders` terms, times
        # (1-q)**(beta-1) zeta**orders / (q; q)_inf
        coef = first * zeta**orders / below
        y, shift, lifted, fall = q ** (beta + alpha * orders), q**alpha, zeta, 1.0
        while True:
            yield coef / (1.0 - lifted)
            fall *= q
            coef *= -y / (1.0 - fall)
            y *= q
            lifted *= shift

    def checked(terms: Iterator[float]) -> Iterator[float]:
        for k, term in enumerate(terms):
            if math.isinf(term):
                raise NumericOverflow(f"{_name(where)}: term {k} overflowed")
            yield term

    # From z0 = 0 terms of zeta >= 0 share one sign (past those of
    # alpha k + beta < 0), so a hump in them cancels nothing; as the series
    # converges, terms of zeta < 0 that grow are a hump that cancels.
    watch = j is not None or zeta < 0.0
    hump = None if j is not None else (_HUMP_AT, *where[1:], abs(zeta))
    if split is None:
        finite = j is not None and j >= 1 and beta == int(beta)
        terms = finite_terms() if finite else tail_terms()
        return _accumulate(checked(terms), p.trunc, detect_growth=watch, count=count,
                           where=where, grew=hump)
    parts = scale()
    return _split_sum(checked(tail_terms(parts)), split, lambda: _accumulate(
        euler_terms(split, *parts), p.trunc, detect_growth=False, where=where), p, where,
        detect_growth=watch, grew=hump)


_FORCING_AT = "forcing term at t={!r}, alpha={!r}, lam={!r}, k={!r}"
# Cells a kernel row is first filled to when its series has no known length.
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

    def weights(self, x: float, h: float, steps: int | None) -> Iterator[float]:
        """h K_0(x), h K_1(x), ...: the weights of the series at x, steps
        of them, or without end for steps None."""
        row = self.row(x, steps or _KERNEL_CHUNK)
        for i in itertools.count():
            if i == len(row):
                row = self.row(x, i + i // 2)
            yield h * row[i]


def _series_solution(prob: IVProblem, m: int | None, p: QParams) -> IVPSolution:
    """The closed form's series (see solve_ivp_closed), summed to the stopping
    rule for m None, else cut after m terms: the m-th Picard iterate."""
    alpha, lam, a, a0 = prob.alpha, prob.lam, prob.a, prob.a0
    q = p.q
    # Every term of the forcing series samples f on the same lattice points.
    forcing = None if prob.forcing is None else cache(prob.forcing)
    head = MLParams(alpha, 1.0, lam, a)
    head_terms = None if m is None else m + 1
    # From a = 0 the closed form's head takes Euler's expansion past P (see _ml_sum).
    split = _euler_split(alpha, 1.0, p) if a == 0.0 and m is None else None
    kernel = None if forcing is None or lam == 0.0 or m is not None else _Kernel(alpha, lam, p)
    diagnostics = {"terms": 0, "evaluations": 0}

    def order_terms(t: float, steps: int | None, h: float) -> Iterator[float]:
        for k in itertools.count():
            yield (_power(lam * h, k, _FORCING_AT, t, alpha, lam, k)
                   * _left_series(forcing, a, alpha * (k + 1), t, steps, h, p))

    def forced(t: float, steps: int | None) -> float:
        """The forcing term at t > a: order by order for Picard and from an a
        off the grid of t, else its first P orders and the kernel's series,
        or for P = 0 that series alone."""
        h = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        where = ("forcing at t={!r}, alpha={!r}, lam={!r}, q={!r}", t, alpha, lam, q)
        if kernel is None or steps == -1:
            return _accumulate(order_terms(t, steps, h), p.trunc, detect_growth=True, count=m,
                               where=where)
        if not abs(lam * h) < 1.0:
            raise NonConvergence(f"{_name(where)}: |lam ((1-q) t)**alpha| = {abs(lam * h)!r} "
                                 f">= 1, so the series diverges")
        series = lambda: _chain_sum(forcing, t, False, kernel.weights(t, h, steps), steps, p,
                                    where)
        # Far down the chain z is small, and the rule ends the orders before P.
        return _split_sum(order_terms(t, steps, h), kernel.orders, series, p, where)

    def rule(t: float) -> float:
        if not t >= a:
            raise DomainError(f"the solution needs t >= a, got t={t}, a={a}")
        steps = _start_steps(a, t, q)
        if m is not None and a > 0.0 and steps == -1:
            raise DomainError(f"with a > 0, Picard iterates live on the time scale "
                              f"a q**-j; t={t} is not on it (a={a})")
        with count_terms() as counter:
            if t == a:  # the head's terms past the first and the integrals vanish
                value = a0
            else:
                value = (a0 * _ml_sum(head, t, steps, p, head_terms, split)
                         if a0 != 0.0 else 0.0)
                # Picard(0) has no forcing term.
                if forcing is not None and m != 0:
                    # With lam = 0 every term after the first is 0.0 times an integral.
                    value += (forced(t, steps) if lam != 0.0
                              else left_frac_integral(forcing, a, alpha, t, p))
        diagnostics["evaluations"] += 1
        diagnostics["terms"] += counter.total
        return value

    if m is not None:
        diagnostics["iterations"] = m
    return IVPSolution(rule, "closed-form" if m is None else f"picard({m})", diagnostics)


def solve_ivp_closed(prob: IVProblem, p: QParams) -> IVPSolution:
    """Closed-form solution: y(t) = a0 E_{alpha,1}(lam, t - a) + forcing term.

    The forcing term integral_a^t (t - qs)_q^(alpha-1) E_{alpha,alpha}(lam,
    t - q**alpha s) f(s) nabla_q s is, by the q-power rule (t - s)_q^(mu)
    (t - q**mu s)_q^(nu) = (t - s)_q^(mu+nu), sum_k lam**k I_a^(alpha(k+1)) f(t).
    I_a^(alpha(k+1)) f(t) is h**(k+1) times the left series of unit weight
    (on the lattice or from an a off the grid of t), h = ((1-q) t)**alpha, so
    term k is z**k, z = lam h, times the series of weight h, and neither
    lam**k nor Gamma_q(alpha(k+1)) is formed.  From a = 0 or on the grid of
    a the terms past the first P are one series over _Kernel, whose cells
    the solution's points share, unless the stopping rule ends the terms
    first, and for P = 0 (at q <= 0.5 for alpha >= 0.5) the forcing is that
    one series; |z| >= 1 there raises NonConvergence.  From an a off the
    grid of t the terms are summed one by one, and terms that grow raise
    NonConvergence.  The head is a0 times _ml_sum's series at the lattice
    position of a below t, which the solution finds once per point, and no
    q_gamma is called: from a = 0 term k is z**k (q**(alpha k + 1); q)_inf /
    (q; q)_inf, |z| >= 1 raises NonConvergence, and the terms past the
    first P are one sum by Euler's expansion, with no infinite product per
    term (_euler_split, worked out once per solution; see _ml_sum); an
    alternating hump too steep to sum raises NonConvergence naming the
    cancellation.  On the time scale, t = a q**-j with j >= 1, it is the
    finite quotient z**k (q**(alpha k + 1); q)_(j-1) / (q; q)_(j-1), taken
    a factor of each at a time, so at j = 1 the head is a0 / (1 - z).
    t < a raises DomainError; y(a) = a0, with nothing summed.
    """
    return _series_solution(prob, None, p)


def solve_ivp_picard(prob: IVProblem, m: int, p: QParams) -> IVPSolution:
    """m-step successive approximation y_k = a0 + lam I^alpha y_{k-1} + I^alpha f.

    By the q-power rule and the semigroup law I^alpha I^(alpha k) =
    I^(alpha (k+1)), y_m is the closed form's series cut after term m:

        y_m(t) = a0 sum_{k<=m} lam**k (t - a)_q^(alpha k) / Gamma_q(alpha k + 1)
                 + sum_{k<m} lam**k I_a^(alpha(k+1)) f(t),

    each summed in full however its terms grow, so y_m exists where the closed
    form raises NonConvergence.  Diagnostics count the evaluated points and
    their terms.  m < 0, t < a and, with a > 0, a t off the time scale
    a q**-j raise DomainError; y(a) = a0, and y_0 = a0 even when forced.
    """
    if m < 0:
        raise DomainError(f"iteration count must be >= 0, got {m}")
    return _series_solution(prob, m, p)


def ivp_residual(
    prob: IVProblem, y: "IVPSolution | QFunction", t: float, p: QParams
) -> float:
    """Pointwise defect of y in the equation: Caputo term minus lam y(t) + f(t)."""
    if not t > prob.a:
        raise DomainError(f"residual point must satisfy t > a, got t={t}, a={prob.a}")
    forcing_value = prob.forcing(t) if prob.forcing is not None else 0.0
    return (
        left_caputo(y, prob.a, prob.alpha, t, p)
        - prob.lam * y(t)
        - forcing_value
    )

"""Truncation policy, term accounting and the basic nabla q-calculus.

Everything here lives on the geometric scale t, tq, tq**2, ... for a fixed
base 0 < q < 1.  The backward q-derivative is an exact difference quotient;
integrals are Jackson sums, i.e. truncated geometric series whose stopping
behaviour is governed by a :class:`Truncation` policy.  Every infinite sum
of the package stops in ``_accumulate``: once its terms fall geometrically it
adds their closed tail, and otherwise it stops on a run of small terms; a
sum over a chain whose operand's ratio has settled draws the rest of its
terms from its weights alone, with no further call of the operand.  Either
closure that extrapolates an operand, that rest or the closed tail, is first
spot-checked further down the chain, by ``_rest_holds``.  Every
infinite product is a q-Pochhammer symbol (c; q)_inf, taken by
``special._q_product``, which closes its tail where that tail is exact to
rounding, at a count set by c and q alone; the same loop, given a count,
forms the finite (c; q)_n.  Work whose length is known before
it starts (a cut sum, a finite product, an iterated derivative, a run of
shift steps) checks that length against ``max_terms`` once, in
``_check_budget``, before any of it is done; only an infinite sum runs into
the budget as it goes.  A power that may overflow goes through ``_power``,
which raises NumericOverflow naming its caller's parameters instead of a
bare OverflowError.  Every public entry point first checks its numeric
arguments against one table, ``_DOMAINS``, in ``_check_domain``.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import DomainError, NonConvergence, NumericOverflow

__all__ = [
    "QFunction",
    "Truncation",
    "QParams",
    "count_terms",
    "q_bracket",
    "nabla_q",
    "nabla_q_n",
    "q_integral",
    "q_integral_tail",
]

# A function evaluable at any non-negative real.  Operators sample it on
# geometric chains; right-sided operators additionally shift arguments off
# the plain q-grid, which is why a rule (not a sample table) is required.
QFunction = Callable[[float], float]


# The fixed parts of the stopping rule that Truncation describes.
_ABS_TOL = 1e-300
_SMALL_RUN = 3
# Share of rel_tol that the drift of a closed geometric tail may reach, and
# that each spot check of a lattice series' rest may cost it (see
# _rest_holds): at 0.01 the rounding of sigma, which grows along the rest,
# failed the checks of exact powers at q = 0.9.
_TAIL_SHARE = 0.1
# A rest is drawn only where it would run to at least _REST_MIN times the
# terms already taken (see _rest_holds).
_REST_MIN = 8


@dataclass(frozen=True)
class Truncation:
    """Stopping policy for every infinite sum or factor product.

    An infinite sum whose term ratios rho_n = term_n / term_{n-1} lie in
    (0, 1), or in (-1, 0), and settle returns
    ``S + term_n rho_n / (1 - rho_n)``, its partial sum plus the closed
    geometric tail, once for ``_SMALL_RUN`` (3) successive terms the drift
    ``|rho_n - rho_{n-1}| / (1 - rho_n)**2 * |term_n|`` is at most
    ``_TAIL_SHARE * rel_tol * |S + tail| + _ABS_TOL`` (0.1 and 1e-300).
    Any other infinite sum (ratios that change sign or never settle) stops
    once 3 successive terms satisfy
    ``|term| <= rel_tol * |partial_sum| + _ABS_TOL``.  An infinite sum over
    a chain (a Jackson sum or a lattice series, terms w_n v_n) also watches
    its operand's ratio sigma_n = v_n / v_{n-1}: once its relative drift has
    stayed within rel_tol for 3 successive terms, at the first term with
    r = |rho_n| < 1 the operand is sampled at a few points further down the
    chain (doubling the stretch seen, up to where the rest's terms are within
    ``_TAIL_SHARE * rel_tol * |S + tail| + _ABS_TOL``); if each sample is
    v_n sigma**k to within that share of the sum, the rest of the sum takes
    v_n sigma**k for its samples, calls the operand no more, and runs under
    the rule above at ``rel_tol (1 - r)``; its terms count as terms.  While
    the operand is watched, a closed geometric tail is checked by the same
    samples first, at any length of the rest, and a sample that contradicts
    it defers the closure.  Where a sample contradicts the rest, the
    operand is sampled at every term and still watched; where a sample
    fails to evaluate, where the rest would run to fewer than 8 n terms, or
    once sigma moves by more than rel_tol, it is watched no further and a
    closed tail goes unchecked.  A sum with a known number of terms is the
    math.fsum of them all.  Work whose terms are known from its arguments
    stops where its rest is provably below rounding, and reads no rel_tol:
    a product (c; q)_inf takes its factors up to the fewest n >= 0 with
    ``|c| q**n <= x_q = 2**-27 (1 - q) sqrt((1 + q) / q)`` and multiplies
    in its closed tail ``1 - c q**n / (1 - q)``, whose relative error,
    about ``(c q**n)**2 q / ((1 - q)**2 (1 + q))``, is then at most
    ``2**-54``; e_q(t) is the cut sum of its first K + 1 terms and their
    geometric rest, K set by ``z = (1 - q) t`` and q so that the rest is
    within ``2**-54`` of the value (see ``special.q_exp_e``).  Work of a
    length known up front (a sum with a known number of terms, every
    product, whose factors up to that stop are counted before the first,
    e_q's K + 2 terms) raises :class:`~qfrac.errors.NonConvergence` before
    it starts if that length exceeds ``max_terms``; an infinite sum raises it once it has taken
    ``max_terms`` terms without the stopping rule firing.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        _check_domain("Truncation", self.rel_tol, self.max_terms)


@dataclass(frozen=True)
class QParams:
    """The base q in (0, 1) plus the truncation policy shared by all operators."""

    q: float
    trunc: Truncation = field(default_factory=Truncation)

    def __post_init__(self) -> None:
        _check_domain("QParams", self.q)


# ---------------------------------------------------------------------------
# Term accounting.  Diagnostics only: sums add how many terms they consumed to
# the innermost open count_terms() block, which adds its total to the block
# around it when it closes; so a note costs one add however deeply blocks
# nest.  Uses a ContextVar so concurrent use (threads, asyncio tasks) stays
# isolated; purely observational, never affects values.

_INNERMOST: ContextVar["count_terms | None"] = ContextVar("qfrac_counter", default=None)


class count_terms:
    """Collect the number of series/product terms consumed inside the block.

    ``with count_terms() as c: ...`` then ``c.total``.  Terms of a nested
    block reach ``c.total`` when that block closes.
    """

    __slots__ = ("total", "_token")

    def __enter__(self) -> "count_terms":
        self.total = 0
        self._token = _INNERMOST.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _INNERMOST.reset(self._token)
        _note_terms(self.total)


def _note_terms(n: int) -> None:
    counter = _INNERMOST.get()
    if counter is not None:
        counter.total += n


# ---------------------------------------------------------------------------
# Series accumulation with the shared stopping rule.

# Net magnitude gain a growth run must reach before it counts as divergence.
# Convergent tails with kernels vanishing at the lower endpoint ramp up for
# several steps (the longer the closer q is to 1) before decaying; a bounded
# hump must not be mistaken for a divergent geometric tail.
_GROWTH_FACTOR = 1e3


def _grew(terms: Iterable[float]) -> bool:
    """Whether the sizes of terms rise as _accumulate's growth watch
    rejects: _SMALL_RUN or more successive rises, to more than
    _GROWTH_FACTOR times the size they rose from.  A cut sum whose terms
    alternate (the q-Mittag-Leffler head from 0, e_q at t < 0) reads it
    before it sums: past such a hump the sum cancels the digits of its
    largest terms."""
    run, base, last = 0, 0.0, 0.0
    for size in map(abs, terms):
        if 0.0 < last < size:
            if run == 0:
                base = last
            run += 1
            if run >= _SMALL_RUN and size > _GROWTH_FACTOR * base:
                return True
        else:
            run = 0
        last = size
    return False


def _accumulate(
    terms: Iterable[float],
    trunc: Truncation,
    *,
    detect_growth: bool,
    count: int | None = None,
    where: tuple,
    operand: tuple[QFunction, float, float, bool] | None = None,
) -> float:
    """Sum terms under the stopping rule, or their first ``count`` in full.

    A cut sum (``count`` given) is a length known before the work starts:
    past ``max_terms`` it raises through _check_budget before drawing a
    term, and otherwise it returns the math.fsum of its first count terms,
    whatever they are, with no ratio, small-run or growth test.  An infinite
    one (``count`` None) tracks the last ratio rho_n = term_n / term_{n-1}:
    while it and the one before both lie in (0, 1) or both in (-1, 0), the
    tail is taken as geometric, worth term_n rho_n / (1 - rho_n), and after
    ``_SMALL_RUN`` successive terms whose drift |rho_n - rho_{n-1}| |term_n|
    / (1 - rho_n)**2 (the error of that tail when the ratio moves as it just
    did) stays within ``_TAIL_SHARE * rel_tol * |S + tail| + abs_tol`` the
    sum returns S + tail; any other ratio (a ratio changing sign, a zero or
    growing term) restarts that run.  Otherwise it stops on ``_SMALL_RUN``
    small terms, and with ``detect_growth`` raises NonConvergence on a growth
    run; past ``max_terms`` terms it raises NonConvergence, the stopping rule
    not having fired.  Either kind raises NumericOverflow "term k overflowed"
    at a term k that is not finite, the terms up to it noted, and a cut sum
    of finite terms whose sum is past the range of a double "the sum
    overflowed"; where only math.fsum's partials pass it, the terms are
    summed scaled by a power of 2 and the sum scaled back.

    A sum over a chain (see _chain_sum) takes its weights w_n for terms and
    samples its ``operand`` (f, x, q, upward) itself, v_n = f(x_n) at each
    point of the chain, to sum w_n v_n; an infinite one also watches the
    operand's ratio sigma_n = v_n / v_{n-1} and closes on it.  Two closures
    extrapolate the operand past the sample v_N at hand: the rest
    v_N sum_{k>=1} w_{N+k} sigma**k drawn from the weights, and the term
    test's closed tail, which for geometric weights (a Jackson sum, a
    lattice series at order 1) is the same extrapolation.  Both go through
    one check first (_rest_holds): a few samples further down the chain
    must match v_N sigma**k.  While sigma's relative drift
    between samples stays within rel_tol, the operand is watched.  After
    ``_SMALL_RUN`` such drifts, at the first term with |rho_N| < 1, the sum
    checks the rest; if it holds, it draws the rest's terms from the same
    weights with v_N sigma**k for samples, and no operand call.  The
    term test above then runs on at rel_tol (1 - |rho_N|) (the closed tail of
    a ratio that still settles is off by more than its drift, the more so as
    rho nears 1, and the rest's terms call no operand); they count as terms,
    under ``max_terms``, and are also summed apart, so that the sum returns
    S + rest with one rounding at the scale of S.  A rest shorter than
    ``_REST_MIN`` times N is not drawn, and the watch ends there.  While the
    operand is watched and no rest is drawn, the term test's closure is
    checked at any rest length.  A check that fails defers the closure and
    does not forbid it: the term test's run starts over, no rest is drawn
    from then on, and the operand stays watched, so the sum may close past
    the operand's break, checked again from there.  A check that cannot
    sample (a sample fails to evaluate, or a power leaves the range of a
    double) leaves the closure unchecked: the tail closes, or no rest is
    drawn and the watch ends.  A power of s closes after 5 samples and its
    spot checks.  An operand whose ratio moves by more than rel_tol between
    samples is watched no further, and its closures go unchecked; one that
    settles no faster than the weights, such as a polynomial, costs the
    watch its first 3 terms.  The spot checks are samples, not terms.

    A failure's message opens with ``where[0].format(*where[1:])``, a
    template and its arguments (as _power takes them), formatted only when it
    is raised.
    """
    if operand is not None:
        f, x, q, upward = operand
    if count is not None:
        _check_budget(count, trunc, where)
        if operand is not None:
            points = itertools.accumulate(
                itertools.repeat(q), operator.truediv if upward else operator.mul, initial=x)
            terms = map(operator.mul, terms, map(f, points))
        terms = list(itertools.islice(terms, count))
        if not all(map(math.isfinite, terms)):
            n = next(n for n, term in enumerate(terms) if not math.isfinite(term))
            _note_terms(n + 1)
            raise NumericOverflow(f"{_name(where)}: term {n} overflowed")
        _note_terms(len(terms))
        try:
            return math.fsum(terms)
        except OverflowError:
            # Partials past the range of a double: the sum of the terms
            # scaled down by a power of 2 above their count, scaled back.
            shift = len(terms).bit_length()
            try:
                return math.ldexp(math.fsum(math.ldexp(term, -shift) for term in terms), shift)
            except OverflowError:
                raise NumericOverflow(f"{_name(where)}: the sum overflowed") from None
    n = 0
    total = 0.0
    max_terms, rel_tol, abs_tol, inf = trunc.max_terms, trunc.rel_tol, _ABS_TOL, math.inf
    tail_tol = _TAIL_SHARE * rel_tol
    small_run = tail_run = growth_run = 0
    prev_term = prev_ratio = growth_base = 0.0
    rest = None
    watched = operand is not None  # until a rest is drawn or the watch ends
    for n, term in enumerate(terms, 1):
        if operand is not None:  # term is the weight of the sample v_n
            if rest is None:
                # x steps in place: cheaper per term than next() on points.
                point, x = x, (x / q if upward else x * q)
                sample = f(point)
            else:
                sample *= sigma
            term *= sample
        if n > max_terms:
            _note_terms(n)
            raise NonConvergence(
                f"{_name(where)}: stopping rule did not fire within {max_terms} terms"
            )
        # abs() and math.isfinite() are calls; the tests below are not.
        mag = term if term >= 0.0 else -term
        if not mag < inf:
            _note_terms(n)
            raise NumericOverflow(f"{_name(where)}: term {n - 1} overflowed")
        total += term
        if prev_term:
            ratio = term / prev_term
            gap = 1.0 - ratio
            # Positive ratios are tested first, as they are the common case.
            # The drift test times (1 - ratio)**2, so that it divides by
            # nothing: (S + tail) (1 - ratio) = S (1 - ratio) + term ratio.
            if (0.0 < ratio < 1.0 and 0.0 < prev_ratio < 1.0
                    or -1.0 < ratio < 0.0 and -1.0 < prev_ratio < 0.0) and (
                abs(ratio - prev_ratio) * mag
                <= (tail_tol * abs(total * gap + term * ratio) + abs_tol * gap) * gap
            ):
                tail_run += 1
                # A tail that extrapolates a watched operand is checked first;
                # a sample that contradicts it defers the closure.
                if tail_run >= _SMALL_RUN:
                    if watched and _rest_holds(operand, point, sample, sample / prev_sample,
                                               n, term, ratio, total, rel_tol, max_terms,
                                               0) is False:
                        tail_run, operand_run = 0, -inf
                    else:
                        closed = term * ratio / gap
                        total += closed
                        break
            else:
                tail_run = 0
            prev_ratio = ratio
        if mag <= rel_tol * (total if total >= 0.0 else -total) + abs_tol:
            small_run += 1
            if small_run >= _SMALL_RUN:
                break
        else:
            small_run = 0
        if detect_growth:
            if 0.0 < abs(prev_term) < mag:
                if growth_run == 0:
                    growth_base = abs(prev_term)
                growth_run += 1
                if (
                    growth_run >= _SMALL_RUN
                    and mag > _GROWTH_FACTOR * growth_base
                ):
                    _note_terms(n)
                    raise NonConvergence(
                        f"{_name(where)}: terms grew for {growth_run} successive steps"
                    )
            else:
                growth_run = 0
        if rest is not None:
            rest += term
        elif watched:
            if not prev_term:
                prev_sigma, operand_run = 0.0, 0
            else:
                sigma = sample / prev_sample
                if prev_sigma:
                    # Squares of sigma's drift and of sigma: no abs or
                    # division on the common path.  A sigma past 1e154,
                    # whose square overflows, is not dropped here; no rest
                    # is drawn at it, as its term ratio is not below 1 or
                    # sigma**k overflows in the spot checks.
                    drift = sigma - prev_sigma
                    if drift * drift > rel_tol * rel_tol * (sigma * sigma):
                        watched = False
                    else:
                        operand_run += 1
                        if operand_run >= _SMALL_RUN and 0.0 < abs(ratio) < 1.0:
                            holds = _rest_holds(operand, point, sample, sigma, n, term, ratio,
                                                total, rel_tol, max_terms, _REST_MIN)
                            if holds:
                                watched, head, rest, closed = False, total, 0.0, 0.0
                                rel_tol *= 1.0 - abs(ratio)
                                tail_tol = _TAIL_SHARE * rel_tol
                                small_run = tail_run = 0
                            elif holds is None:
                                watched = False
                            else:  # still watched, for the term test's closure
                                operand_run = -inf
                prev_sigma = sigma
            prev_sample = sample
        prev_term = term
    else:
        _note_terms(n)
        return total if rest is None else head + rest
    _note_terms(n)
    # The rest, summed apart from the terms up to N; the last term and the
    # closed tail did not reach it.
    return total if rest is None else head + (rest + term + closed)


def _rest_holds(operand: tuple[QFunction, float, float, bool], x: float, v: float,
                sigma: float, n: int, term: float, ratio: float, total: float,
                rel_tol: float, max_terms: int, least: int) -> bool | None:
    """The spot checks of _accumulate before a closure extrapolates the
    operand past its n-th term, the sample v = v_n at x = x_n, as
    v_n sigma**k: the rest drawn from sigma, or the term test's closed tail.
    True if the operand matches v_n sigma**k at a few points further down
    the chain, False if a sample contradicts it, None if the closure goes
    unchecked.  They alone decide whether sigma has settled, as the watch
    before them only rules out a drift past rel_tol; and ratios alone cannot
    tell a power from an operand that is one only near the chain's start (a
    step, a clamp, a forcing of compact support).

    The rest's terms fall about as |term| r**k, r = |ratio| in (0, 1), and
    from the k-th on sum to |term| r**k / (1 - r).  Let scale be
    _TAIL_SHARE * rel_tol * |S + tail| + _ABS_TOL, tol the relative
    deviation scale (1 - r) / |term|, and last the first k with r**k <= tol
    (at most max_terms).  A rest with last below least * n is not checked
    (None): the rest from sigma takes least = _REST_MIN, as a shorter one
    would save fewer samples than its checks and the rest's tighter
    tolerance cost a cheap operand, and the term test's tail takes 0.
    Otherwise the operand is sampled at k = n, 3n, 7n, ... (each check
    doubling the stretch of the chain seen) below last, and at last (at
    last alone where it is below n); each sample must lie within tol r**-j
    of v_n sigma**k, j the check before it (0 for the first).  A deviation
    that grows or holds between two checks, such as a step's, then costs the
    rest at most scale per check, and one past last at most scale times its
    size.  A deviation confined between two checks goes unseen.  A sample
    that fails to evaluate leaves the closure unchecked (None): the sum
    samples that point only if it reaches it, and raises there as before.
    """
    r = abs(ratio)
    scale = _TAIL_SHARE * rel_tol * abs(total + term * ratio / (1.0 - ratio)) + _ABS_TOL
    f, _, q, upward = operand
    if upward:
        q = 1.0 / q
    # A sample, sigma**k or r**-k out of range leaves the rest unchecked alike.
    try:
        bound = tol = scale * (1.0 - r) / abs(term)
        last = min(max_terms, math.ceil(math.log(tol) / math.log(r))) if tol < 1.0 else 1
        if last < least * n:
            return None
        k = min(n, last)
        while True:
            expected = v * sigma**k
            if not abs(f(x * q**k) - expected) <= bound * abs(expected):
                return False
            if k == last:
                return True
            bound, k = tol * r**-k, 2 * k + n
            if k > last:
                k = last
    except Exception:
        return None


def _check_budget(n: int, trunc: Truncation, where: tuple) -> None:
    """Raise NonConvergence if a computation whose length n is known before
    it starts (a cut sum, a finite product, a count of factors or steps)
    would exceed ``max_terms``; called before any of that work is done.
    where names the computation, as in _accumulate."""
    if n > trunc.max_terms:
        raise NonConvergence(f"{_name(where)}: {n} terms exceed the budget of {trunc.max_terms}")


# The input contract: the numeric parameters of each public entry point, in
# its call order, and the kind of value each takes.  A kind is
# (lo, hi, top, whole, text): its values are those with lo <= value <= hi,
# an open end taken to the next double inside, so that NaN is in no kind,
# less those at or below top that are integers (whole) or that are not (not
# whole); text names it in a message.
_MAX = 1.7976931348623157e308  # the largest double
_FINITE = (-_MAX, _MAX, -math.inf, False, "finite")
_POSITIVE = (5e-324, _MAX, -math.inf, False, "finite and > 0")
_NON_NEGATIVE = (0.0, _MAX, -math.inf, False, "finite and >= 0")
_UNIT = (5e-324, 1.0 - 2.0**-53, -math.inf, False, "in (0, 1)")
_DISC = (-1.0 + 2.0**-53, 1.0 - 2.0**-53, -math.inf, False, "in (-1, 1)")
_IVP_ORDER = (5e-324, 1.0, -math.inf, False, "in (0, 1]")
_COUNT = (0.0, _MAX, _MAX, False, "an integer >= 0")
_BUDGET = (1.0, _MAX, _MAX, False, "an integer >= 1")
_ORDER = (-_MAX, _MAX, 0.0, True, "finite and not 0, -1, -2, ...")
_END = (5e-324, math.inf, -math.inf, False, "in (0, inf]")
_ANY = (-math.inf, math.inf, -math.inf, False, "")  # pads a row to four parameters
_DOMAINS = {
    "Truncation": (("rel_tol", "max_terms"), _UNIT, _BUDGET, _ANY, _ANY),
    "QParams": (("q",), _UNIT, _ANY, _ANY, _ANY),
    "q_bracket": (("r",), _FINITE, _ANY, _ANY, _ANY),
    "nabla_q": (("t",), _POSITIVE, _ANY, _ANY, _ANY),
    "nabla_q_n": (("t", "n"), _FINITE, _COUNT, _ANY, _ANY),
    "q_integral": (("a", "t"), _NON_NEGATIVE, _NON_NEGATIVE, _ANY, _ANY),
    "q_integral_tail": (("t", "b"), _POSITIVE, _END, _ANY, _ANY),
    "q_pochhammer": (("n",), _COUNT, _ANY, _ANY, _ANY),
    "q_factorial_power": (("t", "s", "alpha"), _FINITE, _FINITE, _FINITE, _ANY),
    "q_gamma": (("alpha",), _FINITE, _ANY, _ANY, _ANY),
    "q_exp_e": (("t",), _FINITE, _ANY, _ANY, _ANY),
    "q_exp_E": (("t",), _DISC, _ANY, _ANY, _ANY),
    "r_coef": (("alpha", "q"), _FINITE, _UNIT, _ANY, _ANY),
    "left_frac_integral": (("a", "order", "t"), _NON_NEGATIVE, _ORDER, _NON_NEGATIVE, _ANY),
    "right_frac_integral": (("b", "order", "t"), _END, _ORDER, _POSITIVE, _ANY),
    "left_riemann_deriv": (("a", "order", "t"), _NON_NEGATIVE, _POSITIVE, _POSITIVE, _ANY),
    "right_riemann_deriv": (("b", "order", "t"), _END, _POSITIVE, _POSITIVE, _ANY),
    "left_caputo": (("a", "order", "t"), _NON_NEGATIVE, _POSITIVE, _NON_NEGATIVE, _ANY),
    "right_caputo": (("b", "order", "t"), _END, _POSITIVE, _POSITIVE, _ANY),
    "MLParams": (("alpha", "beta", "lam", "z0"), _POSITIVE, _FINITE, _FINITE, _NON_NEGATIVE),
    "q_mittag_leffler": (("z",), _NON_NEGATIVE, _ANY, _ANY, _ANY),
    "IVProblem": (("alpha", "lam", "a", "a0"), _IVP_ORDER, _FINITE, _NON_NEGATIVE, _FINITE),
    "IVPSolution": (("t",), _FINITE, _ANY, _ANY, _ANY),
    "solve_ivp_picard": (("m",), _COUNT, _ANY, _ANY, _ANY),
    "ivp_residual": (("t",), _FINITE, _ANY, _ANY, _ANY),
}


def _check_domain(fn: str, x: float, y: float = 0.0, z: float = 0.0, w: float = 0.0) -> None:
    """Raise DomainError, naming fn, the parameter and its value, at the first
    of fn's numeric arguments x, y, z, w (its row of _DOMAINS, in order) that
    is not of its kind; every public entry point calls it first, before any
    sample, factor or term.  Each value is compared with its kind's bounds
    and top, with no call; only a failure takes the loop that finds the
    parameter to name."""
    _, (a, b, i, u, _), (c, d, j, v, _), (e, f, k, s, _), (g, h, m, r, _) = _DOMAINS[fn]
    if (a <= x <= b and not (x <= i and (x % 1 == 0) == u)
            and c <= y <= d and not (y <= j and (y % 1 == 0) == v)
            and e <= z <= f and not (z <= k and (z % 1 == 0) == s)
            and g <= w <= h and not (w <= m and (w % 1 == 0) == r)):
        return
    names, *kinds = _DOMAINS[fn]
    for name, (lo, hi, top, whole, text), value in zip(names, kinds, (x, y, z, w)):
        if not lo <= value <= hi or value <= top and (value % 1 == 0) == whole:
            raise DomainError(f"{fn}: {name} must be {text}, got {value!r}")


def _name(where: tuple) -> str:
    """The message prefix that a (template, *args) tuple stands for."""
    return where[0].format(*where[1:])


def _grid_exponent(ratio: float, q: float) -> int | None:
    """Integer d with ratio == q**d up to snap tolerance, else None.

    Floating inputs that are grid points in intent land within ~1e-12 of an
    integer exponent; deliberate fractional offsets stay far away, so a 1e-9
    radius separates the two regimes safely.
    """
    if not (ratio > 0.0) or not math.isfinite(ratio):
        return None
    d = math.log(ratio) / math.log(q)
    r = round(d)
    if abs(d - r) <= 1e-9:
        return int(r)
    return None


def _power(base: float, exponent: float, where: str, *args: object) -> float:
    """base**exponent; an overflow raises NumericOverflow, its message naming
    the arguments through where.format(*args)."""
    try:
        return base**exponent
    except OverflowError:
        raise NumericOverflow(
            f"{where.format(*args)}: {base!r}**{exponent!r} overflowed"
        ) from None


def q_bracket(r: float, p: QParams) -> float:
    """The q-number [r]_q = (1 - q**r) / (1 - q), for a finite r."""
    _check_domain("q_bracket", r)
    return (1.0 - _power(p.q, r, "[r]_q at r={!r}, q={!r}", r, p.q)) / (1.0 - p.q)


def nabla_q(f: QFunction, t: float, p: QParams) -> float:
    """Backward q-derivative (f(t) - f(qt)) / ((1 - q) t); exact, finite t > 0."""
    _check_domain("nabla_q", t)
    return (f(t) - f(p.q * t)) / ((1.0 - p.q) * t)


def nabla_q_n(f: QFunction, t: float, n: int, p: QParams) -> float:
    """n-fold backward q-derivative, nabla_q applied n times.

    For n >= 2, f is sampled once at x_k = q * x_{k-1} (x_0 = t, k <= n) and
    n rounds of differences D(x_k) = (D(x_k) - D(x_{k+1})) / ((1 - q) x_k)
    give the value bit for bit as the literal recursion would, from n + 1
    samples instead of 2**n.  An order above the term budget raises
    NonConvergence, and for n >= 1 a t <= 0 raises DomainError.
    """
    _check_domain("nabla_q_n", t, n)
    if n == 0:
        return f(t)
    if n == 1:
        return nabla_q(f, t, p)
    q, n = p.q, int(n)
    where = ("nabla_q^n with n={!r} at t={!r}, q={!r}", n, t, q)
    _check_budget(n, p.trunc, where)
    points = [t]
    for _ in range(n):
        points.append(q * points[-1])
    if not points[n - 1] > 0.0:
        # The first point the recursion would have rejected.
        bad = next(x for x in points if not x > 0.0)
        raise DomainError(f"{_name(where)}: nabla_q is undefined at t = {bad!r}; requires t > 0")
    row = [f(x) for x in points]
    for m in range(n, 0, -1):
        row = [(row[k] - row[k + 1]) / ((1.0 - q) * points[k]) for k in range(m)]
    return row[0]


def _chain_sum(
    f: QFunction, x: float, upward: bool, weights: Iterable[float],
    steps: int | None, p: QParams, where: tuple,
) -> float:
    """sum_k w_k f(x_k) over k < steps (all k >= 0 if steps is None) with w_k
    the weights, which do not run out, x_0 = x and x_{k+1} = x_k / q
    (upward) or x_k * q, in _accumulate, which watches an infinite sum's
    operand whatever its weights, and an infinite upward sum for growth.
    where names a failure, as in _accumulate, and a bare OverflowError of
    the operand becomes NumericOverflow through it, so the innermost sum
    names a nested operand's overflow."""
    try:
        return _accumulate(weights, p.trunc, detect_growth=upward, count=steps, where=where,
                           operand=(f, x, p.q, upward))
    except NumericOverflow:
        raise
    except OverflowError as exc:
        detail = exc.args[-1] if exc.args else type(exc).__name__
        raise NumericOverflow(f"{_name(where)}: the operand overflowed ({detail})") from None


def _jackson_sum(f: QFunction, x: float, p: QParams, steps: int | None = None) -> float:
    """Jackson sum (1 - q) x sum_i q**i f(x q**i) over i >= 0, the range [0, x],
    or over i < steps, the range [x q**steps, x]."""
    if x == 0.0:
        return 0.0
    q = p.q
    weights = itertools.accumulate(itertools.repeat(q), operator.mul, initial=(1.0 - q) * x)
    return _chain_sum(f, x, False, weights, steps, p, ("q-integral at x={!r}, q={!r}", x, q))


def q_integral(f: QFunction, a: float, t: float, p: QParams) -> float:
    """Signed nabla q-integral of f from a to t.

    When a / t = q**d for an integer d (a, t > 0) the integral is the finite
    Jackson sum over the |d| lattice points of the larger endpoint, negated
    when a > t.  Otherwise it is the difference of two Jackson sums anchored at
    zero, so both endpoints may be arbitrary finite non-negative reals.
    """
    _check_domain("q_integral", a, t)
    if a == t:
        return 0.0
    d = _grid_exponent(a / t, p.q) if a > 0.0 and t > 0.0 else None
    if d is None:
        return _jackson_sum(f, t, p) - _jackson_sum(f, a, p)
    if d >= 0:
        return _jackson_sum(f, t, p, d)
    return -_jackson_sum(f, a, p, -d)


def q_integral_tail(f: QFunction, t: float, b: float, p: QParams) -> float:
    """Nabla q-integral of f from t upward, to infinity or to b = t q**-m.

    The infinite tail is (1 - q) t sum_{i>=1} q**-i f(t q**-i); divergence is
    detected at runtime by watching the terms grow.  A finite b must sit on
    the q-grid through t (b = t q**-m with m >= 0), in which case the two-tail
    difference telescopes to an exact finite sum over the points in (t, b].
    """
    _check_domain("q_integral_tail", t, b)
    q = p.q
    where = ("tail integral from t={!r} to b={!r}, q={!r}", t, b, q)
    steps = _upper_steps(t, b, q)
    weights = itertools.accumulate(
        itertools.repeat(q), operator.truediv, initial=(1.0 - q) * t / q
    )
    return _chain_sum(f, t / q, True, weights, steps, p, where)


def _start_steps(a: float, t: float, q: float) -> int | None:
    """The number of lattice steps down from t to a: m for a = t q**m
    (m >= 0), None (infinitely many) for a = 0, and -1 where no count of
    steps down from t reaches a (t <= 0, or a off the grid of t or above t)."""
    if not t > 0.0:
        return -1
    if a == 0.0:
        return None
    m = _grid_exponent(a / t, q)
    return -1 if m is None or m < 0 else m


def _upper_steps(t: float, b: float, q: float) -> int | None:
    """m with b = t q**-m (m >= 0), that is t = b q**m, or None for
    b = +infinity; DomainError else."""
    if b == math.inf:
        return None
    m = _start_steps(t, b, q)  # None only for t = 0, below every finite b
    if m is None or m < 0:
        raise DomainError(
            "finite upper limit must satisfy b = t * q**-m, m >= 0; "
            f"got q={q!r}, t={t!r}, b={b!r}"
        )
    return m

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
``special._q_product``, which closes its tail the same way; the same loop,
given a count, forms the finite (c; q)_n.  Work whose length is known before
it starts (a cut sum, a finite product, an iterated derivative, a run of
shift steps) checks that length against ``max_terms`` once, in
``_check_budget``, before any of it is done; only an infinite sum runs into
the budget as it goes.  A power that may overflow goes through ``_power``,
which raises NumericOverflow naming its caller's parameters instead of a
bare OverflowError.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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
    closed tail goes unchecked.  A sum with a known
    number of terms is summed in full.  A product (c; q)_inf stops once 3
    successive ``|c q**j|`` are at most rel_tol and multiplies in its closed
    tail ``1 - c q**(j+1) / (1 - q)``, within ``(rel_tol / (1 - q))**2``.
    Work of a length known up front (a sum with a known number of terms,
    every product, whose factors up to that stop are counted before the
    first) raises :class:`~qfrac.errors.NonConvergence` before it starts if
    that length exceeds ``max_terms``; an infinite sum raises it once it has
    taken ``max_terms`` terms without the stopping rule firing.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be at least 1, got {self.max_terms}")


@dataclass(frozen=True)
class QParams:
    """The base q in (0, 1) plus the truncation policy shared by all operators."""

    q: float
    trunc: Truncation = field(default_factory=Truncation)

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly inside (0, 1), got {self.q}")


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


def _accumulate(
    terms: Iterable[float],
    trunc: Truncation,
    *,
    detect_growth: bool,
    count: int | None = None,
    where: tuple,
    grew: tuple | None = None,
    chain: _Chain | None = None,
) -> float:
    """Sum terms under the stopping rule, or their first ``count`` in full.

    A cut sum (``count`` given) is a length known before the work starts:
    past ``max_terms`` it raises through _check_budget before drawing a
    term, and otherwise it adds its first count terms in order whatever they
    are, with no ratio, small-run or growth test.  An infinite one (``count``
    None) tracks the last ratio rho_n = term_n / term_{n-1}: while it and the
    one before both lie in (0, 1) or both in (-1, 0), the tail is taken as
    geometric, worth term_n rho_n / (1 - rho_n), and after ``_SMALL_RUN``
    successive terms whose drift |rho_n - rho_{n-1}| |term_n| / (1 - rho_n)**2
    (the error of that tail when the ratio moves as it just did) stays within
    ``_TAIL_SHARE * rel_tol * |S + tail| + abs_tol`` the sum returns
    S + tail; any other ratio (a ratio changing sign, a zero or growing
    term) restarts that run.  Otherwise it stops on ``_SMALL_RUN`` small
    terms, and with ``detect_growth`` raises NonConvergence on a growth run;
    past ``max_terms`` terms it raises NonConvergence, the stopping rule not
    having fired.  Both kinds raise NonConvergence at a non-finite term.

    A sum over a chain (a Jackson sum, a lattice series, the forcing kernel)
    also closes on its operand.  Its terms w_n v_n come from _walk, which puts
    each sample v_n in ``chain`` while the sum watches the operand's ratio
    sigma_n = v_n / v_{n-1}.  Two closures extrapolate the operand past the
    sample v_N at hand: the rest v_N sum_{k>=1} w_{N+k} sigma**k drawn from
    the weights, and the term test's closed tail, which for geometric weights
    (a Jackson sum, a lattice series at order 1) is the same extrapolation.
    Both go through one check first (_rest_holds): a few samples further
    down the chain must match v_N sigma**k.  While sigma's relative drift
    between samples stays within rel_tol, the operand is watched.  After
    ``_SMALL_RUN`` such drifts, at the first term with |rho_N| < 1, the sum
    checks the rest; if it holds, the walk draws the rest's terms from the
    same weights with v_N sigma**k for samples, and no operand call.  The
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
    is raised; a growth run's is ``grew``'s in full where it is given, for
    a caller that knows what the growth means.
    """
    n = 0
    total = 0.0
    if count is not None:
        _check_budget(count, trunc, where)
        for n, term in enumerate(itertools.islice(terms, count), 1):
            if not math.isfinite(term):
                _note_terms(n)
                raise NonConvergence(f"{_name(where)}: non-finite term at index {n - 1}")
            total += term
        _note_terms(n)
        return total
    max_terms, rel_tol, abs_tol, inf = trunc.max_terms, trunc.rel_tol, _ABS_TOL, math.inf
    tail_tol = _TAIL_SHARE * rel_tol
    small_run = tail_run = growth_run = 0
    prev_term = prev_ratio = growth_base = 0.0
    rest = None
    for n, term in enumerate(terms, 1):
        if n > max_terms:
            _note_terms(n)
            raise NonConvergence(
                f"{_name(where)}: stopping rule did not fire within {max_terms} terms"
            )
        # abs() and math.isfinite() are calls; the tests below are not.
        mag = term if term >= 0.0 else -term
        if not mag < inf:
            _note_terms(n)
            raise NonConvergence(f"{_name(where)}: non-finite term at index {n - 1}")
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
                    if rest is None and chain is not None and _rest_holds(
                            chain, chain.sample / prev_sample, n, term, ratio, total, rel_tol,
                            max_terms, 0) is False:
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
                        _name(grew) if grew else
                        f"{_name(where)}: terms grew for {growth_run} successive steps"
                    )
            else:
                growth_run = 0
        if chain is None:  # unweighted, or its operand did not settle
            pass
        elif rest is not None:
            rest += term
        else:
            sample = chain.sample
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
                        chain.sigma, chain = 0.0, None
                    else:
                        operand_run += 1
                        if operand_run >= _SMALL_RUN and 0.0 < abs(ratio) < 1.0:
                            holds = _rest_holds(chain, sigma, n, term, ratio, total, rel_tol,
                                                max_terms, _REST_MIN)
                            if holds:
                                chain.sigma, head, rest, closed = sigma, total, 0.0, 0.0
                                rel_tol *= 1.0 - abs(ratio)
                                tail_tol = _TAIL_SHARE * rel_tol
                                small_run = tail_run = 0
                            elif holds is None:
                                chain.sigma, chain = 0.0, None
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


def _rest_holds(chain: _Chain, sigma: float, n: int, term: float, ratio: float,
                total: float, rel_tol: float, max_terms: int, least: int) -> bool | None:
    """The spot checks of _accumulate before a closure extrapolates the
    operand past its n-th term as v_n sigma**k: the rest drawn from sigma, or
    the term test's closed tail.  True if the operand matches v_n sigma**k
    at a few points further down the chain, False if a sample contradicts
    it, None if the closure goes unchecked.  They alone decide whether sigma
    has settled, as the watch before them only rules out a drift past
    rel_tol; and ratios alone cannot tell a power from an operand that is one
    only near the chain's start (a step, a clamp, a forcing of compact
    support).

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
    that fails to evaluate leaves the closure unchecked (None): the walk
    that follows samples that point only if the sum reaches it, and raises
    there as before.
    """
    r = abs(ratio)
    scale = _TAIL_SHARE * rel_tol * abs(total + term * ratio / (1.0 - ratio)) + _ABS_TOL
    f, q, x, v = chain.f, chain.q, chain.point, chain.sample
    if chain.upward:
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
    """The q-number [r]_q = (1 - q**r) / (1 - q)."""
    return (1.0 - _power(p.q, r, "[r]_q at r={!r}, q={!r}", r, p.q)) / (1.0 - p.q)


def nabla_q(f: QFunction, t: float, p: QParams) -> float:
    """Backward q-derivative (f(t) - f(qt)) / ((1 - q) t); exact, finite t > 0."""
    if not t > 0.0:
        raise DomainError(f"nabla_q at t={t!r}, q={p.q!r}: undefined, requires t > 0")
    if t == math.inf:
        raise DomainError(f"nabla_q at t={t!r}, q={p.q!r}: undefined, requires a finite t")
    return (f(t) - f(p.q * t)) / ((1.0 - p.q) * t)


def nabla_q_n(f: QFunction, t: float, n: int, p: QParams) -> float:
    """n-fold backward q-derivative, nabla_q applied n times.

    For n >= 2, f is sampled once at x_k = q * x_{k-1} (x_0 = t, k <= n) and
    n rounds of differences D(x_k) = (D(x_k) - D(x_{k+1})) / ((1 - q) x_k)
    give the value bit for bit as the literal recursion would, from n + 1
    samples instead of 2**n.  An order above the term budget raises
    NonConvergence, and for n >= 1 a t that is not a finite number > 0
    raises DomainError.
    """
    if n < 0:
        raise DomainError(f"nabla_q^n with n={n!r} at t={t!r}, q={p.q!r}: "
                          "derivative order must be >= 0")
    if n == 0:
        return f(t)
    if n == 1:
        return nabla_q(f, t, p)
    q = p.q
    where = ("nabla_q^n with n={!r} at t={!r}, q={!r}", n, t, q)
    if t == math.inf:
        raise DomainError(f"{_name(where)}: nabla_q is undefined there; requires a finite t")
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
    """sum_k w_k f(x_k) over k < steps (all k >= 0 if steps is None) with w_k the
    weights, x_0 = x and x_{k+1} = x_k / q (upward) or x_k * q, by _walk, the one
    loop that walks a chain.  An infinite sum watches its operand, whatever
    its weights, and spot-checks it before either closure that extrapolates
    it (see _accumulate).  An infinite upward sum is watched for growth;
    where names a failure, as in _accumulate, and a bare OverflowError of the
    operand becomes NumericOverflow through it, so the innermost sum names a
    nested operand's overflow."""
    q = p.q
    chain = _Chain(f, q, upward) if steps is None else None
    try:
        return _accumulate(_walk(f, x, q, upward, weights, chain), p.trunc,
                           detect_growth=upward, count=steps, where=where, chain=chain)
    except NumericOverflow:
        raise
    except OverflowError as exc:
        detail = exc.args[-1] if exc.args else type(exc).__name__
        raise NumericOverflow(f"{_name(where)}: the operand overflowed ({detail})") from None


class _Chain:
    """The operand of an infinite sum over a chain, which _walk samples and
    _accumulate watches.

    While ``sigma`` is None, _walk puts each point x_N and its sample
    v_N = f(x_N) in ``point`` and ``sample``, and reads ``sigma`` after each
    term.  _accumulate sets it once: to 0.0 when it stops watching the
    operand, and the walk goes on sampling; or to the operand's settled ratio,
    and the walk takes v_N sigma**k for its samples from then on.  The spot
    checks (_rest_holds) sample f off the walk, from ``point`` by powers of q.
    """

    __slots__ = ("f", "q", "upward", "point", "sample", "sigma")

    def __init__(self, f: QFunction, q: float, upward: bool) -> None:
        self.f, self.q, self.upward = f, q, upward
        self.point = self.sample = 0.0
        self.sigma: float | None = None


def _walk(f: QFunction, point: float, q: float, upward: bool, weights: Iterable[float],
          chain: _Chain | None) -> Iterator[float]:
    """The terms w_k f(x_k) of _chain_sum, for weights that do not run out,
    under the protocol of _Chain where a chain is given.  The state comes in
    as arguments, as a closure over it makes each term slower."""
    weights = iter(weights)
    if chain is not None:
        for w in weights:
            chain.point = point
            chain.sample = sample = f(point)
            yield w * sample
            point = point / q if upward else point * q
            if chain.sigma is not None:
                break
        sigma = chain.sigma
        if sigma:
            for w in weights:
                sample *= sigma
                yield w * sample
    for w in weights:
        yield w * f(point)
        point = point / q if upward else point * q


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
    zero, so both endpoints may be arbitrary non-negative reals.
    """
    if a < 0.0 or t < 0.0:
        raise DomainError(f"q-integral from a={a!r} to t={t!r}, q={p.q!r}: "
                          "integration endpoints must be >= 0")
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
    q = p.q
    where = ("tail integral from t={!r} to b={!r}, q={!r}", t, b, q)
    if not t > 0.0:
        raise DomainError(f"{_name(where)}: needs t > 0")
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

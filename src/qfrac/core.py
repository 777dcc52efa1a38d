"""Truncation policy, term accounting and the basic nabla q-calculus.

Everything here lives on the geometric scale t, tq, tq**2, ... for a fixed
base 0 < q < 1.  The backward q-derivative is an exact difference quotient;
integrals are Jackson sums, i.e. truncated geometric series whose stopping
behaviour is governed by a :class:`Truncation` policy.
"""

from __future__ import annotations

import itertools
import math
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


@dataclass(frozen=True)
class Truncation:
    """Stopping policy for every infinite sum or factor product.

    An infinite sum stops once ``consecutive_small`` successive terms satisfy
    ``|term| <= rel_tol * |partial_sum| + abs_tol``; a sum with a known number
    of terms is summed in full; products use the analogous test on
    ``|factor - 1|``.  Exhausting ``max_terms`` raises
    :class:`~qfrac.errors.NonConvergence`.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_terms: int = 10_000
    consecutive_small: int = 3

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise DomainError(f"abs_tol must be non-negative, got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be at least 1, got {self.max_terms}")
        if self.consecutive_small < 1:
            raise DomainError(
                f"consecutive_small must be at least 1, got {self.consecutive_small}"
            )


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
    detect_growth: bool = False,
    finite: bool = False,
    scale: float = 1.0,
    label: str = "series",
) -> float:
    """Sum terms under the stopping rule.

    A finite sum (``finite=True``: terms known to end) is summed in full; only
    an infinite one stops on ``consecutive_small`` small terms.  Both raise
    NonConvergence past ``max_terms`` terms or at a non-finite term.  A caller
    that multiplies the sum by ``scale > 0`` afterwards passes it, so that
    ``abs_tol`` bounds the terms it stands for.
    """
    max_terms, rel_tol = trunc.max_terms, trunc.rel_tol
    abs_tol = trunc.abs_tol / scale if scale else math.inf
    # A small run never reaches max_terms + 1 before the budget check fires.
    small_limit = max_terms + 1 if finite else trunc.consecutive_small
    total = 0.0
    small_run = 0
    growth_run = 0
    growth_base = math.inf
    prev_mag = math.inf
    count = 0
    for term in terms:
        count += 1
        if count > max_terms:
            _note_terms(count)
            raise NonConvergence(
                f"{label}: stopping rule did not fire within {max_terms} terms"
            )
        if not math.isfinite(term):
            _note_terms(count)
            raise NonConvergence(f"{label}: non-finite term at index {count - 1}")
        total += term
        mag = abs(term)
        if mag <= rel_tol * abs(total) + abs_tol:
            small_run += 1
            if small_run >= small_limit:
                _note_terms(count)
                return total
        else:
            small_run = 0
        if detect_growth:
            if math.isfinite(prev_mag) and 0.0 < prev_mag < mag:
                if growth_run == 0:
                    growth_base = prev_mag
                growth_run += 1
                if (
                    growth_run >= trunc.consecutive_small
                    and mag > _GROWTH_FACTOR * growth_base
                ):
                    _note_terms(count)
                    raise NonConvergence(
                        f"{label}: terms grew for {growth_run} successive steps"
                    )
            else:
                growth_run = 0
            prev_mag = mag
    _note_terms(count)
    return total


def _grid_exponent(ratio: float, q: float, tol: float = 1e-9) -> int | None:
    """Integer d with ratio == q**d up to snap tolerance, else None.

    Floating inputs that are grid points in intent land within ~1e-12 of an
    integer exponent; deliberate fractional offsets stay far away, so a 1e-9
    radius separates the two regimes safely.
    """
    if not (ratio > 0.0) or not math.isfinite(ratio):
        return None
    d = math.log(ratio) / math.log(q)
    r = round(d)
    if abs(d - r) <= tol:
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
    return (1.0 - p.q**r) / (1.0 - p.q)


def nabla_q(f: QFunction, t: float, p: QParams) -> float:
    """Backward q-derivative (f(t) - f(qt)) / ((1 - q) t); exact, t > 0."""
    if not t > 0.0:
        raise DomainError(f"nabla_q is undefined at t = {t}; requires t > 0")
    return (f(t) - f(p.q * t)) / ((1.0 - p.q) * t)


def nabla_q_n(f: QFunction, t: float, n: int, p: QParams) -> float:
    """n-fold backward q-derivative by literal repeated application."""
    if n < 0:
        raise DomainError(f"derivative order must be >= 0, got {n}")
    if n == 0:
        return f(t)
    if n == 1:
        return nabla_q(f, t, p)
    return nabla_q(lambda x: nabla_q_n(f, x, n - 1, p), t, p)


def _jackson_sum(f: QFunction, x: float, p: QParams, steps: int | None = None) -> float:
    """Jackson sum (1 - q) x sum_i q**i f(x q**i) over i >= 0, the range [0, x],
    or over i < steps, the range [x q**steps, x]."""
    if x == 0.0:
        return 0.0
    q = p.q

    def terms() -> Iterator[float]:
        weight = (1.0 - q) * x
        s = x
        for _ in itertools.count() if steps is None else range(steps):
            yield weight * f(s)
            weight *= q
            s *= q

    return _accumulate(terms(), p.trunc, finite=steps is not None, label="q-integral")


def q_integral(f: QFunction, a: float, t: float, p: QParams) -> float:
    """Signed nabla q-integral of f from a to t.

    When a / t = q**d for an integer d (a, t > 0) the integral is the finite
    Jackson sum over the |d| lattice points of the larger endpoint, negated
    when a > t.  Otherwise it is the difference of two Jackson sums anchored at
    zero, so both endpoints may be arbitrary non-negative reals.
    """
    if a < 0.0 or t < 0.0:
        raise DomainError(f"integration endpoints must be >= 0, got a={a}, t={t}")
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
    if not t > 0.0:
        raise DomainError(f"tail integrals require t > 0, got t={t}")
    steps = _upper_steps(t, b, p.q)
    q = p.q

    def terms() -> Iterator[float]:
        weight = (1.0 - q) * t
        s = t
        for _ in itertools.count() if steps is None else range(steps):
            weight /= q
            s /= q
            yield weight * f(s)

    finite = steps is not None
    return _accumulate(
        terms(), p.trunc, detect_growth=not finite, finite=finite, label="tail integral"
    )


def _upper_steps(t: float, b: float, q: float) -> int | None:
    """m with b = t q**-m (m >= 0), or None for b = +infinity; DomainError else."""
    if b == math.inf:
        return None
    m = _grid_exponent(b / t, q)
    if m is None or m > 0:
        raise DomainError(
            f"finite upper limit must satisfy b = t * q**-m, m >= 0; got t={t}, b={b}"
        )
    return -m

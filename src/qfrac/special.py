"""q-special functions: factorial powers, q-gamma, q-Pochhammer, q-exponentials.

The central primitive is the q-factorial power (t - s)_q^alpha: a finite
product for integer alpha >= 0, otherwise the ratio

    t**alpha * (s/t; q)_inf / ((s/t) q**alpha; q)_inf.

q_gamma and E_q are quotients of the same products (c; q)_inf.  Every one of
them, and every finite product, (c; q)_n for q_pochhammer and the integer
factorial power on the grid and prod (t - q**i s) for it off the grid, comes
from one loop, ``_q_product``, which closes an infinite product's tail and
checks its number of factors against the budget first.  Quotients that would
overflow or underflow apart (the off-grid ratio's prefix here, the
q-Mittag-Leffler terms on the time scale in ivp) take their factors in pairs
instead.  When
s/t coincides with an integer power of q the ratio is snapped onto the grid so
that vanishing (s/t = q**-j) and poles surface exactly instead of as rounding
noise.  Aligned products are tails (q**x; q)_inf, memoised per (q, x,
rel_tol, max_terms) in a bounded cache.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import Iterator

from .core import (
    _SMALL_RUN, QParams, _accumulate, _check_budget, _grid_exponent, _name, _note_terms, _power,
    count_terms,
)
from .errors import DomainError, NumericOverflow, PoleError

__all__ = [
    "q_pochhammer",
    "q_factorial_power",
    "q_gamma",
    "q_exp_e",
    "q_exp_E",
]


def _is_integer_valued(x: float) -> bool:
    return math.isfinite(x) and x == round(x)


def q_pochhammer(n: int, p: QParams) -> float:
    """(q)_n = prod_{j=1..n} (1 - q**j), with (q)_0 = 1; an n above the
    truncation's max_terms raises NonConvergence before any factor is taken."""
    where = ("(q; q)_n at n={!r}, q={!r}", n, p.q)
    if n < 0 or not _is_integer_valued(n):
        raise DomainError(f"{_name(where)}: q_pochhammer needs an integer n >= 0")
    return _q_product(p.q, p, where, int(n))


def _q_product(c: float, p: QParams, where: tuple, count: int | None = None,
               lead: float = 1.0) -> float:
    """(c; q)_count = prod_{j<count} (1 - c q**j), or for count None
    (c; q)_inf for finite c, uncached.

    A finite product takes its count factors lead - c q**j (so lead = t and
    c = s give prod (t - q**j s), with no power of t apart that could
    overflow or underflow against them) and notes no terms.  An
    infinite one takes the factors up to and including the _SMALL_RUN (3)
    successive |c q**j| at most rel_tol (they fall monotonically, so their
    number is known up front), notes them, and multiplies in the closed tail
    prod_{i>j} (1 - c q**i) = 1 - c q**(j+1) / (1 - q), whose error is at
    most (rel_tol / (1 - q))**2.  Either count is checked against the
    budget (core._check_budget, where naming the caller's product) before
    the first factor is taken.  An infinite product that underflows to 0 or
    to a subnormal while none of its factors is exactly 0 raises
    NumericOverflow through where, before a caller divides by it (near
    q = 1, where (q; q)_inf falls like exp(-pi**2 / (6 (1 - q)))); a factor
    that is exactly 0 is a pole or a zero, and its product stays 0.
    """
    q = p.q
    finite = count is not None
    if not finite:
        rel_tol = p.trunc.rel_tol
        count = _SMALL_RUN
        if abs(c) > rel_tol:
            count += math.ceil((math.log(abs(c)) - math.log(rel_tol)) / -math.log(q))
    _check_budget(count, p.trunc, where)
    product, first = 1.0, c
    for _ in range(count):
        product *= lead - c
        c *= q
    if finite:
        return product
    _note_terms(count)
    product *= 1.0 - c / (1.0 - q)
    # Only a factor that is exactly 0 (c q**j == 1.0, a pole or a zero)
    # lets the product reach 0 or a subnormal without underflowing; the
    # factors are walked again for it on this rare path alone.
    if abs(product) < sys.float_info.min and 1.0 not in itertools.accumulate(
            itertools.repeat(q, count - 1), operator.mul, initial=first):
        raise NumericOverflow(f"{_name(where)}: the product underflowed to {product!r}")
    return product


# Keyed by (q, x, rel_tol, max_terms), plain floats and an int: a Truncation
# or QParams key would hash in Python and compare its dataclass on every hit.
_TAIL_CACHE: dict[tuple[float, float, float, int], tuple[float, int]] = {}
# Entries kept before the cache starts over: aligned products (q_gamma and
# the grid-snapped factorial powers) reuse a few thousand (q, x) pairs, while
# random off-grid arguments would otherwise grow it without bound.
_TAIL_CACHE_SIZE = 4096


def _pochhammer_tail(x: float, p: QParams) -> float:
    """(q**x; q)_inf, memoised.

    Cache hits report the same term count a fresh computation would, so
    diagnostics stay identical between cold and warm runs.  A product of
    _SMALL_RUN factors (q**x at most rel_tol) is cheaper than its entry and
    is not stored.  The cache is cleared once it holds _TAIL_CACHE_SIZE
    entries.
    """
    key = (p.q, x, p.trunc.rel_tol, p.trunc.max_terms)
    cached = _TAIL_CACHE.get(key)
    if cached is not None:
        _note_terms(cached[1])
        return cached[0]
    where = ("(q**x; q)_inf at x={!r}, q={!r}", x, p.q)
    with count_terms() as counter:
        product = _q_product(_power(p.q, x, *where), p, where)
    if counter.total > _SMALL_RUN:
        if len(_TAIL_CACHE) >= _TAIL_CACHE_SIZE:
            _TAIL_CACHE.clear()
        _TAIL_CACHE[key] = (product, counter.total)
    return product


_QFACT_AT = "(t - s)_q^alpha at t={!r}, s={!r}, alpha={!r}, q={!r}"


def q_factorial_power(t: float, s: float, alpha: float, p: QParams) -> float:
    """The q-factorial power (t - s)_q^alpha.

    Integer alpha = m >= 0 gives the finite product prod_{i<m} (t - q**i s),
    on the grid s = t q**d the q-Pochhammer symbol t**m (q**d; q)_m, which is
    a signed zero exactly when its factor 1 - q**0 exists (d <= 0 < d + m);
    with t != 0 _q_product takes its factors, so that an alpha above the
    truncation's max_terms raises NonConvergence instead of multiplying that
    many factors, and a product too large for a double raises NumericOverflow.
    Any other real alpha uses the infinite ratio product, which vanishes
    exactly when s = t q**-j (j >= 0) and raises PoleError when a denominator
    factor hits zero (negative integer alpha on the grid) or rounds to zero.
    A power q**alpha, q**d or t**alpha, or a value, too large for a double
    raises NumericOverflow naming t, s, alpha and q.
    """
    q = p.q
    where = (_QFACT_AT, t, s, alpha, q)
    if not math.isfinite(alpha):
        raise DomainError(f"{_name(where)}: the exponent must be finite")
    if _is_integer_valued(alpha) and alpha >= 0:
        m = int(round(alpha))
        if m == 0:
            return 1.0
        if t == 0.0:
            # prod (0 - q**i s) = (-s)**m q**(m(m-1)/2)
            return _power(-s, m, *where) * q ** (m * (m - 1) // 2)
        d = _grid_exponent(s / t, q) if s != 0.0 and s / t > 0.0 else None
        if d is None:
            product = _q_product(s, p, where, m, t)
        elif d <= 0 < d + m:
            # t**m (q**d; q)_m vanishes by its factor 1 - q**0, and the -d
            # factors before it are negative.
            product = (-0.0 if d % 2 else 0.0) * _power(t, m, *where)
        else:
            product = _q_product(_power(q, d, *where), p, where, m) * _power(t, m, *where)
        if not math.isfinite(product):
            raise NumericOverflow(f"{_QFACT_AT.format(t, s, alpha, q)}: product overflowed")
        return product

    # Fractional (or negative integer) exponent: ratio product.
    if t == 0.0:
        if s == 0.0 and alpha > 0.0:
            return 0.0
        raise DomainError(f"{_name(where)}: a non-integer alpha requires t != 0 (or s = 0)")
    if t < 0.0:
        raise DomainError(f"{_name(where)}: a fractional q-factorial power needs t > 0")
    if s == 0.0:
        return _power(t, alpha, *where)
    u = s / t
    if not math.isfinite(u):
        raise DomainError(f"{_QFACT_AT.format(t, s, alpha, q)}: s/t must be finite")
    d = _grid_exponent(u, q) if u > 0.0 else None
    if d is not None:
        if _is_integer_valued(alpha) and d <= -alpha:
            raise PoleError(f"{_name(where)}: a vanishing denominator at s = t q**{d}")
        if d <= 0:
            # Numerator factor 1 - q**(d + i) vanishes identically at i = -d.
            return 0.0
        den = _pochhammer_tail(d + alpha, p)
        if den == 0.0:
            # A denominator factor 1 - q**(d + i + alpha) rounded to 0: alpha
            # is a pole to within float resolution.
            raise PoleError(
                f"{_QFACT_AT.format(t, s, alpha, q)}: a denominator factor is numerically 0"
            )
        return _power(t, alpha, *where) * _pochhammer_tail(float(d), p) / den

    # Generic, off-grid ratio.  A denominator factor within ~1e-12 of zero
    # cannot be told apart from a true pole at double precision (the ratio u
    # itself carries rounding), so it is reported as one instead of returning
    # a meaninglessly amplified product.  Only for c > 0 can a factor
    # 1 - c q**j vanish; the one nearest zero has q**j nearest 1/c.
    c = u * _power(q, alpha, *where)
    if c > 0.0 and abs(1.0 - c * q ** max(0, round(math.log(c) / -math.log(q)))) < 1e-12:
        raise PoleError(f"{_name(where)}: the denominator vanished for s/t = {u!r}")
    # While |u q**j| > 1 both products grow like q**(-j**2 / 2) and would
    # overflow apart; the ratio of their factors stays near q**-alpha.  That
    # takes ceil(log|u| / -log q) steps, known before the loop.
    if abs(u) > 1.0:
        _check_budget(math.ceil(math.log(abs(u)) / -math.log(q)), p.trunc, where)
    value = _power(t, alpha, *where)
    while abs(u) > 1.0:
        value *= (1.0 - u) / (1.0 - c)
        u *= q
        c *= q
        _note_terms(1)
    value *= _q_product(u, p, where) / _q_product(c, p, where)
    if not math.isfinite(value):
        raise NumericOverflow(f"{_QFACT_AT.format(t, s, alpha, q)}: the value overflowed")
    return value


_GAMMA_AT = "q_gamma at alpha={!r}, q={!r}"


def q_gamma(alpha: float, p: QParams) -> float:
    """q-gamma via (1 - q)**(1 - alpha) (q; q)_inf / (q**alpha; q)_inf.

    Satisfies the recurrence q_gamma(alpha + 1) = [alpha]_q q_gamma(alpha)
    with q_gamma(1) = 1; poles at alpha = 0, -1, -2, ...  Negative alpha is
    shifted up through the recurrence, one step per unit; ceil(-alpha) steps
    above the truncation's max_terms raise NonConvergence before the first.
    A product that underflows (q near 1) raises NumericOverflow, and a
    factor that rounds to exactly 0 PoleError.
    """
    q = p.q
    if not math.isfinite(alpha):
        raise DomainError(f"{_GAMMA_AT.format(alpha, q)}: the argument must be finite")
    if _is_integer_valued(alpha) and alpha <= 0.0:
        raise PoleError(f"{_GAMMA_AT.format(alpha, q)}: q_gamma has a pole there")
    _check_budget(math.ceil(-alpha), p.trunc, (_GAMMA_AT, alpha, q))
    divisor = 1.0
    a = alpha
    while a <= 0.0:
        divisor *= (1.0 - _power(q, a, _GAMMA_AT, alpha, q)) / (1.0 - q)
        a += 1.0
    scale = _power(1.0 - q, 1.0 - a, _GAMMA_AT, alpha, q)
    tail = _pochhammer_tail(a, p)
    if tail == 0.0 or divisor == 0.0:
        # q**a rounded to 1: alpha is a pole to within float resolution.
        raise PoleError(f"{_GAMMA_AT.format(alpha, q)} is numerically on a pole")
    return scale * _pochhammer_tail(1.0, p) / tail / divisor


def q_exp_e(t: float, p: QParams) -> float:
    """Small q-exponential e_q(t) = sum_k t**k / [k]_q!.

    Converges for |t| < 1/(1 - q); divergence is detected at runtime.
    """
    q = p.q

    def terms() -> Iterator[float]:
        term = 1.0
        k = 0
        while True:
            yield term
            k += 1
            term *= t * (1.0 - q) / (1.0 - q**k)

    return _accumulate(terms(), p.trunc, detect_growth=True,
                       where=("e_q series at t={!r}, q={!r}", t, q))


def q_exp_E(t: float, p: QParams) -> float:
    """Big q-exponential E_q(t) = prod_{n>=0} (1 - q**n t)**-1 for |t| < 1."""
    where = ("E_q at t={!r}, q={!r}", t, p.q)
    if not abs(t) < 1.0:
        raise DomainError(f"{_name(where)}: E_q requires |t| < 1")
    return 1.0 / _q_product(t, p, where)

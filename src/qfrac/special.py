"""q-special functions: factorial powers, q-gamma, q-Pochhammer, q-exponentials.

The central primitive is the q-factorial power (t - s)_q^alpha: a finite
product for integer alpha >= 0, otherwise the ratio

    t**alpha * (s/t; q)_inf / ((s/t) q**alpha; q)_inf.

q_gamma and E_q are quotients of the same products (c; q)_inf.  Every one of
them, and every finite product, (c; q)_n for q_pochhammer and the integer
factorial power on the grid and prod (t - q**i s) for it off the grid, comes
from one loop, ``_q_product``, which checks its number of factors against
the budget first.  Work here whose terms are known from its arguments stops
where its rest is provably below rounding, and reads no rel_tol: an
infinite product closes its tail after the _tail_factors(c, q) factors that
make the closed tail exact to about 2**-54, and e_q is the cut sum of the
terms that leave a geometric rest within 2**-54 of its value.  Quotients
that would overflow or underflow apart (the off-grid ratio's prefix here,
the q-Mittag-Leffler terms on the time scale in ivp) take their factors in
pairs instead.  When s/t coincides with an integer power of q the ratio is
snapped onto the grid so that vanishing (s/t = q**-j) and poles surface
exactly instead of as rounding noise.  Aligned products are tails
(q**x; q)_inf, their first factor 1 - q**x taken by expm1 near x = 0,
memoised per (q, x, max_terms) in a bounded cache.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

from .core import (
    QParams, _accumulate, _check_budget, _check_domain, _grew, _grid_exponent, _name, _note_terms,
    _power,
)
from .errors import DomainError, NonConvergence, NumericOverflow, PoleError

__all__ = [
    "q_pochhammer",
    "q_factorial_power",
    "q_gamma",
    "q_exp_e",
    "q_exp_E",
]


def q_pochhammer(n: int, p: QParams) -> float:
    """(q)_n = prod_{j=1..n} (1 - q**j), with (q)_0 = 1; an n above the
    truncation's max_terms raises NonConvergence before any factor is taken."""
    _check_domain("q_pochhammer", n)
    return _q_product(p.q, p, ("(q; q)_n at n={!r}, q={!r}", n, p.q), int(n))


def _q_product(c: float, p: QParams, where: tuple, count: int | None = None,
               lead: float = 1.0, factors: int | None = None) -> float:
    """(c; q)_count = prod_{j<count} (1 - c q**j), or for count None
    (c; q)_inf for finite c, uncached.

    A finite product takes its count factors lead - c q**j (so lead = t and
    c = s give prod (t - q**j s), with no power of t apart that could
    overflow or underflow against them) and notes no terms.  An infinite
    one takes the _tail_factors(c, q) factors before its closed tail, the
    fewest n with |c| q**n <= x_q (passed as factors by a caller that has
    them), notes them, and multiplies in the closed tail
    prod_{i>=n} (1 - c q**i) = 1 - c q**n / (1 - q), exact there to about
    2**-54 relative whatever rel_tol.  Either count is checked against the
    budget (core._check_budget, where naming the caller's product) before
    the first factor is taken.  An infinite product that
    underflows to 0 or to a subnormal while none of its factors is exactly
    0 raises NumericOverflow through where, before a caller divides by it
    (near q = 1, where (q; q)_inf falls like exp(-pi**2 / (6 (1 - q)))); a
    factor that is exactly 0 is a pole or a zero, and its product stays 0.
    """
    q = p.q
    finite = count is not None
    if not finite:
        count = _tail_factors(c, q) if factors is None else factors
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


def _tail_factors(c: float, q: float) -> int:
    """The factors (c; q)_inf takes before its closed tail: the fewest
    n >= 0 with |c| q**n <= x_q = 2**-27 (1 - q) sqrt((1 + q) / q), by c
    and q alone (a NaN c takes none).

    ln prod_{i>=0} (1 - x q**i) = -sum_k x**k / (k (1 - q**k)) and
    ln(1 - x / (1 - q)) = -sum_k x**k / (k (1 - q)**k) agree in their first
    term and differ in the second by x**2 q / ((1 - q)**2 (1 + q)), so at
    x = c q**n <= x_q the closed tail 1 - x / (1 - q) is within about
    2**-54 of the tail's value, relative.
    """
    size, top = abs(c), 2.0**-27 * (1.0 - q) * math.sqrt((1.0 + q) / q)
    if not size > top:
        return 0
    return math.ceil((math.log(size) - math.log(top)) / -math.log(q))


# Keyed by (q, x, max_terms), plain floats and an int: a Truncation or
# QParams key would hash in Python and compare its dataclass on every hit.
_TAIL_CACHE: dict[tuple[float, float, int], tuple[float, int]] = {}
# Entries kept before the cache starts over: aligned products (q_gamma and
# the grid-snapped factorial powers) reuse a few thousand (q, x) pairs, while
# random off-grid arguments would otherwise grow it without bound.
_TAIL_CACHE_SIZE = 4096


def _pochhammer_tail(x: float, p: QParams) -> float:
    """(q**x; q)_inf, memoised, from _q_product.

    For 0 < x < 1, the arguments q_gamma's shift leaves, where 1 - q**x
    nears 0 at a pole, that first factor is -expm1(x log q), which carries
    no rounding of q**x, times (q**(x+1); q)_inf; elsewhere the product
    takes it as 1 - q**x, exact at x = 1.  Its term count is the factors
    _q_product takes; cache hits report the same count a fresh computation
    would, so diagnostics stay identical between cold and warm runs.  A
    tail that takes no factor before its closed tail is cheaper than its
    entry and is not stored.  The cache is cleared once it holds
    _TAIL_CACHE_SIZE entries.
    """
    q = p.q
    key = (q, x, p.trunc.max_terms)
    cached = _TAIL_CACHE.get(key)
    if cached is not None:
        _note_terms(cached[1])
        return cached[0]
    where = ("(q**x; q)_inf at x={!r}, q={!r}", x, q)
    c, first = _power(q, x, *where), 1.0
    if 0.0 < x < 1.0:
        c, first = c * q, -math.expm1(x * math.log(q))
    factors = _tail_factors(c, q)
    product = first * _q_product(c, p, where, factors=factors)
    if factors:
        if len(_TAIL_CACHE) >= _TAIL_CACHE_SIZE:
            _TAIL_CACHE.clear()
        _TAIL_CACHE[key] = (product, factors)
    return product


_QFACT_AT = "(t - s)_q^alpha at t={!r}, s={!r}, alpha={!r}, q={!r}"


def q_factorial_power(t: float, s: float, alpha: float, p: QParams) -> float:
    """The q-factorial power (t - s)_q^alpha, for finite t, s and alpha.

    Integer alpha = m >= 0 gives the finite product prod_{i<m} (t - q**i s),
    on the grid s = t q**d the q-Pochhammer symbol t**m (q**d; q)_m, which is
    a signed zero exactly when its factor 1 - q**0 exists (d <= 0 < d + m),
    and takes the factors t - q**i s whole where t**m (q**d; q)_m is not
    finite, or is 0 with no zero factor, as its parts over- or underflow
    apart; with t != 0 _q_product takes its factors, so that an alpha above
    the truncation's max_terms raises NonConvergence instead of multiplying
    that many factors, and a product too large for a double raises
    NumericOverflow.
    Any other real alpha uses the infinite ratio product, which vanishes
    exactly when s = t q**-j (j >= 0) and raises PoleError when a denominator
    factor hits zero (negative integer alpha on the grid) or rounds to zero.
    A power q**alpha, q**d or t**alpha, or a value, too large for a double
    raises NumericOverflow naming t, s, alpha and q.
    """
    _check_domain("q_factorial_power", t, s, alpha)
    q = p.q
    where = (_QFACT_AT, t, s, alpha, q)
    if alpha == round(alpha) and alpha >= 0:
        m = int(round(alpha))
        if m == 0:  # the empty product
            product = 1.0
        elif t == 0.0:
            # prod (0 - q**i s) = (-s)**m q**(m(m-1)/2)
            product = _power(-s, m, *where) * q ** (m * (m - 1) // 2)
        else:
            d = _grid_exponent(s / t, q) if s != 0.0 and s / t > 0.0 else None
            if d is None:
                product = _q_product(s, p, where, m, t)
            elif d <= 0 < d + m:
                # t**m (q**d; q)_m vanishes by its factor 1 - q**0, and the -d
                # factors before it are negative.
                product = (-0.0 if d % 2 else 0.0) * _power(t, m, *where)
            else:
                # t**m (q**d; q)_m, unless its two factors over- or
                # underflow apart: then the factors t - q**i s, taken whole.
                try:
                    product = _q_product(q**d, p, where, m) * t**m
                except OverflowError:
                    product = math.inf
                if product == 0.0 or not math.isfinite(product):
                    product = _q_product(s, p, where, m, t)
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
        if alpha == round(alpha) and d <= -alpha:
            raise PoleError(f"{_name(where)}: a vanishing denominator at s = t q**{d}")
        if d <= 0:
            # Numerator factor 1 - q**(d + i) vanishes identically at i = -d.
            return 0.0
        den = _pochhammer_tail(d + alpha, p)
        if den == 0.0 or _near_pole(d + alpha, q):
            # A denominator factor 1 - q**(d + i + alpha) rounds to 0: alpha
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


def _near_pole(x: float, q: float) -> bool:
    """Whether x is a pole n <= 0 of 1 / (q**x; q)_inf to within float
    resolution: the nearest integer n <= 0 leaves q**(x - n) rounded to 1,
    so that the factor 1 - q**(x - n) would round to 0 by subtraction.
    expm1 would still tell x from n, but an argument formed in floats (an
    order d + alpha, an alpha typed as 1e-17) is no closer to its intent
    than that, so it is taken for the pole."""
    n = round(x)
    return n <= 0 and q ** (x - n) == 1.0


def q_gamma(alpha: float, p: QParams) -> float:
    """q-gamma via (1 - q)**(1 - alpha) (q; q)_inf / (q**alpha; q)_inf.

    Satisfies the recurrence q_gamma(alpha + 1) = [alpha]_q q_gamma(alpha)
    with q_gamma(1) = 1; poles at alpha = 0, -1, -2, ...  Negative alpha is
    shifted up through the recurrence, one step per unit; ceil(-alpha) steps
    above the truncation's max_terms raise NonConvergence before the first.
    The shift factor 1 - q**a for -1 < a <= 0 is -expm1(a log q), as is the
    first factor of the tail (q**a; q)_inf for the a in (0, 1] the shift
    leaves (_pochhammer_tail), so an alpha near a pole keeps its distance to
    it.  An alpha whose distance to the nearest pole n leaves q**(alpha - n)
    rounded to 1 raises PoleError (_near_pole), as does a pole itself.  A product that underflows (q near 1) raises
    NumericOverflow.
    """
    _check_domain("q_gamma", alpha)
    q = p.q
    if alpha == round(alpha) and alpha <= 0.0:
        raise PoleError(f"{_GAMMA_AT.format(alpha, q)}: q_gamma has a pole there")
    if _near_pole(alpha, q):
        raise PoleError(f"{_GAMMA_AT.format(alpha, q)} is numerically on a pole")
    _check_budget(math.ceil(-alpha), p.trunc, (_GAMMA_AT, alpha, q))
    divisor, a, log_q = 1.0, alpha, math.log(q)
    while a <= 0.0:
        if a > -1.0:
            divisor *= -math.expm1(a * log_q) / (1.0 - q)
        else:
            divisor *= (1.0 - _power(q, a, _GAMMA_AT, alpha, q)) / (1.0 - q)
        a += 1.0
    scale = _power(1.0 - q, 1.0 - a, _GAMMA_AT, alpha, q)
    tail = _pochhammer_tail(a, p)
    return scale * _pochhammer_tail(1.0, p) / tail / divisor


_EXP_AT = "e_q series at t={!r}, q={!r}"
# ln 2**-54, the share of e_q's value its rest may leave, and pi**2 / 6
_LN_ROUNDING, _PI2_6 = -54.0 * math.log(2.0), math.pi**2 / 6.0


def q_exp_e(t: float, p: QParams) -> float:
    """Small q-exponential e_q(t) = sum_k t**k / [k]_q! = 1 / (z; q)_inf,
    z = (1 - q) t, for |z| < 1.

    |z| >= 1 raises NonConvergence before any term; z = 0 gives 1.0.
    Otherwise e_q is the cut sum (core._accumulate, math.fsum) of T_0 = 1,
    T_k = T_{k-1} z / (1 - q**k) for k <= K and the geometric rest
    G = T_K z / (1 - z).  With
    a = q**(K+1) the true rest differs from G by at most
    |T_K| |z| / (1 - |z|) (1 / (a; q)_inf - 1), and
    1 / (a; q)_inf - 1 <= 2 a / ((1 - q) (1 - a)) while that is at most 1
    (it is exp(u) - 1 at most, u = a / ((1 - q) (1 - a))), and below
    1 / (q; q)_inf always.  K, found before the first term from
    |T_K| <= |z|**K / (q; q)_inf and ln 1 / (q; q)_inf <= pi**2 / (6 ln 1/q),
    is the fewer of the two counts that put that bound below 2**-54 L, with
    L = 1 for z > 0 and exp(-|z| / (1 - q)) for z < 0 lower bounds of e_q:
    exact to rounding whatever rel_tol, K + 2 terms checked against
    max_terms first.  For z > 0 the terms are positive; for z < 0 they
    alternate, and where their sizes rise as core._grew rejects (they rise
    only while q**k > 1 - |z|) NonConvergence names the cancellation.
    """
    _check_domain("q_exp_e", t)
    q = p.q
    where = (_EXP_AT, t, q)
    z = (1.0 - q) * t
    size = abs(z)
    if not size < 1.0:
        raise NonConvergence(f"{_name(where)}: |(1-q) t| = {size!r} is not below 1, "
                             f"so the series diverges")
    if z == 0.0:
        return 1.0
    log_q, log_size = math.log(q), math.log(size)
    lift = _PI2_6 / -log_q  # ln 1 / (q; q)_inf at most
    room = _LN_ROUNDING + math.log1p(-size) - (size / (1.0 - q) if z < 0.0 else 0.0)
    # K + 1 from the bound 2 a / (1 - q)**2, at an a that keeps u <= 1 ...
    near = max((room - lift + math.log(0.5 * (1.0 - q) ** 2)) / (log_size + log_q),
               math.log((1.0 - q) / (2.0 - q)) / log_q)
    # ... or from 1 / (q; q)_inf
    far = (room - 2.0 * lift) / log_size
    count = max(math.ceil(min(near, far)), 1) + 1  # T_0 to T_K, and G
    _check_budget(count, p.trunc, where)
    term, power, terms = 1.0, 1.0, [1.0]
    for _ in range(count - 2):
        power *= q
        term *= z / (1.0 - power)
        terms.append(term)
    terms.append(term * z / (1.0 - z))
    if z < 0.0 and _grew(terms[:math.floor(math.log1p(-size) / log_q) + 3]):
        raise NonConvergence(
            f"{_name(where)}: the series converges (|(1-q) t| = {size!r} < 1), but its "
            f"alternating terms grew past the growth watch, so a term-wise sum would cancel "
            f"their digits")
    return _accumulate(terms, p.trunc, detect_growth=False, count=count, where=where)


def q_exp_E(t: float, p: QParams) -> float:
    """Big q-exponential E_q(t) = prod_{n>=0} (1 - q**n t)**-1 for |t| < 1."""
    _check_domain("q_exp_E", t)
    return 1.0 / _q_product(t, p, ("E_q at t={!r}, q={!r}", t, p.q))

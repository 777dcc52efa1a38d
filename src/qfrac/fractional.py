"""Left and right q-fractional integrals, Riemann and Caputo q-derivatives.

Left operators integrate downward from t on the chain t, tq, tq**2, ...;
right operators integrate upward toward b (or infinity) and evaluate their
operand at shifted points s * q**(1 - alpha), i.e. on a shifted q-grid.
On grid-aligned endpoints an operator is one lattice series; the left
integral is one from every start a >= 0, less its part anchored at an a off
the grid of t or above t, with no Jackson sum of a kernel.  A derivative
of non-integer order alpha is the integral at order -alpha (the
q-Grunwald-Letnikov form of Al-Salam and Agarwal): the Riemann ones of f,
left from every start and right to every b, whose endpoint moves to
b q**-n (n = ceil(alpha)); the Caputo ones of f less its q-Taylor part,
left from every start and right to every b.  From a = 0 the q-Taylor
coefficients nabla_q^k f(0), k >= 1, are limits, taken by Richardson's
extrapolation along a geometric chain toward 0.  No operator puts a
q-derivative under a sum.  Integer orders short-circuit to the plain
iterated q-derivative.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator

from . import special
from .core import (
    QFunction, QParams, _accumulate, _chain_sum, _check_budget, _check_domain, _grid_exponent,
    _name, _power, _start_steps, _upper_steps, nabla_q_n, q_bracket,
)
from .errors import DomainError, NonConvergence, NumericOverflow, QCalculusError

__all__ = [
    "r_coef",
    "left_frac_integral",
    "right_frac_integral",
    "left_riemann_deriv",
    "right_riemann_deriv",
    "left_caputo",
    "right_caputo",
]


def r_coef(alpha: float, q: float) -> float:
    """Prefactor q**(-alpha (alpha - 1) / 2) of right-sided operators, for a
    finite alpha and q in (0, 1); an overflow, of the power or of its
    exponent (|alpha| above about 1e154), raises NumericOverflow naming alpha
    and q."""
    _check_domain("r_coef", alpha, q)
    where = "r(alpha) at alpha={!r}, q={!r}"
    value = _power(q, -0.5 * alpha * (alpha - 1.0), where, alpha, q)
    if math.isinf(value):
        raise NumericOverflow(f"{where.format(alpha, q)}: the exponent overflowed")
    return value


# Failures of an integral's lattice series or weight name its parameters
# through these, formatted only when raised,
_LEFT_AT = "left fractional integral at t={!r}, a={!r}, alpha={!r}, q={!r}"
_RIGHT_AT = "right fractional integral at t={!r}, b={!r}, alpha={!r}, q={!r}"
# and the q-Taylor part of a Caputo derivative through this, with its side
# and endpoint.
_CAPUTO_AT = "{} Caputo derivative at t={!r}, {}={!r}, alpha={!r}, q={!r}"


def _lattice_series(
    f: QFunction, x: float, upward: bool, alpha: float, weight: float,
    steps: int | None, p: QParams, where: tuple, offset: float = 1.0,
) -> float:
    """core._chain_sum over the weights w_0 = weight and
    w_{k+1} = w_k * ratio * (1 - c q**(alpha+k)) / (1 - c q**(k+1)), with
    c = offset and ratio q**-alpha upward, q downward.

    Downward they are the kernel of a fractional integral over q_gamma(alpha)
    on the lattice, a ratio of q-Pochhammer symbols, so no factorial power is
    ever rebuilt.  With c = a / t < 1 they follow the kernel
    (t - qs)_q^(alpha-1) along s = a q**k.  An infinite series may close on
    its operand's ratio (see core._accumulate): where the rest is long, an
    operand whose ratio stays within rel_tol over 5 samples is sampled at a
    few spot checks further down, and if it is a power of s there too, the
    rest of the series is drawn from these weights alone.  A closed
    geometric tail of the term test (at order 1 the weights are geometric,
    as a Jackson sum's) is spot-checked the same way.  A power q**alpha or
    q**-alpha too large for a double raises NumericOverflow through where.
    """
    q = p.q
    ratio = _power(q, -alpha, *where) if upward else q
    return _chain_sum(f, x, upward, _lattice_weights(
        weight, ratio, offset * _power(q, alpha, *where), offset * q, q), steps, p, where)


def _lattice_weights(w: float, ratio: float, num: float, den: float, q: float) -> Iterator[float]:
    """The weights of _lattice_series from w = w_0, with num = c q**(alpha+k)
    and den = c q**(k+1) at step k."""
    while True:
        yield w
        w *= ratio * (1.0 - num) / (1.0 - den)
        num *= q
        den *= q


def _lattice_cells(cells: list[float], depth: int, alpha: float, a: float,
                   step: Callable[[float, float], float], p: QParams, where: tuple) -> list[float]:
    """cells = [u_0 = 0, u_1, ...] on the time scale t_k = a q**-k, grown to
    u_depth by forward substitution: u_k = step(t_k, s_k), with
    s_k = sum_{i=1}^{k-1} w_i u_{k-i} and w the downward weights of
    _lattice_series at order -alpha, weight 1 and offset 1 (w_0 = 1,
    w_{i+1} = w_i q (1 - q**(i-alpha)) / (1 - q**(i+1))).

    For y(t_k) = y(a) + u_k, left_caputo of order 0 < alpha <= 1 from a at
    t_k is exactly ((1-q) t_k)**-alpha (u_k + s_k), its lattice series of k
    terms (at alpha = 1, w_1 = -1 and w_i = 0 past it: nabla_q).  So an
    equation C^alpha y = F(t, y) on the time scale is one scalar equation
    per cell, which step solves for u_k given s_k.  Each factor 1 - q**x of
    the weights is -expm1(x log q): by subtraction it loses digits where
    q**x nears 1 (i near alpha, q near 1), and every cell carries the
    weights' error into the next (at q = 0.998, depth 1,000, 3.9e-14 off
    against 2.2e-16).  depth goes through _check_budget before any cell is
    formed, and each s_k is a cut sum of core._accumulate; where, a template
    whose first field is t and its other arguments, names a failure at t_k.
    A cell that is not finite raises NumericOverflow.
    """
    if depth < len(cells):
        return cells
    q = p.q
    at = lambda t: (where[0], t, *where[1:])
    _check_budget(depth, p.trunc, at(a / q**depth))
    weights, log_q = [1.0], math.log(q)
    for i in range(depth - 1):
        weights.append(weights[i] * q * math.expm1((i - alpha) * log_q)
                       / math.expm1((i + 1) * log_q))
    for k in range(len(cells), depth + 1):
        t = a / q**k
        s = _accumulate(map(operator.mul, weights[1:k], cells[k - 1:0:-1]), p.trunc,
                        detect_growth=False, count=k - 1, where=at(t))
        u = step(t, s)
        if not math.isfinite(u):
            raise NumericOverflow(f"{_name(at(t))}: the cell is {u!r}")
        cells.append(u)
    return cells


def _left_series(f: QFunction, a: float, alpha: float, t: float, steps: int | None,
                 weight: float, p: QParams) -> float:
    """weight * sum_{i<m} c_i f(t q**i), c_i = q**i (q**alpha; q)_i / (q; q)_i, for
    m = steps = _start_steps(a, t, q): I_a^alpha f(t) at weight ((1-q) t)**alpha.

    For steps = -1 (a > 0 off the grid of t, or above t) it is that series for
    m infinite less the one anchored at a, sum_i W_i f(a q**i), W_0 = weight c
    (1 - qc)_q^(alpha-1) (q**alpha; q)_inf / (q; q)_inf and W_{i+1} = W_i q
    (1 - c q**(alpha+i)) / (1 - c q**(i+1)), c = a / t: one factorial power and
    two memoised q-Pochhammer tails, no q_gamma, so a large alpha does not overflow.
    From a = t q**-m above t (t = a q**m by the step rule) the two agree past
    the first m anchored terms, so it is minus those, and past them
    1 - c q**m would divide by zero.  The kernel is an exact zero at every one
    of them for non-integer alpha (W_0 = 0), so the value is 0.0 with nothing
    sampled, and at the last n - 1 of them for alpha = n, so those are not
    sampled.  The step rule and q_factorial_power snap a to the grid within
    one radius, so a snapped W_0 never reaches the series from 0.
    """
    q = p.q
    where = (_LEFT_AT, t, a, alpha, q)
    if steps != -1:
        return _lattice_series(f, t, False, alpha, weight, steps, p, where)
    c = a / t
    above = _start_steps(t, a, q) if c > 1.0 else -1
    if above != -1:
        above = above + 1 - int(alpha) if alpha == int(alpha) else 0
        if above <= 0:
            return 0.0
    start = weight * c * special.q_factorial_power(1.0, q * c, alpha - 1.0, p)
    start *= special._pochhammer_tail(alpha, p) / special._pochhammer_tail(1.0, p)
    if above != -1:
        return -_lattice_series(f, a, False, alpha, start, above, p, where, c)
    whole = _lattice_series(f, t, False, alpha, weight, None, p, where)
    return whole - _lattice_series(f, a, False, alpha, start, None, p, where, c)


def left_frac_integral(
    f: QFunction, a: float, order: float, t: float, p: QParams
) -> float:
    """Left q-fractional integral of order alpha starting at a, evaluated at t.

    (1 / q_gamma(alpha)) * integral_a^t (t - qs)_q^(alpha-1) f(s) nabla_q s.

    For t > 0 and every a >= 0 it is _left_series of weight ((1-q) t)**alpha:
    a lattice series, less its part anchored at an a off the grid of t or
    above t.  a = t = 0 gives 0.0, and t = 0 below a > 0 raises DomainError
    naming t, a, alpha and q, before any sample.  A negative non-integer
    order -alpha gives the left Riemann derivative of order alpha from every
    start.
    """
    _check_domain("left_frac_integral", a, order, t)
    alpha, q = float(order), p.q
    if t > 0.0:
        weight = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        return _left_series(f, a, alpha, t, _start_steps(a, t, q), weight, p)
    if a > 0.0:
        raise DomainError(f"{_LEFT_AT.format(t, a, alpha, q)}: t = 0 lies below a")
    return 0.0


def right_frac_integral(
    f: QFunction, b: float, order: float, t: float, p: QParams
) -> float:
    """Right q-fractional integral of order alpha ending at b, at t.

    r(alpha)/q_gamma(alpha) * integral_t^b (s - t)_q^(alpha-1) f(s q**(1-alpha)) nabla_q s;
    the operand is sampled on the shifted grid s * q**(1 - alpha).  With b
    infinite or b = t q**-m, this is the lattice series sum_{i=1..m} w_i
    f(t q**(1-alpha-i)), w_1 = r(alpha) ((1-q) t)**alpha q**-alpha and
    w_{i+1} = w_i q**-alpha (1 - q**(alpha+i-1)) / (1 - q**i), its chain walked
    from t q**-alpha = (t / q) q**(1-alpha) itself; divergence of the
    infinite series is detected at runtime.  A finite b off the grid of t
    raises DomainError.
    """
    _check_domain("right_frac_integral", b, order, t)
    alpha, q = float(order), p.q
    where = (_RIGHT_AT, t, b, alpha, q)
    steps = _upper_steps(t, b, q)
    shift = _power(q, 1.0 - alpha, *where)
    weight = r_coef(alpha, q) * q**-alpha * _power((1.0 - q) * t, alpha, *where)
    return _lattice_series(f, t / q * shift, True, alpha, weight, steps, p, where)


def left_riemann_deriv(
    f: QFunction, a: float, order: float, t: float, p: QParams
) -> float:
    """Left Riemann q-fractional derivative nabla_q^n I_a^(n - alpha) f(t).

    For non-integer alpha it is left_frac_integral at order -alpha from every
    start a: the kernel's derivative in t is the kernel of one order less,
    so the n q-derivatives pass through the sum term by term.
    """
    _check_domain("left_riemann_deriv", a, order, t)
    alpha, n = float(order), math.ceil(order)
    if n == alpha:
        return nabla_q_n(f, t, n, p)
    return left_frac_integral(f, a, -alpha, t, p)


def right_riemann_deriv(
    f: QFunction, b: float, order: float, t: float, p: QParams
) -> float:
    """Right Riemann q-fractional derivative (-1)**n nabla_q^n of the right
    (n - alpha)-integral to b.

    For non-integer alpha it is the right integral's lattice series at order
    -alpha to b q**-n (n = ceil(alpha)), for every b: with b = t q**-m its
    m + n terms reach no point above b, and b = infinity stays infinite.
    b below t raises DomainError, as the integral to b does, and an n whose
    q**n underflows to 0 raises NumericOverflow naming t, b, alpha and q.
    """
    _check_domain("right_riemann_deriv", b, order, t)
    alpha, n = float(order), math.ceil(order)
    sign = -1.0 if n % 2 else 1.0
    if n == alpha:
        return sign * nabla_q_n(f, t, n, p)
    at = f"right Riemann derivative at t={t!r}, b={b!r}, alpha={alpha!r}, q={p.q!r}"
    if not b >= t:
        raise DomainError(f"{at}: needs b >= t")
    shift = p.q**n
    if shift == 0.0:
        raise NumericOverflow(f"{at}: q**-{n} overflowed")
    return right_frac_integral(f, b / shift, -alpha, t, p)


# Richardson's table toward 0 runs on the nodes t r**e, e <= _DEPTH, with the
# ratio r fixed apart from q.  No node lies above t, so f is sampled only on
# (0, t], as the series samples it.  With r = q the table lost either way:
# at q = 0.3 the nodes shrink so fast that the rounding of nabla_q^3 f, about
# eps |f| / ((1-q) x)**3, reached 1e-7 before the table settled (e^s), and at
# q = 0.9 it settled too slowly (1/(1+s) at t = 0.8 off by 2e-3).  With
# r = 0.7 and 12 columns the deepest node is 0.014 t.
_RATIO, _DEPTH = 0.7, 12


def _limits_at_zero(f: QFunction, t: float, n: int, where: tuple, p: QParams) -> list[float]:
    """nabla_q^k f(0) for k = n - 1 down to 1, each the limit of
    nabla_q^k f(x_e) on the nodes x_e = t r**e by Richardson's table
    T_{e,j} = (T_{e+1,j-1} - r**j T_{e,j-1}) / (1 - r**j): for f analytic at
    0, nabla_q^k f(x) is a power series in x, and column j removes x**j.
    Of the diagonal T_{0,j} it keeps the entry closest to T_{0,j-1}, as
    depth past what f needs amplifies rounding.  That gap must be within
    sqrt(rel_tol) of the scale max(|nabla_q^k f|, |f| / t**k) on the nodes,
    or it raises NonConvergence through where.  At n <= 4 polynomials settle
    to 1.1e-11 of it and e^s, cos s and 1/(1+s) (t <= 0.8) to 3.2e-7; a
    power x**u in nabla_q^k f, u non-integer in (-3, 2), no closer than 5e-5
    (s**2.5 at n = 3: 7.7e-3).  The table's samples go through the term
    budget before any is taken.
    """
    nodes = [t * _RATIO**e for e in range(_DEPTH + 1)]
    _check_budget(len(nodes) * n * (n + 1) // 2, p.trunc, where)
    rows = [[nabla_q_n(f, x, k, p) for x in nodes] for k in range(n)]
    size = max(map(abs, rows[0]))
    limits = []
    for k in range(n - 1, 0, -1):
        column, diagonal = rows[k], [rows[k][0]]
        for r in (_RATIO**j for j in range(1, _DEPTH + 1)):
            column = [(deeper - r * x) / (1.0 - r) for x, deeper in zip(column, column[1:])]
            diagonal.append(column[0])
        gap, best = min((abs(b - a), b) for a, b in zip(diagonal, diagonal[1:]))
        scale = max(size / t**k, *map(abs, rows[k]))
        if not gap <= math.sqrt(p.trunc.rel_tol) * scale:
            raise NonConvergence(f"{_name(where)}: nabla_q^{k} f does not settle toward 0 "
                                 f"(best gap {gap:.3g} against a scale of {scale:.3g})")
        limits.append(best)
    return limits


def _taylor_remainder(
    f: QFunction, a: float, t: float, n: int, where: tuple, p: QParams
) -> QFunction:
    """s -> f(s) - sum_{k<n} nabla_q^k f(a) (s - a)_q^(k) / [k]_q!: f less its
    q-Taylor part of degree n - 1 at a, the polynomial that interpolates f at
    a, aq, ..., a q**(n-1), where the remainder vanishes.  From a > 0 the
    coefficients are taken from the highest order down, so an order past the
    term budget raises before f is sampled; from a = 0 those with k >= 1 are
    _limits_at_zero on (0, t], and the one with k = 0 is f(0).  A coefficient
    that fails in float arithmetic or is not finite (f singular at a) raises
    NonConvergence through where, a _CAPUTO_AT tuple.
    """
    q = p.q
    try:
        if a == 0.0 and n > 1:
            coeffs = _limits_at_zero(f, t, n, where, p)
        else:
            coeffs = [nabla_q_n(f, a, k, p) for k in range(n - 1, 0, -1)]
        coeffs.append(f(a))
        failure = None if all(map(math.isfinite, coeffs)) else f"got {coeffs[::-1]}"
    except QCalculusError:
        raise
    except (ZeroDivisionError, OverflowError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    if failure is not None:
        raise NonConvergence(
            f"{_name(where)}: the q-Taylor coefficients of f at {a!r} are not finite ({failure})"
        )
    # Horner's scheme: (s - a)_q^(k) / [k]_q! = prod_{j<k} (s - a q**j) / [j + 1]_q.
    top = coeffs[0]
    nest = [(c, a * q**j, q_bracket(j + 1, p)) for j, c in zip(range(n - 2, -1, -1), coeffs[1:])]

    def remainder(s: float) -> float:
        value = top
        for coeff, shift, bracket in nest:
            value = coeff + (s - shift) / bracket * value
        return f(s) - value

    return remainder


def left_caputo(
    f: QFunction, a: float, order: float, t: float, p: QParams
) -> float:
    """Left Caputo q-fractional derivative I_a^(n - alpha) nabla_q^n f(t).

    For t > 0 and every start a >= 0, below t or above it, on the grid of t
    or off it, it is left_frac_integral at order -alpha of f less its
    q-Taylor part of degree n - 1 at a; from a = 0 its coefficients past
    f(0) are limits toward 0 (_limits_at_zero), and an f with no
    integer-power expansion at 0 (s**0.5, s**2.5) raises NonConvergence.
    From a = t (t = 0 included) it is an empty sum, 0.0 with no sample; t = 0
    below a > 0 raises DomainError naming t and a, before any sample.  Kills
    constants for non-integer order; integer order is the plain n-fold
    q-derivative.
    """
    _check_domain("left_caputo", a, order, t)
    alpha, n, q = float(order), math.ceil(order), p.q
    where = (_CAPUTO_AT, "left", t, "a", a, alpha, q)
    if n == alpha:
        return nabla_q_n(f, t, n, p)
    if a == t:
        return 0.0
    if not t > 0.0:
        raise DomainError(f"{_name(where)}: t = 0 lies below a")
    remainder = _taylor_remainder(f, a, t, n, where, p)
    # The remainder vanishes at a q**k, k < n, so from an a off the grid of
    # t the integral is the one from a q**n, whose anchored sum does not
    # open with the n zero terms that the stopping rule takes for its end.
    start = a if _grid_exponent(a / t, q) is not None else a * q**n
    return left_frac_integral(remainder, start, -alpha, t, p)


def right_caputo(
    f: QFunction, b: float, order: float, t: float, p: QParams
) -> float:
    """Right Caputo q-fractional derivative: the right (n - alpha)-integral
    to b of (-nabla_q)**n f.

    For non-integer alpha it is right_riemann_deriv of f less its q-Taylor
    part, with no q-derivative of f under a sum.  To b = infinity it is the
    Riemann series of f itself, whose weights sum to 0 against every power
    s**d with d < alpha, as (-nabla_q)**n gives 0 for it.  To b = t q**-m
    the part is f's q-Taylor polynomial at b q**(alpha + 1 - n), which
    interpolates f at b q**(alpha - k), k < n: the top n samples of the
    Riemann series to b.  The series is taken to b q, one sample shorter,
    and reads the remainder's zeros at n - 1 of them.  b = t gives 0.0 with
    no sample; a b off the grid of t or below it raises DomainError naming
    that b, before any sample.  Integer order is (-1)**n nabla_q^n.
    """
    _check_domain("right_caputo", b, order, t)
    alpha, n = float(order), math.ceil(order)
    if n == alpha or b == math.inf:
        return right_riemann_deriv(f, b, alpha, t, p)
    q = p.q
    if _upper_steps(t, b, q) == 0:
        return 0.0
    where = (_CAPUTO_AT, "right", t, "b", b, alpha, q)
    remainder = _taylor_remainder(f, b * q ** (alpha + 1.0 - n), t, n, where, p)
    return right_riemann_deriv(remainder, b * q, alpha, t, p)

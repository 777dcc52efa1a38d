"""Left and right q-fractional integrals, Riemann and Caputo q-derivatives.

Left operators integrate downward from t on the chain t, tq, tq**2, ...;
right operators integrate upward toward b (or infinity) and evaluate their
operand at shifted points s * q**(1 - alpha), i.e. on a shifted q-grid.
Derivatives of non-integer order compose an exact n-fold q-derivative with a
fractional integral of order n - alpha; integer orders short-circuit to the
plain iterated q-derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from . import special
from .core import (
    QFunction,
    QParams,
    _accumulate,
    _grid_exponent,
    _power,
    _upper_steps,
    nabla_q_n,
    q_integral,
)
from .errors import DomainError

__all__ = [
    "FracOrder",
    "r_coef",
    "left_frac_integral",
    "right_frac_integral",
    "left_riemann_deriv",
    "right_riemann_deriv",
    "left_caputo",
    "right_caputo",
]

OrderLike = Union[float, "FracOrder"]


@dataclass(frozen=True)
class FracOrder:
    """A derivative order alpha > 0 with its ceiling index.

    For non-integer alpha, n = floor(alpha) + 1; exactly integer alpha routes
    operators through their integer-order clause with n = alpha.
    """

    alpha: float
    n: int
    is_integer: bool

    @classmethod
    def of(cls, order: OrderLike) -> "FracOrder":
        if isinstance(order, FracOrder):
            return order
        alpha = float(order)
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise DomainError(f"derivative order must be a finite real > 0, got {alpha}")
        if alpha == round(alpha):
            return cls(alpha, int(round(alpha)), True)
        return cls(alpha, math.floor(alpha) + 1, False)


def r_coef(alpha: float, q: float) -> float:
    """Prefactor q**(-alpha (alpha - 1) / 2) of right-sided operators."""
    return q ** (-0.5 * alpha * (alpha - 1.0))


def _integral_order(order: OrderLike) -> float:
    alpha = order.alpha if isinstance(order, FracOrder) else float(order)
    if not math.isfinite(alpha) or (alpha == round(alpha) and alpha <= 0.0):
        raise DomainError(
            f"fractional integral order must avoid 0, -1, -2, ...; got {alpha}"
        )
    return alpha


_WEIGHT_AT = "{} fractional integral at t={!r}, alpha={!r}, q={!r}"


def _lattice_weights(
    alpha: float, q: float, ratio: float, weight: float = 1.0
) -> Iterator[float]:
    """w_0 = weight, w_{k+1} = w_k * ratio * (1 - q**(alpha+k)) / (1 - q**(k+1)).

    The kernel of a fractional integral over q_gamma(alpha) on the lattice, a
    ratio of q-Pochhammer symbols, so no factorial power is ever rebuilt.
    """
    w = weight
    num = q**alpha
    den = q
    while True:
        yield w
        w *= ratio * (1.0 - num) / (1.0 - den)
        num *= q
        den *= q


def _lattice_series(
    f: QFunction, x: float, upward: bool, alpha: float, weight: float,
    ratio: float, steps: int | None, p: QParams, *, detect_growth: bool = False,
    label: str,
) -> float:
    """sum_k w_k f(x_k) over k < steps, or over all k >= 0 when steps is None.

    The points are x_{k+1} = x_k / q (upward) or x_k * q, and the weights those
    of _lattice_weights(alpha, q, ratio, weight).
    """
    q = p.q
    weights = _lattice_weights(alpha, q, ratio, weight)

    def terms() -> Iterator[float]:
        point = x
        for w in weights if steps is None else itertools.islice(weights, steps):
            yield w * f(point)
            point = point / q if upward else point * q

    return _accumulate(
        terms(), p.trunc, detect_growth=detect_growth, finite=steps is not None, label=label
    )


def left_frac_integral(
    f: QFunction, a: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Left q-fractional integral of order alpha starting at a, evaluated at t.

    (1 / q_gamma(alpha)) * integral_a^t (t - qs)_q^(alpha-1) f(s) nabla_q s.

    When a = 0 or a = t q**m (m >= 0) this is the lattice series
    sum_{i<m} c_i f(t q**i), c_i = ((1-q) t)**alpha q**i (q**alpha; q)_i / (q; q)_i
    (m infinite for a = 0); any other a takes the Jackson sum of the kernel.
    """
    alpha = _integral_order(order)
    q = p.q
    if t > 0.0:
        steps = None if a == 0.0 else _grid_exponent(a / t, q)
        if a == 0.0 or (steps is not None and steps >= 0):
            weight = _power((1.0 - q) * t, alpha, _WEIGHT_AT, "left", t, alpha, q)
            return _lattice_series(
                f, t, False, alpha, weight, q, steps, p,
                label="left fractional integral",
            )

    def integrand(s: float) -> float:
        kernel = special.q_factorial_power(t, q * s, alpha - 1.0, p)
        return kernel * f(s) if kernel != 0.0 else 0.0

    return q_integral(integrand, a, t, p) / special.q_gamma(alpha, p)


def right_frac_integral(
    f: QFunction, b: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Right q-fractional integral of order alpha ending at b, at t.

    r(alpha)/q_gamma(alpha) * integral_t^b (s - t)_q^(alpha-1) f(s q**(1-alpha)) nabla_q s;
    the operand is sampled on the shifted grid s * q**(1 - alpha).  With b
    infinite or b = t q**-m, this is the lattice series sum_{i=1..m} w_i
    f(t q**(1-alpha-i)), w_1 = r(alpha) ((1-q) t)**alpha q**-alpha and
    w_{i+1} = w_i q**-alpha (1 - q**(alpha+i-1)) / (1 - q**i); divergence of
    the infinite series is detected at runtime.  Any other b (b <= 0, NaN, or
    off the grid of t) raises DomainError.
    """
    alpha = _integral_order(order)
    if not t > 0.0:
        raise DomainError(f"right fractional integrals require t > 0, got t={t}")
    q = p.q
    steps = _upper_steps(t, b, q)
    shift = q ** (1.0 - alpha)
    q_neg_alpha = q**-alpha
    weight = r_coef(alpha, q) * q_neg_alpha * _power(
        (1.0 - q) * t, alpha, _WEIGHT_AT, "right", t, alpha, q
    )
    return _lattice_series(
        lambda s: f(s * shift), t / q, True, alpha, weight, q_neg_alpha, steps, p,
        detect_growth=steps is None, label="right fractional integral",
    )


def left_riemann_deriv(
    f: QFunction, a: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Left Riemann q-fractional derivative: nabla_q^n of the (n - alpha)-integral."""
    o = FracOrder.of(order)
    if o.is_integer:
        return nabla_q_n(f, t, o.n, p)
    inner_order = o.n - o.alpha
    return nabla_q_n(
        lambda x: left_frac_integral(f, a, inner_order, x, p), t, o.n, p
    )


def right_riemann_deriv(
    f: QFunction, b: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Right Riemann q-fractional derivative: (-1)**n nabla_q^n of the right integral."""
    o = FracOrder.of(order)
    sign = -1.0 if o.n % 2 else 1.0
    if o.is_integer:
        return sign * nabla_q_n(f, t, o.n, p)
    inner_order = o.n - o.alpha
    return sign * nabla_q_n(
        lambda x: right_frac_integral(f, b, inner_order, x, p), t, o.n, p
    )


def left_caputo(
    f: QFunction, a: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Left Caputo q-fractional derivative: (n - alpha)-integral of nabla_q^n f.

    Kills constants for non-integer order; integer order is the plain n-fold
    q-derivative.
    """
    o = FracOrder.of(order)
    if o.is_integer:
        return nabla_q_n(f, t, o.n, p)
    return left_frac_integral(
        lambda s: nabla_q_n(f, s, o.n, p), a, o.n - o.alpha, t, p
    )


def right_caputo(
    f: QFunction, b: float, order: OrderLike, t: float, p: QParams
) -> float:
    """Right Caputo q-fractional derivative via the compositional definition.

    The right (n - alpha)-integral applied to the n-fold image of f under the
    reflected derivative, which on this scale is -nabla_q.
    """
    o = FracOrder.of(order)
    sign = -1.0 if o.n % 2 else 1.0
    if o.is_integer:
        return sign * nabla_q_n(f, t, o.n, p)
    return right_frac_integral(
        lambda s: sign * nabla_q_n(f, s, o.n, p), b, o.n - o.alpha, t, p
    )

"""q-Mittag-Leffler function and the linear Caputo q-fractional IVP.

Solves, for 0 < alpha <= 1 on the q-grid through a,

    (left Caputo deriv of order alpha of y)(t) = lam * y(t) + f(t),  y(a) = a0,

either in closed form through the q-Mittag-Leffler kernel or by Picard
successive approximation, with a pointwise residual check tying the two back
to the equation itself.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from . import special
from .core import QFunction, QParams, _accumulate, _grid_exponent, _power, count_terms
from .errors import DomainError
from .fractional import (_LEFT_AT, _lattice_weights, _left_series, _start_steps, left_caputo,
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
    not factor into a plain k-th power unless z0 = 0.
    """

    alpha: float
    beta: float = 1.0
    lam: float = 0.0
    z0: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be a finite real > 0, got {self.alpha}")
        if self.z0 < 0.0:
            raise DomainError(f"z0 must be >= 0, got {self.z0}")


def q_mittag_leffler(mp: MLParams, z: float, p: QParams) -> float:
    """Evaluate the q-Mittag-Leffler series at z; divergence detected at runtime.

    The coefficients come from one _ml_ratios column and the sum from
    _ml_sum, for every z0.
    """
    return _ml_sum(_ml_ratios(mp.alpha, mp.beta, mp.lam, p), mp.alpha, z, mp.z0, p)


@dataclass(frozen=True)
class IVProblem:
    """Linear Caputo q-fractional initial value problem on the grid through a."""

    alpha: float
    lam: float
    a: float
    a0: float
    forcing: QFunction | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.a < 0.0:
            raise DomainError(f"a must be >= 0, got {self.a}")


class IVPSolution:
    """Evaluable solution with a method tag and evaluation diagnostics.

    Instances are callable.  Evaluations are memoised in a _Column, keyed by
    the point in closed form (writes are idempotent) and by the lattice cell
    under a lock for Picard, so sharing one across threads is safe.
    """

    def __init__(self, rule: QFunction, method: str, diagnostics: dict) -> None:
        self._rule = rule
        self.method = method
        self.diagnostics = diagnostics

    def __call__(self, t: float) -> float:
        return self._rule(t)

    def __repr__(self) -> str:
        return f"IVPSolution(method={self.method!r})"


class _Column(dict):
    """A memo of fill, as a dict keyed by a lattice cell or a point: fill(key)
    is computed the first time key is read, so each value is computed once and
    only if needed.  On the lattice x_e = base * q**e, e < end (any e if end
    is None), the keys are the cells e and cells(e) walks them upward."""

    __slots__ = ("_fill", "_end")

    def __init__(self, fill: Callable[[float], float], end: int | None = None) -> None:
        super().__init__()
        self._fill = fill
        self._end = end

    def __missing__(self, key: float) -> float:
        value = self[key] = self._fill(key)
        return value

    def cells(self, e: int) -> Iterator[float]:
        """The cells e, e + 1, ... up to end, each computed when reached."""
        indices = itertools.count(e) if self._end is None else range(e, self._end)
        return map(self.__getitem__, indices)


def _ml_ratios(alpha: float, beta: float, lam: float, p: QParams) -> _Column:
    """The q-Mittag-Leffler coefficients c_k = lam**k / q_gamma(alpha k + beta)
    as a _Column of c_0 and the ratios c_k / c_{k-1} (k >= 1).

    Once x = alpha (k - 1) + beta > 0 the ratio is lam times
    q_gamma(x) / q_gamma(x + alpha) = (1-q)**alpha (q**(x+alpha); q)_inf / (q**x; q)_inf,
    one new q-Pochhammer tail per coefficient, and no power of lam or 1 - q
    grows with k.
    """
    step = lam * (1.0 - p.q) ** alpha

    def fill(k: int) -> float:
        x, before = alpha * k + beta, alpha * (k - 1) + beta
        if k == 0:
            return 1.0 / special.q_gamma(x, p)
        if before <= 0.0:
            return lam * special.q_gamma(before, p) / special.q_gamma(x, p)
        tail = special._pochhammer_tail
        return step * tail(x, p) / tail(before, p)

    return _Column(fill)


def _ml_sum(ratios: _Column, alpha: float, z: float, z0: float, p: QParams) -> float:
    """sum_k c_k (z - z0)_q^(alpha k) over the _Column of _ml_ratios.

    Each term is the one before times c_k / c_{k-1} and, by the q-power
    rule, (z - q**(alpha (k-1)) z0)_q^(alpha), which is z**alpha for z0 = 0;
    so neither c_k nor the power is formed apart, and neither overflows on
    long series.
    """
    q = p.q
    steps = (special.q_factorial_power(z, z0 * q ** (alpha * k), alpha, p)
             for k in itertools.count())
    terms = itertools.accumulate(
        map(operator.mul, ratios.cells(1), steps), operator.mul, initial=ratios[0]
    )
    return _accumulate(terms, p.trunc, detect_growth=True,
                       where=("q-Mittag-Leffler at z={!r}, z0={!r}, alpha={!r}, q={!r}",
                              z, z0, alpha, q))


_FORCING_AT = "closed-form forcing term at t={!r}, alpha={!r}, lam={!r}, k={!r}"


def solve_ivp_closed(prob: IVProblem, p: QParams) -> IVPSolution:
    """Closed-form solution: y(t) = a0 E_{alpha,1}(lam, t - a) + forcing term.

    The forcing term integral_a^t (t - qs)_q^(alpha-1) E_{alpha,alpha}(lam,
    t - q**alpha s) f(s) nabla_q s is, by the q-power rule (t - s)_q^(mu)
    (t - q**mu s)_q^(nu) = (t - s)_q^(mu+nu), sum_k lam**k I_a^(alpha(k+1)) f(t).
    I_a^(alpha(k+1)) f(t) is h**(k+1) times the left series of unit weight
    (on the lattice or from an a off the grid of t), h = ((1-q) t)**alpha, so
    term k is z**k, z = lam h, times the series of weight h: z**k falls while
    the sum converges (|z| < 1), where lam**k or Gamma_q(alpha(k+1)) alone
    may overflow.  t < a raises DomainError; y(a) = a0.
    """
    alpha, lam, a, a0 = prob.alpha, prob.lam, prob.a, prob.a0
    q = p.q
    # Every term of the forcing series samples f on the same lattice points.
    forcing = None if prob.forcing is None else _Column(prob.forcing).__getitem__
    ratios = _ml_ratios(alpha, 1.0, lam, p)  # the head's coefficients, once per solution
    diagnostics = {"terms": 0, "evaluations": 0}

    def forcing_terms(t: float) -> Iterator[float]:
        steps = _start_steps(a, t, q)
        h = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        for k in itertools.count():
            yield (_power(lam * h, k, _FORCING_AT, t, alpha, lam, k)
                   * _left_series(forcing, a, alpha * (k + 1), t, steps, h, p))

    def rule(t: float) -> float:
        if not t >= a:
            raise DomainError(f"the closed form needs t >= a, got t={t}, a={a}")
        with count_terms() as counter:
            value = a0 * _ml_sum(ratios, alpha, t, a, p) if a0 != 0.0 else 0.0
            forced = forcing is not None and t > a  # at t = a the integrals are empty
            if forced and lam == 0.0:
                # Every term after the first is 0.0 times an integral.
                value += left_frac_integral(forcing, a, alpha, t, p)
            elif forced:
                value += _accumulate(
                    forcing_terms(t), p.trunc, detect_growth=True,
                    where=("closed-form forcing at t={!r}, alpha={!r}, lam={!r}", t, alpha, lam),
                )
        diagnostics["evaluations"] += 1
        diagnostics["terms"] += counter.total
        return value

    return IVPSolution(_Column(rule).__getitem__, "closed-form", diagnostics)


def solve_ivp_picard(prob: IVProblem, m: int, p: QParams) -> IVPSolution:
    """m-step successive approximation y_k = a0 + lam I^alpha y_{k-1} + I^alpha f.

    By linearity y_m = a0 + d_1 + ... + d_m (summed in that order) with the
    increments d_k = y_k - y_{k-1}:

        d_1 = lam I^alpha a0 + I^alpha f,   d_k = lam I^alpha d_{k-1} (k >= 2).

    Each increment is a column of its values on a lattice x_e = base q**e: the
    time scale a q**e (e <= 0) when a > 0, and for a = 0 the chain t q**e of
    the first point t evaluated on it (a point off every such chain starts its
    own).  A cell of I^alpha g is

        ((1-q) x_e)**alpha sum_i w_i g(x_{e+i}),

    with w_0 = 1 and w_{i+1} = w_i q (1 - q**(alpha+i)) / (1 - q**(i+1)) from
    one weight table per solution; f is sampled once per lattice point.  For
    a > 0 the sum ends at x_{-1} and is summed in full; for a = 0 it is
    infinite and stops by the truncation rule, except for the constant part
    lam I^alpha a0 of d_1, which is lam a0 x**alpha / Gamma_q(alpha + 1)
    with one q_gamma per lattice.  There the increments pay off:
    toward 0, d_k(x) = O(x**(alpha k)) while y_k -> a0, so the terms of the
    sum over d_{k-1} fall like q**(i (1 + alpha (k-1))) instead of q**i, and
    each deeper increment stops after a fraction of the terms and reads that
    many fewer cells below it.  Cells are computed when first needed and
    shared by every later evaluation on the lattice; diagnostics count the
    integrals of the increment and forcing cells ("evaluations") and their
    terms.  With a > 0, a point t off the time scale raises DomainError, as
    does t < a; y(a) = a0.
    """
    if m < 0:
        raise DomainError(f"iteration count must be >= 0, got {m}")
    alpha, lam, a, a0, f = prob.alpha, prob.lam, prob.a, prob.a0, prob.forcing
    q, trunc = p.q, p.trunc
    diagnostics = {"terms": 0, "evaluations": 0, "iterations": m}
    source = _lattice_weights(alpha, q, q)
    # Cells are read in order 0, 1, ..., so fill(i) is the i-th weight.
    weights = _Column(lambda i: next(source))

    def lattice(base: float, end: int | None) -> Callable[[int], float]:
        """Iterate m on x_e = base q**e, over the increment columns below it."""

        def integral(column: _Column, e: int) -> float:
            """I^alpha of column at x_e; one per increment or forcing cell."""
            x = base * q**e
            where = (_LEFT_AT, x, a, alpha, q)
            scale = _power((1.0 - q) * x, alpha, *where)
            value = scale * _accumulate(
                map(operator.mul, weights.cells(0), column.cells(e)), trunc,
                finite=end is not None, scale=scale, where=where,
            )
            diagnostics["evaluations"] += 1
            return value

        if end is None:  # from a = 0, I^alpha a0 is a0 x**alpha / Gamma_q(alpha + 1)
            ramp = lam * a0 / special.q_gamma(alpha + 1.0, p)
            constant = lambda e: ramp * (base * q**e) ** alpha
        else:
            initial = _Column(lambda e: a0, end)
            constant = lambda e: lam * integral(initial, e)
        samples = None if f is None else _Column(lambda e: f(base * q**e), end)

        def first(e: int) -> float:
            value = constant(e)
            return value if samples is None else value + integral(samples, e)

        increments = [_Column(first, end)] if m else []
        for _ in range(m - 1):
            increments.append(_Column(
                lambda e, prev=increments[-1]: lam * integral(prev, e), end
            ))

        def iterate(e: int) -> float:
            value = a0
            for increment in increments:
                value += increment[e]
            return value

        return iterate

    lattices = [(a, lattice(a, 0))] if a > 0.0 else []
    lock = threading.RLock()  # columns are shared state

    def rule(t: float) -> float:
        if not t >= a:
            raise DomainError(f"Picard iterates need t >= a, got t={t}, a={a}")
        if t == 0.0:  # t = a = 0, where no lattice passes
            return a0
        with lock:
            with count_terms() as counter:  # a new lattice's q_gamma counts too
                for base, top in lattices:
                    e = _grid_exponent(t / base, q)
                    if e is not None:
                        break
                else:
                    if a > 0.0:
                        raise DomainError(
                            f"with a > 0, Picard iterates live on the time scale "
                            f"a q**-j; t={t} is not on it (a={a})"
                        )
                    top, e = lattice(t, None), 0
                    lattices.append((t, top))
                value = top(e)
            diagnostics["terms"] += counter.total
            return value

    return IVPSolution(rule, f"picard({m})", diagnostics)


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

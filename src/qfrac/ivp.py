"""q-Mittag-Leffler function and the linear Caputo q-fractional IVP.

Solves, for 0 < alpha <= 1 on the q-grid through a,

    (left Caputo deriv of order alpha of y)(t) = lam * y(t) + f(t),  y(a) = a0,

in closed form through the q-Mittag-Leffler kernel, or by m steps of Picard
successive approximation, which are that series cut after m terms; a
pointwise residual check ties the solutions back to the equation itself.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from . import special
from .core import QFunction, QParams, _accumulate, _power, count_terms
from .errors import DomainError
from .fractional import (_LEFT_AT, _left_series, _start_steps, left_caputo,
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

    Instances are callable.  Values of rule are memoised in a _Column keyed
    by the point, under a lock, so threads sharing one compute each point once.
    """

    def __init__(self, rule: QFunction, method: str, diagnostics: dict) -> None:
        self._memo, self._lock = _Column(rule), threading.Lock()
        self.method = method
        self.diagnostics = diagnostics

    def __call__(self, t: float) -> float:
        with self._lock:  # the memo and the diagnostics that rule keeps
            return self._memo[t]

    def __repr__(self) -> str:
        return f"IVPSolution(method={self.method!r})"


class _Column(dict):
    """A memo of fill, as a dict keyed by a point or a cell k: fill(key) is
    computed the first time key is read, so each value is computed once and
    only if needed."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable[[float], float]) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key: float) -> float:
        value = self[key] = self._fill(key)
        return value

    def cells(self, k: int) -> Iterator[float]:
        """The cells k, k + 1, ..., each computed when reached."""
        return map(self.__getitem__, itertools.count(k))


def _sum(terms: Iterator[float], count: int | None, p: QParams, where: tuple) -> float:
    """Sum under the stopping rule, watched for growth, or the first count terms in full."""
    if count is None:
        return _accumulate(terms, p.trunc, detect_growth=True, where=where)
    return _accumulate(itertools.islice(terms, count), p.trunc, finite=True, where=where)


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


def _ml_sum(ratios: _Column, alpha: float, z: float, z0: float, p: QParams,
            count: int | None = None) -> float:
    """sum_k c_k (z - z0)_q^(alpha k) over the _Column of _ml_ratios, over
    k < count if count is given (see _sum).

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
    return _sum(terms, count, p,
                ("q-Mittag-Leffler at z={!r}, z0={!r}, alpha={!r}, q={!r}", z, z0, alpha, q))


_FORCING_AT = "forcing term at t={!r}, alpha={!r}, lam={!r}, k={!r}"


def _series_solution(prob: IVProblem, m: int | None, p: QParams) -> IVPSolution:
    """The closed form's series (see solve_ivp_closed), summed to the stopping
    rule for m None, else cut after m terms: the m-th Picard iterate."""
    alpha, lam, a, a0 = prob.alpha, prob.lam, prob.a, prob.a0
    q = p.q
    # Every term of the forcing series samples f on the same lattice points.
    forcing = None if prob.forcing is None else _Column(prob.forcing).__getitem__
    ratios = _ml_ratios(alpha, 1.0, lam, p)  # the head's coefficients, once per solution
    head_terms = None if m is None else m + 1
    diagnostics = {"terms": 0, "evaluations": 0}

    def forcing_terms(t: float, steps: int | None) -> Iterator[float]:
        h = _power((1.0 - q) * t, alpha, _LEFT_AT, t, a, alpha, q)
        for k in itertools.count():
            yield (_power(lam * h, k, _FORCING_AT, t, alpha, lam, k)
                   * _left_series(forcing, a, alpha * (k + 1), t, steps, h, p))

    def rule(t: float) -> float:
        if not t >= a:
            raise DomainError(f"the solution needs t >= a, got t={t}, a={a}")
        steps = _start_steps(a, t, q)
        if m is not None and a > 0.0 and steps == -1:
            raise DomainError(f"with a > 0, Picard iterates live on the time scale "
                              f"a q**-j; t={t} is not on it (a={a})")
        with count_terms() as counter:
            value = a0 * _ml_sum(ratios, alpha, t, a, p, head_terms) if a0 != 0.0 else 0.0
            # At t = a the integrals are empty; Picard(0) has no forcing term.
            forced = forcing is not None and t > a and m != 0
            if forced and lam == 0.0:
                # Every term after the first is 0.0 times an integral.
                value += left_frac_integral(forcing, a, alpha, t, p)
            elif forced:
                value += _sum(forcing_terms(t, steps), m, p,
                              ("forcing at t={!r}, alpha={!r}, lam={!r}", t, alpha, lam))
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
    term k is z**k, z = lam h, times the series of weight h: z**k falls while
    the sum converges (|z| < 1), where lam**k or Gamma_q(alpha(k+1)) alone
    may overflow.  Terms that grow raise NonConvergence.  t < a raises
    DomainError; y(a) = a0.
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

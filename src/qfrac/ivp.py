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
from dataclasses import dataclass
from functools import cache

from . import special
from .core import QFunction, QParams, _accumulate, count_terms
from .errors import DomainError
from .fractional import left_caputo, left_frac_integral

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
    """Evaluate the q-Mittag-Leffler series at z; divergence detected at runtime."""

    def terms():
        k = 0
        lam_pow = 1.0
        while True:
            power = special.q_factorial_power(z, mp.z0, mp.alpha * k, p)
            yield lam_pow * power / special.q_gamma(mp.alpha * k + mp.beta, p)
            k += 1
            lam_pow *= mp.lam

    return _accumulate(terms(), p.trunc, detect_growth=True, label="q-Mittag-Leffler")


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

    Instances are callable; evaluations are memoised per point, so sharing one
    across threads is safe (cache writes are idempotent).
    """

    def __init__(self, rule: QFunction, method: str, diagnostics: dict) -> None:
        self._rule = rule
        self.method = method
        self.diagnostics = diagnostics

    def __call__(self, t: float) -> float:
        return self._rule(t)

    def __repr__(self) -> str:
        return f"IVPSolution(method={self.method!r})"


def _memoised(rule: QFunction, diagnostics: dict) -> QFunction:
    @cache
    def wrapped(t: float) -> float:
        with count_terms() as counter:
            value = rule(t)
        diagnostics["evaluations"] += 1
        diagnostics["terms"] += counter.total
        return value

    return wrapped


def solve_ivp_closed(prob: IVProblem, p: QParams) -> IVPSolution:
    """Closed-form solution: y(t) = a0 E_{alpha,1}(lam, t - a) + forcing term.

    The forcing term integral_a^t (t - qs)_q^(alpha-1) E_{alpha,alpha}(lam,
    t - q**alpha s) f(s) nabla_q s is, by the q-power rule (t - s)_q^(mu)
    (t - q**mu s)_q^(nu) = (t - s)_q^(mu+nu), sum_k lam**k I_a^(alpha(k+1)) f(t).
    """
    alpha, lam, a, a0 = prob.alpha, prob.lam, prob.a, prob.a0
    # Every term of the forcing series samples f on the same lattice points.
    forcing = None if prob.forcing is None else cache(prob.forcing)
    head_params = MLParams(alpha, 1.0, lam, z0=a)
    diagnostics = {"terms": 0, "evaluations": 0}

    def rule(t: float) -> float:
        value = a0 * q_mittag_leffler(head_params, t, p) if a0 != 0.0 else 0.0
        if forcing is not None:
            value += _accumulate(
                (lam**k * left_frac_integral(forcing, a, alpha * (k + 1), t, p)
                 for k in itertools.count()),
                p.trunc, detect_growth=True, label="closed-form forcing",
            )
        return value

    return IVPSolution(_memoised(rule, diagnostics), "closed-form", diagnostics)


def solve_ivp_picard(prob: IVProblem, m: int, p: QParams) -> IVPSolution:
    """m-step successive approximation y_k = a0 + lam I^alpha y_{k-1} + I^alpha f.

    Every fractional integral is evaluated numerically from the previous
    iterate; iterates are memoised per evaluation point, so nested Jackson
    chains are shared instead of recomputed.
    """
    if m < 0:
        raise DomainError(f"iteration count must be >= 0, got {m}")
    alpha, lam, a, a0 = prob.alpha, prob.lam, prob.a, prob.a0
    diagnostics = {"terms": 0, "evaluations": 0, "iterations": m}

    forcing_term: QFunction | None = None
    if prob.forcing is not None:
        forcing = prob.forcing
        forcing_term = _memoised(
            lambda t: left_frac_integral(forcing, a, alpha, t, p), diagnostics
        )

    def constant(_: float) -> float:
        return a0

    iterate: QFunction = constant
    for _ in range(m):
        previous = iterate

        def level(t: float, prev: QFunction = previous) -> float:
            value = a0 + lam * left_frac_integral(prev, a, alpha, t, p)
            if forcing_term is not None:
                value += forcing_term(t)
            return value

        iterate = _memoised(level, diagnostics)

    return IVPSolution(iterate, f"picard({m})", diagnostics)


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

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
from functools import cache
from typing import Callable, Iterator

from . import special
from .core import QFunction, QParams, _accumulate, _grid_exponent, _power, count_terms
from .errors import DomainError
from .fractional import _WEIGHT_AT, _lattice_weights, left_caputo, left_frac_integral

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

    Instances are callable.  Evaluations are memoised: per point in closed
    form (cache writes are idempotent), per lattice cell under a lock for
    Picard, so sharing one across threads is safe.
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
            # With lam = 0 every term after the first is 0.0 times an integral.
            ks = range(1) if lam == 0.0 else itertools.count()
            value += _accumulate(
                (lam**k * left_frac_integral(forcing, a, alpha * (k + 1), t, p)
                 for k in ks),
                p.trunc, detect_growth=True, label="closed-form forcing",
            )
        return value

    return IVPSolution(_memoised(rule, diagnostics), "closed-form", diagnostics)


class _Column:
    """A function on the lattice x_e = base * q**e, e < end (any e if end is
    None), kept as runs of consecutive cells.  fill(e) computes a cell the
    first time it is read, so each cell is computed once and only if needed."""

    __slots__ = ("_fill", "_end", "_runs")

    def __init__(self, fill: Callable[[int], float], end: int | None) -> None:
        self._fill = fill
        self._end = end
        self._runs: dict[int, list[float]] = {}  # first index -> its run

    def at(self, e: int) -> float:
        start, run = self._run(e)
        return run[e - start]

    def cells(self, e: int) -> Iterator[float]:
        """The cells e, e + 1, ... up to end, each computed when reached."""
        return itertools.chain.from_iterable(self._pieces(e))

    def _pieces(self, e: int) -> Iterator[list[float]]:
        while e != self._end:
            start, run = self._run(e)
            piece = run[e - start:]
            yield piece
            e += len(piece)

    def _run(self, e: int) -> tuple[int, list[float]]:
        """The run holding cell e, which is computed and stored if missing."""
        runs = self._runs
        for start, run in runs.items():
            if 0 <= e - start < len(run):
                return start, run
        value = self._fill(e)
        for start, run in runs.items():
            if start + len(run) == e:
                run.append(value)
                break
        else:
            start, run = e, [value]
            runs[e] = run
        following = runs.pop(e + 1, None)
        if following is not None:
            run += following
        return start, run


def solve_ivp_picard(prob: IVProblem, m: int, p: QParams) -> IVPSolution:
    """m-step successive approximation y_k = a0 + lam I^alpha y_{k-1} + I^alpha f.

    Each iterate is a column of its values on a lattice x_e = base q**e: the
    time scale a q**e (e <= 0) when a > 0, and for a = 0 the chain t q**e of
    the first point t evaluated on it (a point off every such chain starts its
    own).  A cell of iterate k is

        a0 + lam ((1-q) x_e)**alpha sum_i w_i y_{k-1}(x_{e+i}) + I^alpha f(x_e),

    with w_0 = 1 and w_{i+1} = w_i q (1 - q**(alpha+i)) / (1 - q**(i+1)) from
    one weight table per solution, and I^alpha f a column of the same sums
    over f, sampled once per lattice point.  For a > 0 the sum ends at x_{-1}
    and is summed in full; for a = 0 it is infinite and stops by the
    truncation rule.  Cells are computed when first needed and shared by every
    later evaluation on the lattice.  With a > 0, a point t off the time scale
    raises DomainError, as does t < a; y(a) = a0.
    """
    if m < 0:
        raise DomainError(f"iteration count must be >= 0, got {m}")
    alpha, lam, a, a0, f = prob.alpha, prob.lam, prob.a, prob.a0, prob.forcing
    q, trunc = p.q, p.trunc
    diagnostics = {"terms": 0, "evaluations": 0, "iterations": m}
    source = _lattice_weights(alpha, q, q)
    # Cells are read in order 0, 1, ..., so fill(i) is the i-th weight.
    weights = _Column(lambda i: next(source), None)

    def lattice(base: float, end: int | None) -> _Column:
        """Iterate m on x_e = base q**e, over the columns below it."""

        def integral(column: _Column, e: int) -> float:
            """I^alpha of column at x_e; one per iterate or forcing cell."""
            x = base * q**e
            scale = _power((1.0 - q) * x, alpha, _WEIGHT_AT, "left", x, alpha, q)
            value = scale * _accumulate(
                map(operator.mul, weights.cells(0), column.cells(e)), trunc,
                finite=end is not None, scale=scale, label="left fractional integral",
            )
            diagnostics["evaluations"] += 1
            return value

        level = _Column(lambda e: a0, end)
        forcing = None
        if f is not None:
            samples = _Column(lambda e: f(base * q**e), end)
            forcing = _Column(lambda e: integral(samples, e), end)
        for _ in range(m):

            def iterate(e: int, prev: _Column = level) -> float:
                value = a0 + lam * integral(prev, e)
                return value if forcing is None else value + forcing.at(e)

            level = _Column(iterate, end)
        return level

    lattices = [(a, lattice(a, 0))] if a > 0.0 else []
    lock = threading.RLock()  # columns are shared state

    def rule(t: float) -> float:
        if not t >= a:
            raise DomainError(f"Picard iterates need t >= a, got t={t}, a={a}")
        if t == 0.0:  # t = a = 0, where no lattice passes
            return a0
        with lock:
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
            with count_terms() as counter:
                value = top.at(e)
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

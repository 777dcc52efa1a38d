"""Identity suites: every proved formula of the calculus as a numeric record.

Each record compares two independently computed routes to the same quantity
and stores the floored relative error |lhs - rhs| / max(|lhs|, |rhs|, 1),
which reduces to an absolute error for small values.  Suites are fully
deterministic: random sweeps come from a fixed linear-congruential generator
(Knuth MMIX constants, documented in the README) seeded by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import special
from .core import (
    QFunction,
    QParams,
    Truncation,
    count_terms,
    nabla_q,
    nabla_q_n,
    q_bracket,
    q_integral,
    q_integral_tail,
)
from .errors import QCalculusError
from .fractional import (
    left_caputo,
    left_frac_integral,
    left_riemann_deriv,
    r_coef,
    right_caputo,
    right_frac_integral,
    right_riemann_deriv,
)
from .ivp import (
    IVProblem,
    MLParams,
    ivp_residual,
    q_mittag_leffler,
    solve_ivp_closed,
    solve_ivp_picard,
)

__all__ = [
    "Lcg",
    "IdentityRecord",
    "CheckReport",
    "ExploreRecord",
    "SUITE_NAMES",
    "run_suite",
    "explore_finite_right_semigroup",
    "default_explore_grid",
]

INF = math.inf

SUITE_NAMES = ("core", "special", "frac", "ivp")

_Q_SWEEP = (0.3, 0.5, 0.8)
_Q_SWEEP_GAMMA = (0.3, 0.5, 0.9)

# Polynomial test family; decaying powers cover the infinite-tail operators.
_POLYS: dict[str, QFunction] = {
    "1": lambda s: 1.0,
    "t": lambda s: s,
    "t^2": lambda s: s * s,
    "t+t^2": lambda s: s + s * s,
}
_INV_SQUARE: QFunction = lambda s: s**-2.0
_INV_QUARTIC: QFunction = lambda s: s**-4.0


class Lcg:
    """64-bit linear congruential generator (Knuth MMIX multiplier/increment).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64;
    uniforms are state / 2**64.  Chosen over the stdlib RNG so reports are
    bit-reproducible across platforms and Python versions.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self._MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self._MASK
        return self.state

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self._step() / 2.0**64)

    def away_from_integers(self, lo: float, hi: float, radius: float = 0.1) -> float:
        """Uniform draw at least `radius` away from every integer (pole safety)."""
        while True:
            x = self.uniform(lo, hi)
            if abs(x - round(x)) >= radius:
                return x


@dataclass
class IdentityRecord:
    identity: str
    params: dict
    lhs: float = math.nan
    rhs: float = math.nan
    rel_err: float = math.nan
    tolerance: float = math.nan
    passed: bool = False
    terms: int = 0
    error: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rel_err": self.rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "terms": self.terms,
            "error": self.error,
        }


@dataclass
class CheckReport:
    suite: str
    seed: int
    truncation: Truncation
    records: list[IdentityRecord] = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.records)

    @property
    def has_errors(self) -> bool:
        return any(r.error is not None for r in self.records)

    def to_json_obj(self) -> dict:
        # The wall-clock duration is deliberately omitted so identical seeds
        # produce byte-identical reports.
        return {
            "suite": self.suite,
            "seed": self.seed,
            "truncation": {
                "rel_tol": self.truncation.rel_tol,
                "abs_tol": self.truncation.abs_tol,
                "max_terms": self.truncation.max_terms,
                "consecutive_small": self.truncation.consecutive_small,
            },
            "n_records": len(self.records),
            "n_failed": self.n_failed,
            "passed": self.passed,
            "records": [r.to_json_obj() for r in self.records],
        }


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _captured(rec: IdentityRecord, compute: Callable[[], None]) -> bool:
    """Run compute() under a term counter whose total goes to rec.terms.

    A numeric failure, from this package or from float arithmetic, becomes
    rec.error and gives False, so one bad record never aborts its suite.
    """
    with count_terms() as counter:
        try:
            compute()
        except (QCalculusError, ArithmeticError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        finally:
            rec.terms = counter.total
    return rec.error is None


def _record(
    identity: str,
    params: dict,
    lhs_fn: Callable[[], float],
    rhs_fn: Callable[[], float],
    tolerance: float,
) -> IdentityRecord:
    rec = IdentityRecord(identity=identity, params=params, tolerance=tolerance)

    def compute() -> None:
        rec.lhs = lhs_fn()
        rec.rhs = rhs_fn()

    if _captured(rec, compute):
        rec.rel_err = _rel_err(rec.lhs, rec.rhs)
        rec.passed = rec.rel_err <= rec.tolerance
    return rec


def _memo(fn: QFunction) -> QFunction:
    cache: dict[float, float] = {}

    def wrapped(x: float) -> float:
        v = cache.get(x)
        if v is None:
            v = fn(x)
            cache[x] = v
        return v

    return wrapped


def _grid_desc(q: float, depth: int = 6) -> list[float]:
    """[1, q, q^2, ...] built by successive multiplication so nested Jackson
    chains land on bitwise-identical points and memo caches actually hit."""
    grid = [1.0]
    for _ in range(depth):
        grid.append(grid[-1] * q)
    return grid


# ---------------------------------------------------------------------------
# core suite

def _core_records(seed: int, trunc: Truncation) -> Iterator[IdentityRecord]:
    rng = Lcg(seed)
    ft_tol = 10.0 * trunc.rel_tol
    for q in _Q_SWEEP:
        p = QParams(q, trunc)
        exp_rule = _memo(lambda s, p=p: special.q_exp_e(s, p))
        families: list[tuple[str, QFunction, range]] = [
            (name, f, range(-5, 11)) for name, f in _POLYS.items()
        ]
        # e_q only converges for |t| < 1/(1-q), so its sweep stays at t <= 1.
        families.append(("e_q", exp_rule, range(0, 11)))
        for name, f, exponents in families:
            for n in exponents:
                t = q**n
                yield _record(
                    "fundamental_theorem",
                    {"q": q, "f": name, "t": t},
                    lambda f=f, t=t, p=p: nabla_q(
                        lambda x: q_integral(f, 0.0, x, p), t, p
                    ),
                    lambda f=f, t=t: f(t),
                    ft_tol,
                )
        for name, f in _POLYS.items():
            for n in range(-5, 11):
                t = q**n
                yield _record(
                    "integral_of_derivative",
                    {"q": q, "f": name, "t": t},
                    lambda f=f, t=t, p=p: q_integral(
                        lambda s: nabla_q(f, s, p), 0.0, t, p
                    ),
                    lambda f=f, t=t: f(t) - f(0.0),
                    ft_tol,
                )
        # Product rule is exact algebra; check it on arbitrary sampled values.
        for n in (-2, 0, 3):
            t = q**n
            samples = {
                x: (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                for x in (t, q * t, q * q * t)
            }
            f = lambda x, s=samples: s[x][0]
            g = lambda x, s=samples: s[x][1]
            yield _record(
                "product_rule",
                {"q": q, "t": t},
                lambda f=f, g=g, t=t, p=p: nabla_q(lambda x: f(x) * g(x), t, p),
                lambda f=f, g=g, t=t, p=p: f(q * t) * nabla_q(g, t, p)
                + nabla_q(f, t, p) * g(t),
                1e-13,
            )
        grid = _grid_desc(q)
        for j in range(3):
            for k in range(3):
                f2 = lambda tt, ss, j=j, k=k: tt**j * ss**k
                df2 = lambda tt, ss, f2=f2, q=q: (f2(tt, ss) - f2(q * tt, ss)) / (
                    (1.0 - q) * tt
                )
                for a in (0.0, grid[3]):
                    t = grid[1]
                    yield _record(
                        "diff_under_integral_variable_upper",
                        {"q": q, "j": j, "k": k, "a": a, "t": t},
                        lambda f2=f2, a=a, t=t, p=p: nabla_q(
                            lambda x: q_integral(lambda s: f2(x, s), a, x, p), t, p
                        ),
                        lambda f2=f2, df2=df2, a=a, t=t, p=p, q=q: q_integral(
                            lambda s: df2(t, s), a, t, p
                        )
                        + f2(q * t, t),
                        ft_tol,
                    )
                b = q**-2
                t = grid[1]
                yield _record(
                    "diff_under_integral_variable_lower",
                    {"q": q, "j": j, "k": k, "b": b, "t": t},
                    lambda f2=f2, b=b, t=t, p=p: nabla_q(
                        lambda x: q_integral_tail(lambda s: f2(x, s), x, b, p), t, p
                    ),
                    lambda f2=f2, df2=df2, b=b, t=t, p=p, q=q: q_integral_tail(
                        lambda s: df2(t, s), q * t, b, p
                    )
                    - f2(t, t),
                    ft_tol,
                )
        f = _POLYS["t+t^2"]
        for (ia, ib, ic) in ((4, 2, 0), (3, 1, 0), (5, 3, 1)):
            a, b, c = grid[ia], grid[ib], grid[ic]
            yield _record(
                "integral_additivity",
                {"q": q, "a": a, "b": b, "t": c},
                lambda a=a, c=c, p=p: q_integral(f, a, c, p),
                lambda a=a, b=b, c=c, p=p: q_integral(f, a, b, p)
                + q_integral(f, b, c, p),
                1e-13,
            )
        c1 = rng.uniform(-2.0, 2.0)
        c2 = rng.uniform(-2.0, 2.0)
        # Unlike additivity, the two routes truncate at different indices, so
        # the comparison carries a truncation-tail budget, not a rounding one.
        yield _record(
            "integral_linearity",
            {"q": q, "t": 1.0},
            lambda p=p, c1=c1, c2=c2: q_integral(
                lambda s: c1 * s + c2 * s * s, 0.0, 1.0, p
            ),
            lambda p=p, c1=c1, c2=c2: c1 * q_integral(lambda s: s, 0.0, 1.0, p)
            + c2 * q_integral(lambda s: s * s, 0.0, 1.0, p),
            ft_tol,
        )


# ---------------------------------------------------------------------------
# special suite

def _special_records(seed: int, trunc: Truncation) -> Iterator[IdentityRecord]:
    rng = Lcg(seed)
    for q in _Q_SWEEP_GAMMA:
        p = QParams(q, trunc)
        t = 1.0
        for m in range(1, 6):
            s = q**m
            for _ in range(3):
                while True:
                    beta = rng.away_from_integers(-1.5, 2.5)
                    gam = rng.away_from_integers(-1.5, 2.5)
                    if abs((beta + gam) - round(beta + gam)) >= 0.1:
                        break
                yield _record(
                    "factorial_split",
                    {"q": q, "m": m, "beta": beta, "gamma": gam},
                    lambda s=s, beta=beta, gam=gam, p=p: special.q_factorial_power(
                        t, s, beta + gam, p
                    ),
                    lambda s=s, beta=beta, gam=gam, p=p, q=q: special.q_factorial_power(
                        t, s, beta, p
                    )
                    * special.q_factorial_power(t, q**beta * s, gam, p),
                    1e-9,
                )
                for scale in (q * q, q, 2.0):
                    yield _record(
                        "factorial_scaling",
                        {"q": q, "m": m, "beta": beta, "scale": scale},
                        lambda s=s, beta=beta, scale=scale, p=p: special.q_factorial_power(
                            scale * t, scale * s, beta, p
                        ),
                        lambda s=s, beta=beta, scale=scale, p=p: scale**beta
                        * special.q_factorial_power(t, s, beta, p),
                        1e-9,
                    )
                alpha = abs(beta) + 0.15
                yield _record(
                    "factorial_derivative_in_t",
                    {"q": q, "m": m, "alpha": alpha},
                    lambda s=s, alpha=alpha, p=p: nabla_q(
                        lambda x: special.q_factorial_power(x, s, alpha, p), t, p
                    ),
                    lambda s=s, alpha=alpha, p=p: q_bracket(alpha, p)
                    * special.q_factorial_power(t, s, alpha - 1.0, p),
                    1e-9,
                )
                yield _record(
                    "factorial_derivative_in_s",
                    {"q": q, "m": m, "alpha": alpha},
                    lambda s=s, alpha=alpha, p=p: nabla_q(
                        lambda x: special.q_factorial_power(t, x, alpha, p), s, p
                    ),
                    lambda s=s, alpha=alpha, p=p, q=q: -q_bracket(alpha, p)
                    * special.q_factorial_power(t, q * s, alpha - 1.0, p),
                    1e-9,
                )
        for alpha in (0.3, 0.5, 1.7, 2.4):
            yield _record(
                "gamma_recurrence",
                {"q": q, "alpha": alpha},
                lambda alpha=alpha, p=p: special.q_gamma(alpha + 1.0, p),
                lambda alpha=alpha, p=p: q_bracket(alpha, p) * special.q_gamma(alpha, p),
                1e-10,
            )
        # (t - r)_q^m must vanish identically, not approximately.
        for j in (1, 2, 4):
            for m in (j + 1, j + 3):
                r = t / q**j
                yield _record(
                    "factorial_vanishing",
                    {"q": q, "j": j, "m": m},
                    lambda r=r, m=m, p=p: special.q_factorial_power(t, r, float(m), p),
                    lambda: 0.0,
                    0.0,
                )
    for q in _Q_SWEEP:
        p = QParams(q, trunc)
        for t in (0.1, 0.5, 0.9):
            yield _record(
                "exp_identity",
                {"q": q, "t": t},
                lambda t=t, p=p: special.q_exp_e(t, p),
                lambda t=t, p=p, q=q: special.q_exp_E((1.0 - q) * t, p),
                1e-10,
            )


# ---------------------------------------------------------------------------
# frac suite

def _frac_records(seed: int, trunc: Truncation) -> Iterator[IdentityRecord]:
    for q in _Q_SWEEP:
        p = QParams(q, trunc)
        grid = _grid_desc(q)
        ts = [grid[3], grid[2], grid[1], grid[0]]

        # Power rule: the workhorse behind the linear solver.
        for a in (0.0, grid[3]):
            for mu in (0.0, 0.5, 1.0, 2.0):
                fmu = lambda s, a=a, mu=mu, p=p: special.q_factorial_power(s, a, mu, p)
                for alpha in (0.5, 1.0, 1.7):
                    for t in (grid[2], grid[1], grid[0]):
                        if t <= a:
                            continue
                        yield _record(
                            "power_rule",
                            {"q": q, "a": a, "mu": mu, "alpha": alpha, "t": t},
                            lambda fmu=fmu, a=a, alpha=alpha, t=t, p=p: left_frac_integral(
                                fmu, a, alpha, t, p
                            ),
                            lambda a=a, mu=mu, alpha=alpha, t=t, p=p: special.q_gamma(
                                mu + 1.0, p
                            )
                            / special.q_gamma(alpha + mu + 1.0, p)
                            * special.q_factorial_power(t, a, mu + alpha, p),
                            1e-8,
                        )

        orders = (0.4, 0.9, 1.3)
        for a in (0.0, grid[3]):
            for name, f in _POLYS.items():
                inner = {
                    alpha: _memo(
                        lambda x, f=f, a=a, alpha=alpha, p=p: left_frac_integral(
                            f, a, alpha, x, p
                        )
                    )
                    for alpha in orders
                }
                for alpha in orders:
                    for beta in orders:
                        for t in ts:
                            if t <= a:
                                continue
                            yield _record(
                                "left_semigroup",
                                {"q": q, "a": a, "f": name, "alpha": alpha,
                                 "beta": beta, "t": t},
                                lambda inner=inner, a=a, alpha=alpha, beta=beta, t=t, p=p:
                                left_frac_integral(inner[alpha], a, beta, t, p),
                                lambda f=f, a=a, alpha=alpha, beta=beta, t=t, p=p:
                                left_frac_integral(f, a, alpha + beta, t, p),
                                1e-6,
                            )
                for n in (1, 2):
                    for t in ts:
                        if t <= a:
                            continue
                        yield _record(
                            "cauchy_reduction",
                            {"q": q, "a": a, "f": name, "n": n, "t": t},
                            lambda f=f, a=a, n=n, t=t, p=p: nabla_q_n(
                                lambda x: left_frac_integral(f, a, float(n), x, p),
                                t, n, p,
                            ),
                            lambda f=f, t=t: f(t),
                            1e-6,
                        )

        # Right-sided reductions on decaying operands (b = infinity).
        for n, fdec, fname in ((1, _INV_SQUARE, "s^-2"), (2, _INV_QUARTIC, "s^-4")):
            for t in ts:
                yield _record(
                    "right_inverse_reduction",
                    {"q": q, "n": n, "f": fname, "t": t},
                    lambda fdec=fdec, n=n, t=t, p=p: nabla_q_n(
                        lambda x: right_frac_integral(fdec, INF, float(n), x, p),
                        t, n, p,
                    ),
                    lambda fdec=fdec, n=n, t=t: (-1.0) ** n * fdec(t),
                    1e-8,
                )
        for alpha in orders:
            for beta in orders:
                heavy = alpha + beta >= 2.0
                fdec, fname = (_INV_QUARTIC, "s^-4") if heavy else (_INV_SQUARE, "s^-2")
                for t in ts:
                    yield _record(
                        "right_semigroup_infinite",
                        {"q": q, "alpha": alpha, "beta": beta, "f": fname, "t": t},
                        lambda fdec=fdec, alpha=alpha, beta=beta, t=t, p=p:
                        right_frac_integral(
                            lambda x: right_frac_integral(fdec, INF, alpha, x, p),
                            INF, beta, t, p,
                        ),
                        lambda fdec=fdec, alpha=alpha, beta=beta, t=t, p=p:
                        right_frac_integral(fdec, INF, alpha + beta, t, p),
                        1e-6,
                    )

        # Orthogonality of the outer-tail range to an operand supported below
        # b q**(1-alpha): every summand vanishes identically, so exact zero.
        for alpha, beta in ((0.5, 0.7), (1.3, 0.4)):
            yield _vanishing_above_record(q, alpha, beta, p)

        for alpha in orders:
            for a in (0.0, grid[3]):
                for name, f in _POLYS.items():
                    for t in ts:
                        if t <= a:
                            continue
                        yield _record(
                            "left_transfer_first_order",
                            {"q": q, "alpha": alpha, "a": a, "f": name, "t": t},
                            lambda f=f, a=a, alpha=alpha, t=t, p=p: left_frac_integral(
                                lambda s: nabla_q(f, s, p), a, alpha, t, p
                            ),
                            lambda f=f, a=a, alpha=alpha, t=t, p=p: nabla_q(
                                lambda x: left_frac_integral(f, a, alpha, x, p), t, p
                            )
                            - special.q_factorial_power(t, a, alpha - 1.0, p)
                            * f(a)
                            / special.q_gamma(alpha, p),
                            1e-6,
                        )
        # Iterated transfer needs nabla^k f at the base point, so a > 0.
        for alpha in (1.5, 2.3):
            a = grid[3]
            for name, f in _POLYS.items():
                for t in ts:
                    if t <= a:
                        continue
                    yield _record(
                        "left_transfer_iterated",
                        {"q": q, "alpha": alpha, "a": a, "f": name, "t": t, "p_fold": 2},
                        lambda f=f, a=a, alpha=alpha, t=t, p=p: left_frac_integral(
                            lambda s: nabla_q_n(f, s, 2, p), a, alpha, t, p
                        ),
                        lambda f=f, a=a, alpha=alpha, t=t, p=p: nabla_q_n(
                            lambda x: left_frac_integral(f, a, alpha, x, p), t, 2, p
                        )
                        - sum(
                            special.q_factorial_power(t, a, alpha - 2.0 + k, p)
                            / special.q_gamma(alpha + k - 1.0, p)
                            * nabla_q_n(f, a, k, p)
                            for k in range(2)
                        ),
                        1e-6,
                    )
        for alpha in orders:
            for bexp in (0, -2):
                b = q**bexp
                for name, f in _POLYS.items():
                    for t in ts:
                        if t >= b:
                            continue
                        yield _record(
                            "right_transfer",
                            {"q": q, "alpha": alpha, "b": b, "f": name, "t": t},
                            lambda f=f, b=b, alpha=alpha, t=t, p=p, q=q:
                            right_frac_integral(
                                lambda s: -nabla_q(f, s, p), b / q, alpha, t, p
                            ),
                            lambda f=f, b=b, alpha=alpha, t=t, p=p, q=q: -nabla_q(
                                lambda x: right_frac_integral(f, b, alpha, x, p), t, p
                            )
                            - r_coef(alpha, q)
                            / special.q_gamma(alpha, p)
                            * special.q_factorial_power(b, q * t, alpha - 1.0, p)
                            * f(q ** (1.0 - alpha) * b / q),
                            1e-6,
                        )
        for alpha in (0.3, 0.6, 0.9):
            for a in (0.0, grid[3]):
                for name, f in _POLYS.items():
                    for t in ts:
                        if t <= a:
                            continue
                        yield _record(
                            "caputo_riemann_left",
                            {"q": q, "alpha": alpha, "a": a, "f": name, "t": t},
                            lambda f=f, a=a, alpha=alpha, t=t, p=p: left_caputo(
                                f, a, alpha, t, p
                            ),
                            lambda f=f, a=a, alpha=alpha, t=t, p=p: left_riemann_deriv(
                                f, a, alpha, t, p
                            )
                            - special.q_factorial_power(t, a, -alpha, p)
                            * f(a)
                            / special.q_gamma(1.0 - alpha, p),
                            1e-6,
                        )
            for bexp in (0, -2):
                b = q**bexp
                for name, f in _POLYS.items():
                    for t in ts:
                        if t >= b:
                            continue
                        yield _record(
                            "caputo_riemann_right",
                            {"q": q, "alpha": alpha, "b": b, "f": name, "t": t},
                            lambda f=f, b=b, alpha=alpha, t=t, p=p, q=q: right_caputo(
                                f, b / q, alpha, t, p
                            ),
                            lambda f=f, b=b, alpha=alpha, t=t, p=p, q=q:
                            right_riemann_deriv(f, b, alpha, t, p)
                            - r_coef(1.0 - alpha, q)
                            / special.q_gamma(1.0 - alpha, p)
                            * special.q_factorial_power(b, q * t, -alpha, p)
                            * f(q**alpha * b / q),
                            1e-6,
                        )
        # Caputo inversion; a = 0 is excluded for n = 2 (nabla f undefined at 0).
        for alpha, a_values in ((0.7, (0.0, grid[3])), (1.6, (grid[3],))):
            n = 1 if alpha <= 1.0 else 2
            for a in a_values:
                for name, f in _POLYS.items():
                    caputo = _memo(
                        lambda s, f=f, a=a, alpha=alpha, p=p: left_caputo(
                            f, a, alpha, s, p
                        )
                    )
                    for t in ts:
                        if t <= a:
                            continue
                        yield _record(
                            "caputo_inversion",
                            {"q": q, "alpha": alpha, "a": a, "f": name, "t": t},
                            lambda caputo=caputo, a=a, alpha=alpha, t=t, p=p:
                            left_frac_integral(caputo, a, alpha, t, p),
                            lambda f=f, a=a, n=n, t=t, p=p: f(t)
                            - sum(
                                special.q_factorial_power(t, a, float(k), p)
                                / special.q_gamma(k + 1.0, p)
                                * (nabla_q_n(f, a, k, p) if k else f(a))
                                for k in range(n)
                            ),
                            1e-6,
                        )


def _vanishing_above_record(
    q: float, alpha: float, beta: float, p: QParams
) -> IdentityRecord:
    """Outer-tail sum of the nested right composition with an operand supported
    on (0, b q**(1-alpha)]: both tails of every inner integral sample the
    operand above its support, so each summand is identically zero."""
    b = 1.0
    x = q**2
    cutoff = b * q ** (1.0 - alpha) * (1.0 + 1e-12)
    f = lambda u: (u + u * u) if u <= cutoff else 0.0
    rec = IdentityRecord(
        identity="vanishing_above_endpoint",
        params={"q": q, "alpha": alpha, "beta": beta, "b": b, "t": x},
        tolerance=0.0,
    )
    shift = q ** (1.0 - alpha)

    def compute() -> None:
        total = 0.0
        exact = True
        for i in range(1, 13):
            tt = b / q**i
            tau = tt * q ** (1.0 - beta)

            def g(s: float, tau: float = tau) -> float:
                fv = f(s * shift)
                if fv == 0.0:
                    return 0.0
                return special.q_factorial_power(s, tau, alpha - 1.0, p) * fv

            inner = (
                r_coef(alpha, q)
                / special.q_gamma(alpha, p)
                * (q_integral_tail(g, tau, INF, p) - q_integral_tail(g, b, INF, p))
            )
            summand = (
                (1.0 - q)
                * b
                * q**-i
                * special.q_factorial_power(tt, x, beta - 1.0, p)
                * inner
            )
            exact = exact and inner == 0.0 and summand == 0.0
            total += summand
        rec.lhs = total
        rec.rhs = 0.0
        rec.rel_err = abs(total)
        rec.passed = exact and total == 0.0

    _captured(rec, compute)
    return rec


# ---------------------------------------------------------------------------
# ivp suite

def _ivp_records(seed: int, trunc: Truncation) -> Iterator[IdentityRecord]:
    for q in _Q_SWEEP:
        p = QParams(q, trunc)
        for lam in (0.5, -0.5):
            for z in (q, 1.0):
                yield _record(
                    "ml_exp_reduction",
                    {"q": q, "lam": lam, "z": z},
                    lambda lam=lam, z=z, p=p: q_mittag_leffler(
                        MLParams(1.0, 1.0, lam, 0.0), z, p
                    ),
                    lambda lam=lam, z=z, p=p: special.q_exp_e(lam * z, p),
                    1e-10,
                )

    for alpha in (0.5, 0.9):
        for lam in (0.3, -0.3):
            for q in (0.3, 0.5):
                p = QParams(q, trunc)
                a = q**4
                prob = IVProblem(alpha, lam, a, 1.0)
                y = solve_ivp_closed(prob, p)
                for t in (q**3, q**2, q, 1.0):
                    yield _record(
                        "ivp_fixed_point",
                        {"q": q, "alpha": alpha, "lam": lam, "a": a, "t": t},
                        lambda y=y, t=t: y(t),
                        lambda y=y, a=a, alpha=alpha, lam=lam, t=t, p=p: 1.0
                        + lam * left_frac_integral(y, a, alpha, t, p),
                        1e-6,
                    )

    q = 0.5
    p = QParams(q, trunc)
    a = q**4
    ts = [q**3, q**2, q, 1.0]
    prob = IVProblem(0.9, 0.3, a, 1.0)
    closed = solve_ivp_closed(prob, p)
    picard25 = solve_ivp_picard(prob, 25, p)
    closed_exp = solve_ivp_closed(IVProblem(1.0, 1.0, 0.0, 1.0), p)

    for t in ts:
        yield _record(
            "picard_vs_closed",
            {"q": q, "alpha": 0.9, "lam": 0.3, "a": a, "m": 25, "t": t},
            lambda picard25=picard25, t=t: picard25(t),
            lambda closed=closed, t=t: closed(t),
            1e-6,
        )
        yield _record(
            "ivp_residual_closed",
            {"q": q, "alpha": 0.9, "lam": 0.3, "a": a, "t": t},
            lambda prob=prob, closed=closed, t=t, p=p: ivp_residual(
                prob, closed, t, p
            ),
            lambda: 0.0,
            1e-5,
        )
        yield _record(
            "closed_exp_reduction",
            {"q": q, "alpha": 1.0, "lam": 1.0, "a": 0.0, "t": t},
            lambda closed_exp=closed_exp, t=t: closed_exp(t),
            lambda t=t, p=p: special.q_exp_e(t, p),
            1e-8,
        )

    # Sup-norm distance of Picard iterates to the closed form must not increase.
    monotone_rec = IdentityRecord(
        identity="picard_error_monotone",
        params={"q": q, "alpha": 0.9, "lam": 0.3, "a": a, "m_values": [5, 10, 15, 20, 25]},
        tolerance=1e-9,
    )

    def picard_errors() -> None:
        errors = []
        for m in (5, 10, 15, 20, 25):
            ym = solve_ivp_picard(prob, m, p)
            errors.append(max(abs(ym(t) - closed(t)) for t in ts))
        monotone = all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1))
        monotone_rec.lhs = errors[-1]
        monotone_rec.rhs = 0.0
        monotone_rec.rel_err = 0.0 if monotone else max(errors)
        monotone_rec.passed = monotone

    _captured(monotone_rec, picard_errors)
    yield monotone_rec

    prob_forced = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
    closed_forced = solve_ivp_closed(prob_forced, p)
    picard_forced = solve_ivp_picard(prob_forced, 25, p)
    for t in ts:
        yield _record(
            "ivp_nonhomogeneous",
            {"q": q, "alpha": 0.9, "lam": 0.3, "a": 0.0, "f": "t", "t": t},
            lambda closed_forced=closed_forced, t=t: closed_forced(t),
            lambda picard_forced=picard_forced, t=t: picard_forced(t),
            1e-6,
        )

    # Series term k with z0 = a against the k-th increment of repeated
    # fractional integration of the constant initial value.
    alpha, lam = 0.9, 0.3
    a = q**4
    for t in (q**2, 1.0):
        increments = [lambda x: 1.0]
        for _ in range(5):
            prev = increments[-1]
            increments.append(
                _memo(
                    lambda x, prev=prev: lam
                    * left_frac_integral(prev, a, alpha, x, p)
                )
            )
        for k in range(6):
            yield _record(
                "ml_term_picard_increment",
                {"q": q, "alpha": alpha, "lam": lam, "a": a, "t": t, "k": k},
                lambda t=t, k=k, p=p: lam**k
                * special.q_factorial_power(t, a, alpha * k, p)
                / special.q_gamma(alpha * k + 1.0, p),
                lambda inc=increments[k], t=t: inc(t),
                1e-9,
            )


_SUITE_BUILDERS = {
    "core": _core_records,
    "special": _special_records,
    "frac": _frac_records,
    "ivp": _ivp_records,
}


def run_suite(
    suite: str, seed: int = 0, trunc: Truncation | None = None
) -> CheckReport:
    """Run one named identity suite (or all of them) deterministically."""
    import time

    if suite != "all" and suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES + ('all',)}")
    trunc = trunc or Truncation()
    names = SUITE_NAMES if suite == "all" else (suite,)
    started = time.perf_counter()
    records: list[IdentityRecord] = []
    for name in names:
        records.extend(_SUITE_BUILDERS[name](seed, trunc))
    records.sort(key=lambda r: (r.identity, sorted((k, str(v)) for k, v in r.params.items())))
    return CheckReport(
        suite=suite,
        seed=seed,
        truncation=trunc,
        records=records,
        duration=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Finite-b right semigroup exploration (measured, never asserted).

@dataclass
class ExploreRecord:
    alpha: float
    beta: float
    q: float
    b: float
    t: float
    lhs: float = math.nan
    rhs: float = math.nan
    abs_err: float = math.nan
    rel_err: float = math.nan
    terms: int = 0
    status: str = "ok"
    error: str = ""


def default_explore_grid() -> list[tuple[float, float]]:
    """6 x 6 grid over 0.25..1.5; includes pairs with integer alpha + beta."""
    values = [0.25 * k for k in range(1, 7)]
    return [(a, b) for a in values for b in values]


def _right_integral_anchored(
    f: QFunction, b: float, alpha: float, x: float, p: QParams
) -> float:
    """Right integral with a lower limit off the grid of b.

    Uses the signed zero-anchored Jackson difference for the range [x, b], the
    natural extension when b / x is not an integer power of q (it matches the
    grid-aligned definition exactly whenever the points do align).
    """
    q = p.q
    shift = q ** (1.0 - alpha)

    def integrand(s: float) -> float:
        kernel = special.q_factorial_power(s, x, alpha - 1.0, p)
        return kernel * f(s * shift) if kernel != 0.0 else 0.0

    return r_coef(alpha, q) * q_integral(integrand, x, b, p) / special.q_gamma(alpha, p)


def explore_finite_right_semigroup(
    pairs: list[tuple[float, float]],
    q: float,
    b: float,
    f: QFunction,
    t: float,
    trunc: Truncation | None = None,
) -> list[ExploreRecord]:
    """Residuals of the nested-vs-direct finite-b right integrals on a grid.

    The nested route needs the inner integral at points off the grid of b,
    where no proved composition rule exists; records therefore carry residuals
    only and make no pass/fail judgement.
    """
    p = QParams(q, trunc or Truncation())
    records = []
    for alpha, beta in pairs:
        rec = ExploreRecord(alpha=alpha, beta=beta, q=q, b=b, t=t)
        with count_terms() as counter:
            try:
                inner = _memo(
                    lambda x, alpha=alpha: _right_integral_anchored(f, b, alpha, x, p)
                )
                rec.lhs = right_frac_integral(inner, b, beta, t, p)
                rec.rhs = right_frac_integral(f, b, alpha + beta, t, p)
                rec.abs_err = abs(rec.lhs - rec.rhs)
                rec.rel_err = _rel_err(rec.lhs, rec.rhs)
            except QCalculusError as exc:
                rec.status = "error"
                rec.error = f"{type(exc).__name__}: {exc}"
        rec.terms = counter.total
        records.append(rec)
    return records

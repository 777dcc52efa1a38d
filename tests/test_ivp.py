import itertools
import math
import operator
import re
import sys
import threading
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfrac.ivp
import qfrac.special
from qfrac import (
    DomainError,
    IVProblem,
    MLParams,
    NonConvergence,
    NumericOverflow,
    PoleError,
    QCalculusError,
    QParams,
    Truncation,
    count_terms,
    ivp_residual,
    left_caputo,
    left_frac_integral,
    left_riemann_deriv,
    q_exp_E,
    q_exp_e,
    q_factorial_power,
    q_gamma,
    q_integral,
    q_mittag_leffler,
    right_caputo,
    right_frac_integral,
    right_riemann_deriv,
    solve_ivp_closed,
    solve_ivp_picard,
)

from qfrac.core import _accumulate, _start_steps
from qfrac.fractional import _left_series
from qfrac.ivp import _euler_split

from conftest import chain_wobble, rel_err

# alpha=0.9, beta=1, lam=0.3, z=1, z0=q^4, q=1/2; frozen from a 50-digit run.
ML_REGRESSION = 1.3634725967451728

# (lam, m, t) -> sum_{k<=m} lam**k t**(0.8 k) / Gamma_q(0.8 k + 1) at q = 0.9,
# the m-th Picard iterate of the unforced problem from a = 0 with a0 = 1;
# summed to 50 digits from the float t and q.
PICARD_PARTIAL_SUMS = {
    (0.3, 5, 1.0): 1.396555740177224,
    (0.3, 5, 0.9**2): 1.3237169391336427,
    (0.3, 25, 1.0): 1.396570547017593,
    (0.3, 25, 0.9**2): 1.323722244113314,
    (-0.4, 5, 1.0): 0.6669918697433724,
    (-0.4, 5, 0.9**2): 0.708189879182867,
    (-0.4, 25, 1.0): 0.6670594853226522,
    (-0.4, 25, 0.9**2): 0.7082148905658082,
}


class TestMLParams:
    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_alpha_positive(self, alpha):
        with pytest.raises(DomainError):
            MLParams(alpha)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_finite(self, beta):
        with pytest.raises(DomainError, match="^MLParams: beta must be finite"):
            MLParams(0.9, beta)

    def test_negative_origin_rejected(self):
        with pytest.raises(DomainError):
            MLParams(0.9, z0=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rate_and_origin_finite(self, value):
        with pytest.raises(DomainError, match="^MLParams: lam must be finite"):
            MLParams(0.9, lam=value)
        with pytest.raises(DomainError, match="^MLParams: z0 must be finite and >= 0"):
            MLParams(0.9, z0=value)


class TestMittagLeffler:
    def test_zero_rate_collapses_to_leading_term(self, p_half):
        for beta in (1.0, 1.3, 2.0):
            got = q_mittag_leffler(MLParams(0.9, beta, 0.0, 0.0), 1.0, p_half)
            assert rel_err(got, 1.0 / q_gamma(beta, p_half)) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_reduces_to_small_exponential(self, q):
        p = QParams(q)
        for lam in (0.5, -0.5):
            for z in (q, 1.0):
                got = q_mittag_leffler(MLParams(1.0, 1.0, lam, 0.0), z, p)
                assert rel_err(got, q_exp_e(lam * z, p)) < 1e-10

    def test_regression_value(self, p_half):
        mp = MLParams(0.9, 1.0, 0.3, 0.5**4)
        got = q_mittag_leffler(mp, 1.0, p_half)
        assert rel_err(got, ML_REGRESSION) < 1e-12
        # Independent partial-sum oracle over the same primitives.
        total = 0.0
        for k in range(80):
            total += (
                0.3**k
                * q_factorial_power(1.0, 0.5**4, 0.9 * k, p_half)
                / q_gamma(0.9 * k + 1.0, p_half)
            )
        assert rel_err(got, total) < 1e-13

    @pytest.mark.parametrize("beta", [1e-320, -0.5])
    def test_beta_on_a_gamma_pole(self, p_half, beta):
        # 1 / q_gamma is entire: a term whose alpha k + beta is on a pole of
        # q_gamma (within float resolution at beta = 1e-320, k = 0; exactly
        # at beta = -0.5, k = 1) is 0, and the rest is the power rule's sum.
        terms = []
        for k in range(80):
            try:
                terms.append(0.5**k * 0.5 ** (0.5 * k) / q_gamma(0.5 * k + beta, p_half))
            except PoleError:
                pass
        assert len(terms) == 79
        want = math.fsum(terms)
        got = q_mittag_leffler(MLParams(0.5, beta, 0.5), 0.5, p_half)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_failure_names_beta_and_lam(self):
        # 1 / q_gamma(-40.5) overflows at q = 0.3, as (q**-40.5; q)_inf does:
        # the overflow names beta and lam.
        with pytest.raises(NumericOverflow,
                           match=r"beta=-40\.5, lam=0\.3, q=0\.3: term 0 overflowed"):
            q_mittag_leffler(MLParams(0.5, -40.5, 0.3), 1.0, QParams(0.3))

    def test_alternating_ratio_near_one_does_not_overflow(self):
        # Term ratio lam z (1 - q) -> -0.993: the sum takes thousands of terms.
        # Each term is a running power of lam ((1 - q) z)**alpha times one
        # q-Pochhammer tail, so no q_gamma(1049) overflows on
        # 0.5078125**-1048.  The value is e_q(lam z) = 1 / ((1 - q) lam z;
        # q)_inf, from 40-digit mpmath.
        got = q_mittag_leffler(MLParams(1.0, 1.0, -1.40625), 1.390625, QParams(0.4921875))
        assert abs(got - 0.21703696478195688) <= 1e-10

    def test_underflow_near_q_one_is_numeric_overflow(self):
        # At q = 0.999 the series divides by (q; q)_inf, which underflows to
        # 0: it raised a bare ZeroDivisionError.
        p = QParams(0.999, Truncation(max_terms=10**6))
        with pytest.raises(NumericOverflow, match=r"^\(q\*\*x; q\)_inf at x=1\.0, q=0\.999: "
                                                  r"the product underflowed to 0\.0$"):
            q_mittag_leffler(MLParams(0.9, 1.0, -1.0), 2.0, p)

    @pytest.mark.parametrize(("z0", "calls"), [(0.0, 0), (0.5**3, 1), (0.37, 14)])
    def test_factorial_powers_per_sum(self, monkeypatch, p_half, z0, calls):
        # From z0 = z q**j each term takes its power of z from z**alpha: one
        # factorial power per sum, and from z0 = 0, where zeta is
        # lam ((1-q) z)**alpha itself, none.  Only a z0 off the grid of z
        # takes one per term.
        counted = []
        inner = qfrac.special.q_factorial_power
        monkeypatch.setattr(qfrac.special, "q_factorial_power",
                            lambda *args: counted.append(args) or inner(*args))
        got = q_mittag_leffler(MLParams(0.9, 1.0, 0.3, z0), 1.0, p_half)
        assert len(counted) == calls
        total = sum(0.3**k * inner(1.0, z0, 0.9 * k, p_half) / q_gamma(0.9 * k + 1.0, p_half)
                    for k in range(80))
        assert rel_err(got, total) < 1e-14

    @pytest.mark.parametrize("z0", [0.0, 0.5])
    @pytest.mark.parametrize("z", [math.nan, -1.0])
    def test_z_that_is_nan_or_negative_is_a_domain_error(self, monkeypatch, p_half, z, z0):
        # Named through the series' own parameters, before any tail is read.
        calls = TestHeadPlan.spy_tails(monkeypatch)
        message = f"q_mittag_leffler: z must be finite and >= 0, got {z!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            q_mittag_leffler(MLParams(0.9, 1.0, 0.3, z0), z, p_half)
        assert calls == []

    @pytest.mark.parametrize("z0", [0.0, 0.5])
    def test_infinite_z_is_a_domain_error(self, monkeypatch, p_half, z0):
        # It read as a divergent series (exit 2 in the CLI) from z0 = 0.
        calls = TestHeadPlan.spy_tails(monkeypatch)
        message = "q_mittag_leffler: z must be finite and >= 0, got inf"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            q_mittag_leffler(MLParams(0.9, 1.0, 0.3, z0), math.inf, p_half)
        assert calls == []

    @pytest.mark.parametrize("beta", [1.0, 0.5, 2.5])
    def test_z_zero_is_the_first_term(self, p_half, beta):
        got = q_mittag_leffler(MLParams(0.9, beta, 0.3), 0.0, p_half)
        assert rel_err(got, 1.0 / q_gamma(beta, p_half)) < 1e-15

    def test_vanishing_powers_below_origin(self, p_half):
        # Aligned z below z0 kills every k >= 1 term exactly.
        mp = MLParams(0.9, 1.0, 0.3, 0.5**2)
        assert q_mittag_leffler(mp, 0.5**4, p_half) == 1.0


class TestTimeScaleHead:
    """From z0 = z q**j with j >= 1 and an integer beta every q-Mittag-Leffler
    term is a finite q-product (see ivp._ml_sum)."""

    @staticmethod
    def power_rule_terms(mp, z, p, count):
        return [mp.lam**k * q_factorial_power(z, mp.z0, mp.alpha * k, p)
                / q_gamma(mp.alpha * k + mp.beta, p) for k in range(count)]

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(("j", "beta"),
                             [(1, 1.0), (2, 1.0), (2, 2.0), (4, 1.0), (4, 2.0), (40, 1.0),
                              (40, 2.0), (1, 2.0), (2, 3.0), (4, 6.0), (2, 1.5)])
    @pytest.mark.parametrize("lam", [0.3, -0.4])
    def test_terms_against_the_power_rule(self, q, j, beta, lam):
        # Summed to a stopping rule at rel_tol 1e-16 the terms are within
        # 2.0e-15 of 80 power-rule terms over these cases.
        p = QParams(q)
        mp = MLParams(0.7, beta, lam, q**j)
        whole = math.fsum(self.power_rule_terms(mp, 1.0, p, 80))
        tight = qfrac.ivp._ml_sum(mp, 1.0, j, QParams(q, Truncation(1e-16)))
        assert abs(tight - whole) <= 1e-14 * abs(whole)
        assert abs(q_mittag_leffler(mp, 1.0, p) - whole) <= 1e-13 * abs(whole)

    @pytest.mark.parametrize("m", [None, 0, 3])
    def test_initial_point_sums_nothing(self, p_half, m):
        prob = IVProblem(0.7, 0.3, 0.5**4, 2.5, lambda s: s)
        y = solve_ivp_closed(prob, p_half) if m is None else solve_ivp_picard(prob, m, p_half)
        with count_terms() as counter:
            assert y(0.5**4) == 2.5
        assert counter.total == 0
        assert y.diagnostics["terms"] == 0 and y.diagnostics["evaluations"] == 1

    def test_divergent_head_raises_and_its_iterates_stay_finite(self, p_half):
        # zeta = lam (1-q) t = -1.5 at t = 1: the closed form's series
        # diverges, and it raises before any cell is formed or f sampled,
        # while Picard(5) is the sum of the first six.
        a = 0.5**4
        prob = IVProblem(1.0, -3.0, a, 1.0)
        with pytest.raises(NonConvergence, match="q-Mittag-Leffler"):
            solve_ivp_closed(prob, p_half)(1.0)
        samples = []
        forced = IVProblem(1.0, -3.0, a, 1.0, lambda s: samples.append(s) or s)
        with count_terms() as counter, pytest.raises(NonConvergence, match="q-Mittag-Leffler"):
            solve_ivp_closed(forced, p_half)(1.0)
        assert counter.total == 0 and samples == []
        got = solve_ivp_picard(prob, 5, p_half)(1.0)
        want = math.fsum(self.power_rule_terms(MLParams(1.0, 1.0, -3.0, a), 1.0, p_half, 6))
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_no_pochhammer_tail(self, monkeypatch, p_half):
        # No q_gamma and no infinite product, for the closed form or Picard,
        # at any depth, nor for beta = 3 > j = 2, where term k is
        # zeta**k / (q**(alpha k + 2); q)_1 up to a constant.
        calls = []
        inner = qfrac.special._pochhammer_tail
        monkeypatch.setattr(qfrac.special, "_pochhammer_tail",
                            lambda *args: calls.append(args) or inner(*args))
        prob = IVProblem(0.7, 0.3, 0.5**4, 1.0)
        closed, picard = solve_ivp_closed(prob, p_half), solve_ivp_picard(prob, 6, p_half)
        for t in (0.5**3, 0.25, 1.0, 2.0):
            assert math.isfinite(closed(t)) and math.isfinite(picard(t))
        assert math.isfinite(q_mittag_leffler(MLParams(0.7, 3.0, 0.3, 0.25), 1.0, p_half))
        assert calls == []

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize(("j", "beta"), [(1, 0.0), (2, 0.0), (4, -1.0), (2, -3.0)])
    def test_beta_on_a_gamma_pole(self, q, j, beta):
        # Term 0 is 1 / Gamma_q(beta) = 0; the first 1 - beta factors of each
        # other term are the q-numbers [alpha k + beta + i]_q.  At beta = -3,
        # q = 0.3 the sum is 2.5e-14 off a 40-digit value, as it was when the
        # two products were formed apart.
        p = QParams(q)
        mp = MLParams(0.7, beta, 0.3, q**j)
        want = math.fsum(0.3**k * q_factorial_power(1.0, q**j, 0.7 * k, p)
                         / q_gamma(0.7 * k + beta, p) for k in range(1, 80))
        tight = qfrac.ivp._ml_sum(mp, 1.0, j, QParams(q, Truncation(1e-16)))
        assert abs(tight - want) <= 1e-13 * abs(want)

    # z = z0 q**-j at q near 1, where (q; q)_(j-1) and the numerator product
    # become subnormal or 0 while their quotient does not: the head used to
    # be 1.2e-6 off at j = 900, return 1.0 at j = 1000 and 1500, and divide
    # by zero at q = 0.999.
    # The values are from a 40-digit evaluation of the definition,
    # sum_k lam**k (z - z0)_q^(alpha k) / Gamma_q(alpha k + 1).
    @pytest.mark.parametrize(("q", "j", "z", "value"), [
        (0.998, 900, 0.01 * 0.998**-900, 1.0809343891245199),
        (0.998, 1000, 0.0740386877238432, 1.0917599926911134),
        (0.998, 1500, 0.01 * 0.998**-1500, 1.1671948726084316),
        (0.999, 353, 0.014235825511856419, 1.0224105873657911),
    ])
    def test_near_q_one(self, q, j, z, value):
        p = QParams(q)
        mp = MLParams(0.5, 1.0, 0.3, 0.01)
        assert _start_steps(0.01, z, q) == j
        assert abs(q_mittag_leffler(mp, z, p) - value) <= 1e-13 * value

    def test_solution_near_q_one(self):
        # The closed form from a = 0.01 is the head above; it used to read
        # 1.0, and its residual -0.759.
        p, t = QParams(0.998), 0.0740386877238432
        prob = IVProblem(0.5, 0.3, 0.01, 1.0)
        y = solve_ivp_closed(prob, p)
        assert abs(y(t) - 1.0917599926911134) <= 1e-13
        assert abs(solve_ivp_picard(prob, 8, p)(t) - 1.0917599926911134) <= 1e-11
        assert abs(ivp_residual(prob, y, t, p)) <= 1e-11

    def test_depth_past_the_budget_raises(self):
        # Term k takes j - 1 factors: j = 11 is within a budget of 10, where
        # the terms at lam = 0.01 end after 8, and j = 12 raises before any
        # term is formed.
        p = QParams(0.5, Truncation(max_terms=10))
        mp = MLParams(0.7, 1.0, 0.01, 0.5**12)
        with count_terms() as counter:
            assert math.isfinite(qfrac.ivp._ml_sum(mp, 0.5, 11, p))
        assert counter.total == 8
        with count_terms() as counter, pytest.raises(NonConvergence, match=(
                r"^q-Mittag-Leffler at z=1\.0, z0=0\.000244140625, alpha=0\.7, beta=1\.0, "
                r"lam=0\.01, q=0\.5: 11 terms exceed the budget of 10$")):
            qfrac.ivp._ml_sum(mp, 1.0, 12, p)
        assert counter.total == 0

    def test_lattice_steps_once_per_point(self, monkeypatch, p_half):
        # The solution's rule finds how far t lies above a and hands it to
        # the head's sum, which does not find it again.
        calls = []
        inner = qfrac.ivp._start_steps
        monkeypatch.setattr(qfrac.ivp, "_start_steps",
                            lambda *args: calls.append(args) or inner(*args))
        y = solve_ivp_closed(IVProblem(0.7, 0.3, 0.5**4, 1.0), p_half)
        points = (0.5**3, 0.25, 1.0, 2.0)
        for t in points:
            y(t)
        assert len(calls) == len(points) == y.diagnostics["evaluations"]


class TestLatticeCells:
    """The closed form at t = a q**-j, a > 0, is a0 plus the solution's
    lattice cell u_j (see fractional._lattice_cells), and Picard(m) there a0
    plus one cut lattice series over lam a0 + f."""

    def test_residual_samples_nothing_and_forms_no_cell(self, monkeypatch, p_half):
        # closed(1.0) forms the cells u_1 .. u_4 once, sampling f at each
        # t_k; the residual's points 1, q, q**2 and q**3 are those cells, so
        # it adds no sample of its own but the f(t) of its equation.
        grown = []
        inner = qfrac.ivp._lattice_cells
        monkeypatch.setattr(qfrac.ivp, "_lattice_cells",
                            lambda cells, *args: grown.append(cells) or inner(cells, *args))
        samples = []
        prob = IVProblem(0.73, -0.31, 0.5**4, 1.0,
                         lambda s: samples.append(s) or 1.0 - 0.5 * s + 0.7 * s * s)
        y = solve_ivp_closed(prob, p_half)
        y(1.0)
        assert sorted(samples) == [0.125, 0.25, 0.5, 1.0] and len(grown[0]) == 5
        with count_terms() as counter:
            residual = ivp_residual(prob, y, 1.0, p_half)
        assert abs(residual) <= 1e-15
        assert samples[4:] == [1.0] and len(grown[0]) == 5
        assert y.diagnostics == {"terms": 6, "evaluations": 5}
        assert counter.total == 4  # the residual's own lattice series

    def test_depth_past_the_budget_raises_before_any_sample(self):
        # Depth 10 is within a budget of 10; depth 12 raises, naming the top
        # cell, before any cell is formed or f sampled.
        samples = []
        p = QParams(0.5, Truncation(max_terms=10))
        prob = IVProblem(0.7, 0.3, 0.5**12, 1.0, lambda s: samples.append(s) or s)
        y = solve_ivp_closed(prob, p)
        assert math.isfinite(y(0.25)) and len(samples) == 10
        samples.clear()
        with count_terms() as counter, pytest.raises(NonConvergence, match=(
                r"^lattice cell at t=1\.0, a=0\.000244140625, alpha=0\.7, lam=0\.3, q=0\.5: "
                r"12 terms exceed the budget of 10$")):
            y(1.0)
        assert counter.total == 0 and samples == []

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_no_series_and_no_kernel(self, monkeypatch, q):
        # Neither the q-Mittag-Leffler series, its exact head from 0, the
        # forcing kernel nor an infinite q-product is entered at a point of
        # the time scale, by either solver at any lam, nor by the residual.
        def entered(*args, **kwargs):
            raise AssertionError("entered")

        for module, name in ((qfrac.ivp, "_ml_sum"), (qfrac.ivp, "_ZeroHead"),
                             (qfrac.ivp, "_Kernel"), (qfrac.special, "_pochhammer_tail")):
            monkeypatch.setattr(module, name, entered)
        p, a = QParams(q), q**6
        for lam in (-0.4, 0.0, 0.3):
            for f in (None, quadratic(1.0, -0.5, 0.7)):
                prob = IVProblem(0.8, lam, a, 1.0, f)
                solutions = [solve_ivp_closed(prob, p)]
                solutions += [solve_ivp_picard(prob, m, p) for m in (0, 1, 5)]
                for y in solutions:
                    for j in (1, 3, 6):
                        assert math.isfinite(y(a / q**j))
                assert abs(ivp_residual(prob, solutions[0], a / q**6, p)) <= 1e-14

    def test_deep_residual_near_q_one(self):
        # At q = 0.998 the residual's left_caputo is a series at order
        # -alpha whose weight factors 1 - q**x lose digits by subtraction
        # where q**x nears 1: it read 4.0e-13, 7.0e-13 and 7.9e-13 of lam y
        # at depths 10, 100 and 1,000.  With those factors taken by expm1
        # while q**x > 1/2 it reads 5.6e-14, 3.1e-14 and 1.2e-14.
        q, a = 0.998, 0.01
        prob = IVProblem(0.5, -0.3, a, 1.0, lambda s: 1.0 + s)
        p = QParams(q)
        y = solve_ivp_closed(prob, p)
        for j in (10, 100, 1000):
            t = a / q**j
            assert abs(ivp_residual(prob, y, t, p)) <= 1e-13 * abs(prob.lam * y(t))

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_order_one_is_the_q_difference_equation(self, q):
        # At alpha = 1 the weights past w_1 = -1 are 0, and the cells solve
        # nabla_q y = lam y + f step by step:
        # y_k = (y_(k-1) + (1-q) t_k f(t_k)) / (1 - lam (1-q) t_k).
        a, lam, f = q**5, -0.4, quadratic(1.0, -0.5, 0.7)
        y = solve_ivp_closed(IVProblem(1.0, lam, a, 1.0, f), QParams(q))
        want = 1.0
        for k in range(1, 6):
            t = a / q**k
            want = (want + (1.0 - q) * t * f(t)) / (1.0 - lam * (1.0 - q) * t)
            assert rel_err(y(t), want) <= 1e-14


class TestProblemTypes:
    @pytest.mark.parametrize("alpha", [0.0, 1.2, -0.3])
    def test_order_range(self, alpha):
        with pytest.raises(DomainError):
            IVProblem(alpha, 0.3, 0.0, 1.0)

    def test_negative_base_rejected(self):
        with pytest.raises(DomainError):
            IVProblem(0.9, 0.3, -1.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rate_and_initial_value_finite(self, value):
        # A NaN a0 gave a NaN solution at every t > a.
        with pytest.raises(DomainError, match="^IVProblem: lam must be finite"):
            IVProblem(0.5, value, 0.0, 1.0)
        with pytest.raises(DomainError, match="^IVProblem: a0 must be finite"):
            IVProblem(0.5, 0.3, 0.0, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_base_finite(self, value):
        # Accepted, the first evaluation raised "z0 must be finite", a name
        # the caller never set.
        with pytest.raises(DomainError,
                           match=f"^IVProblem: a must be finite and >= 0, got {value}$"):
            IVProblem(0.5, 0.3, value, 1.0)


class TestClosedForm:
    def test_unforced_zero_rate_is_constant(self, p_half):
        y = solve_ivp_closed(IVProblem(0.7, 0.0, 0.5**4, 2.5), p_half)
        for t in (0.5**4, 0.25, 1.0):
            assert y(t) == pytest.approx(2.5, rel=1e-12)

    def test_initial_value_is_exact(self, p_half):
        a = 0.5**4
        y = solve_ivp_closed(IVProblem(0.9, 0.3, a, 1.0), p_half)
        assert y(a) == 1.0

    def test_unforced_solution_is_scaled_kernel(self, p_half):
        a = 0.5**4
        prob = IVProblem(0.9, 0.3, a, 2.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            expected = 2.0 * q_mittag_leffler(MLParams(0.9, 1.0, 0.3, a), t, p_half)
            assert rel_err(y(t), expected) < 1e-12

    def test_order_one_unit_rate_from_origin_is_small_exp(self, p_half):
        y = solve_ivp_closed(IVProblem(1.0, 1.0, 0.0, 1.0), p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert rel_err(y(t), q_exp_e(t, p_half)) < 1e-8

    def test_head_calls_no_q_gamma(self, monkeypatch, p_half):
        # From a = 0 each head term reads one q-Pochhammer tail: no q_gamma,
        # whatever the number of points, and q_mittag_leffler's values.
        calls = []
        q_gamma_inner = qfrac.special.q_gamma
        monkeypatch.setattr(
            qfrac.special, "q_gamma", lambda *args: calls.append(args) or q_gamma_inner(*args))
        y = solve_ivp_closed(IVProblem(0.9, 0.3, 0.0, 1.0), p_half)
        values = [y(0.5**k) for k in range(8)]
        assert calls == []
        for k, value in enumerate(values):
            want = q_mittag_leffler(MLParams(0.9, 1.0, 0.3), 0.5**k, p_half)
            assert value == want

    def test_method_tag_and_diagnostics(self, p_half):
        y = solve_ivp_closed(IVProblem(0.9, 0.3, 0.0, 1.0), p_half)
        y(1.0)
        assert y.method == "closed-form"
        assert y.diagnostics["evaluations"] >= 1
        picard = solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 1.0), 3, p_half)
        assert repr(picard) == "IVPSolution(method='picard(3)')"


class TestPicard:
    def test_zero_iterations_is_initial_constant(self, p_half):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 4.0), 0, p_half)
        for t in (0.25, 1.0):
            assert y(t) == 4.0
        assert y.diagnostics["iterations"] == 0

    def test_single_step_formula(self, p_half):
        # a0 (1 + lam (t - a)_q^alpha / q_gamma(alpha + 1))
        a, alpha, lam, a0 = 0.5**4, 0.9, 0.3, 2.0
        y = solve_ivp_picard(IVProblem(alpha, lam, a, a0), 1, p_half)
        for t in (0.25, 1.0):
            expected = a0 * (
                1.0
                + lam
                * q_factorial_power(t, a, alpha, p_half)
                / q_gamma(alpha + 1.0, p_half)
            )
            assert rel_err(y(t), expected) < 1e-9

    def test_converges_to_closed_form(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        closed = solve_ivp_closed(prob, p_half)
        picard = solve_ivp_picard(prob, 25, p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert rel_err(picard(t), closed(t)) < 1e-6

    def test_error_shrinks_with_iterations(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        closed = solve_ivp_closed(prob, p_half)
        ts = (0.5**3, 0.25, 0.5, 1.0)
        errors = []
        for m in (5, 15, 25):
            ym = solve_ivp_picard(prob, m, p_half)
            errors.append(max(abs(ym(t) - closed(t)) for t in ts))
        assert errors[1] <= errors[0] + 1e-9
        assert errors[2] <= errors[1] + 1e-9

    def test_negative_iteration_count_rejected(self, p_half):
        with pytest.raises(DomainError):
            solve_ivp_picard(IVProblem(0.9, 0.3, 0.0, 1.0), -1, p_half)

    def test_forced_problem_matches_closed_form(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        closed = solve_ivp_closed(prob, p_half)
        picard = solve_ivp_picard(prob, 25, p_half)
        for t in (0.25, 0.5, 1.0):
            assert rel_err(closed(t), picard(t)) < 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    def test_zero_iterations_ignore_the_forcing(self, p_half, lam, a):
        # y_0 = a0: the lam = 0 one-integral shortcut must not add I^alpha f.
        y = solve_ivp_picard(IVProblem(0.9, lam, a, 2.5, lambda s: s + 1.0), 0, p_half)
        for t in scale_points(0.5, a):
            assert y(t) == 2.5

    @pytest.mark.parametrize(("lam", "m", "t", "want"), [
        (lam, m, t, want) for (lam, m, t), want in PICARD_PARTIAL_SUMS.items()
    ])
    def test_partial_sums_against_exact_values(self, lam, m, t, want):
        y = solve_ivp_picard(IVProblem(0.8, lam, 0.0, 1.0), m, QParams(0.9))
        assert rel_err(y(t), want) < 2e-15

    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    def test_iterates_of_a_divergent_series(self, p_half, a):
        # lam (1-q)**alpha t**alpha > 1 on every point: the closed form's
        # series diverges, but each iterate is a finite sum.  By m = 5 the
        # head's terms at t = 0.5 and 1 have grown for 3 steps by more than
        # 1e3, so a growth watch on the cut sums would raise there.
        prob = IVProblem(0.9, 20.0, a, 1.0, lambda s: s)
        y = solve_ivp_picard(prob, 5, p_half)
        want = chained_picard(0.9, 20.0, a, 1.0, prob.forcing, 5, p_half)
        closed = solve_ivp_closed(prob, p_half)
        for t in scale_points(0.5, a):
            assert y(t) == pytest.approx(want(t), rel=1e-12, abs=0.0)
            with pytest.raises(NonConvergence):
                closed(t)


class TestResidual:
    def test_zero_rate_constant_solution(self, p_half):
        prob = IVProblem(0.7, 0.0, 0.5**4, 2.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) < 1e-11

    def test_closed_form_satisfies_equation(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.5**3, 0.25, 0.5, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) <= 1e-5

    def test_constant_is_not_a_solution(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.5**4, 1.0)
        got = ivp_residual(prob, lambda t: 1.0, 0.25, p_half)
        assert got == pytest.approx(-0.3, rel=1e-12)

    def test_point_must_exceed_base(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.25, 1.0)
        with pytest.raises(DomainError):
            ivp_residual(prob, lambda t: 1.0, 0.25, p_half)

    def test_forced_closed_form_satisfies_equation(self, p_half):
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        y = solve_ivp_closed(prob, p_half)
        for t in (0.25, 1.0):
            assert abs(ivp_residual(prob, y, t, p_half)) <= 1e-5


class TestFixedPoint:
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_solution_solves_the_integral_equation(self, alpha, lam):
        q = 0.3
        p = QParams(q)
        a = q**4
        prob = IVProblem(alpha, lam, a, 1.0)
        y = solve_ivp_closed(prob, p)
        for t in (q**2, 1.0):
            rhs = 1.0 + lam * left_frac_integral(y, a, alpha, t, p)
            assert rel_err(y(t), rhs) < 1e-6

    def test_series_term_matches_iterated_power_rule(self, p_half):
        # Term k of the solution kernel equals k nested fractional integrals
        # of the constant 1, evaluated numerically.
        alpha, lam, a = 0.9, 0.3, 0.5**4
        rule = lambda x: 1.0
        for k in range(1, 5):
            prev = rule
            rule = (
                lambda x, prev=prev: lam
                * left_frac_integral(prev, a, alpha, x, p_half)
            )
            for t in (0.25, 1.0):
                term = (
                    lam**k
                    * q_factorial_power(t, a, alpha * k, p_half)
                    / q_gamma(alpha * k + 1.0, p_half)
                )
                assert rel_err(term, rule(t)) < 1e-9


def quadratic(c0, c1, c2):
    return lambda s: c0 + c1 * s + c2 * s * s


def convolution_forcing_term(alpha, lam, a, t, f, p):
    """The forcing term as the paper writes it: the Jackson sum of the kernel
    (t - qs)_q^(alpha-1) times E_{alpha,alpha}(lam, t - q**alpha s) f(s)."""
    shift = p.q**alpha

    def integrand(s):
        kernel = q_factorial_power(t, p.q * s, alpha - 1.0, p)
        if kernel == 0.0:
            return 0.0
        wave = q_mittag_leffler(MLParams(alpha, alpha, lam, z0=shift * s), t, p)
        return kernel * wave * f(s)

    return q_integral(integrand, a, t, p)


class TestForcingSeries:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_matches_the_convolution_with_mittag_leffler(self, q, alpha, lam):
        # sum_k lam**k I_a^(alpha(k+1)) f(t), from the q-power rule, against
        # the convolution it replaces; a on and off the grid of t.
        p = QParams(q)
        f = quadratic(1.0, -0.5, 0.7)
        for a in (0.0, q**4, 0.37 * q**4):
            base = a if a > 0.0 else q**4
            points = [base * q**-j for j in range(1, 5)] + [0.77]
            y = solve_ivp_closed(IVProblem(alpha, lam, a, 0.0, f), p)
            for t in points:
                want = convolution_forcing_term(alpha, lam, a, t, f, p)
                assert y(t) == pytest.approx(want, rel=1e-9, abs=0.0), (a, t)

    @pytest.mark.parametrize("a_steps", [None, 3])
    def test_lattice_start_needs_no_factorial_power(self, monkeypatch, a_steps):
        # a = 0 or a = t q**m: every fractional integral is a lattice series,
        # so neither the generic q-factorial power nor the q-Mittag-Leffler
        # series is evaluated, for the solution or for its residual.
        calls = {"q_factorial_power": 0, "q_mittag_leffler": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(qfrac.special, "q_factorial_power")
        counted(qfrac.ivp, "q_mittag_leffler")
        p = QParams(0.5)
        t = 1.0
        a = 0.0 if a_steps is None else t * p.q**a_steps
        prob = IVProblem(0.8, 0.3, a, 0.0, quadratic(1.0, -0.5, 0.7))
        y = solve_ivp_closed(prob, p)
        assert y(t) != 0.0
        assert abs(ivp_residual(prob, y, t, p)) <= 1e-5
        assert calls == {"q_factorial_power": 0, "q_mittag_leffler": 0}

    def test_long_alternating_series_matches_the_recursion(self):
        # The head's alternating series at lam = -1.5 runs about 1,750
        # terms, past the k = 1,751 where lam**k leaves the double range;
        # z**k, z = lam ((1-q) t)**alpha = -0.984, does not, and the forcing
        # is one kernel series (P = 0).  At alpha = 1 the equation is
        # the q-difference recursion y(x) (1 - (1-q) x lam) = y(qx) + (1-q) x f(x),
        # run up the chain of t from y(0) = 1 at depth 400.
        q, lam, t = 0.5625, -1.5, 1.5
        f = lambda s: s * s - 0.3 * s + 0.5
        y = solve_ivp_closed(IVProblem(1.0, lam, 0.0, 1.0, f), QParams(q))
        want = 1.0
        for e in range(400, -1, -1):
            x = t * q**e
            want = (want + (1.0 - q) * x * f(x)) / (1.0 - (1.0 - q) * x * lam)
        assert abs(y(t) - want) <= 1e-10
        # The same recursion at 60 digits from depth 2,000 gives
        # 1.09986522712180468.  Summed order by order the forcing was 4.5e-13
        # off; the kernel's one series is 9e-15 off, and the head's 1,750
        # alternating terms 8.9e-14.
        assert abs(y(t) - 1.0998652271218048) <= 1e-13


class TestOffGridClosedForm:
    def test_long_series_from_an_off_grid_start_sums(self):
        # The same series from a = 0.00037, off the grid of t: term k is z**k
        # times the left series of weight h, which forms no Gamma_q(alpha(k+1))
        # (it left the double range at alpha(k+1) = 860).  The value is that
        # of sum_k lam**k (t - a)_q^(k) / [k]_q! plus the Jackson integral from
        # a to t of f against the same series in (t - qs)_q^(k), both at 50
        # digits: 1.099927824921041867587589175739501681.
        f = lambda s: s * s - 0.3 * s + 0.5
        y = solve_ivp_closed(IVProblem(1.0, -1.5, 0.00037, 1.0, f), QParams(0.5625))
        value = y(1.5)
        assert math.isfinite(value)
        assert abs(value - 1.0999278249210419) <= 1e-12

    # Values from an a off the grid of t as the per-term integrals
    # lam**k I_a^(alpha(k+1)) f(t) gave them; the left series of weight h
    # moved 200 random problems of this kind by at most 8.1e-16.
    @pytest.mark.parametrize(
        "q, alpha, lam, a, a0, coeffs, t, before",
        [
            (0.5, 0.8, 0.3, 0.37, 1.0, (1.0, -0.5, 0.7), 1.0, 2.252485958920297),
            (0.3, 0.5, -0.4, 0.013, 0.5, (0.0, -0.2, 1.0), 0.6, 0.49757255304097425),
            (0.9, 1.0, 0.45, 0.2, -1.0, (0.5, 1.0, 0.0), 0.77, -0.6389620153861649),
            (0.7, 0.65, -0.25, 0.05, 0.0, (0.0, 0.0, 1.0), 2.3, 4.4676096973101656),
        ],
    )
    def test_off_grid_values_are_kept(self, q, alpha, lam, a, a0, coeffs, t, before):
        y = solve_ivp_closed(IVProblem(alpha, lam, a, a0, quadratic(*coeffs)), QParams(q))
        assert rel_err(y(t), before) <= 1e-14

    @pytest.mark.parametrize("t", [0.2, 0.37 * 0.5, -1.0, math.nan])
    def test_point_below_start_rejected(self, p_half, t):
        y = solve_ivp_closed(IVProblem(0.8, 0.3, 0.37, 1.0, quadratic(1.0, -0.5, 0.7)), p_half)
        with pytest.raises(DomainError):
            y(t)

    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_initial_point_gives_initial_value(self, p_half, a, lam):
        # At t = a the forcing integrals are empty; t = a = 0 is the point
        # that Caputo from 0 reads in ivp_residual.
        y = solve_ivp_closed(IVProblem(0.8, lam, a, 1.25, quadratic(1.0, -0.5, 0.7)), p_half)
        assert y(a) == 1.25

    def test_high_order_term_against_exact_value(self):
        # The unit-weight left series at order 1500 from a off the grid of t,
        # I_a^1500 f(t) / ((1-q) t)**1500, against a 50-digit Jackson sum of
        # the definition: 5.028457578120820334656464045859239136.
        f = lambda s: s * s - 0.3 * s + 0.5
        got = _left_series(f, 0.00037, 1500.0, 1.5, -1, 1.0, QParams(0.5625))
        assert rel_err(got, 5.028457578120820334656464045859239136) <= 1e-14


class TestForcingKernel:
    @pytest.mark.parametrize(("q", "alpha", "orders"), [
        (0.3, 0.5, 0), (0.3, 1.0, 0), (0.5, 0.5, 0), (0.5, 1.0, 0), (0.5, 0.4, 1),
        (0.7, 0.5, 4), (0.7, 1.0, 2), (0.9, 0.5, 34), (0.9, 1.0, 17), (0.99, 0.04, 10_185),
    ])
    def test_orders_kept_apart(self, q, alpha, orders):
        # P is the fewest orders that bring the recurrence's gain
        # A(beta) = (-q**beta; q)_inf / (q**beta; q)_inf, beta = alpha (P + 1),
        # within 28.
        p = QParams(q)

        def gain(beta):
            where = ("gain at beta={!r}", beta)
            return (qfrac.special._q_product(-(q**beta), p, where)
                    / qfrac.special._pochhammer_tail(beta, p))

        assert qfrac.ivp._kernel_orders(alpha, p) == orders
        assert gain(alpha * (orders + 1)) <= 28.0
        assert orders == 0 or gain(alpha * orders) > 28.0

    def test_orders_apart_keep_the_kernel_accurate(self, monkeypatch):
        # z = lam ((1-q) t)**alpha = 0.378, so z**18 is above rel_tol and the
        # kernel takes the orders past P = 18.  With no order kept apart the
        # recurrence's rounding reaches 1e-10 here; with P the kernel meets
        # the orders to 1e-14.
        p, f = QParams(0.9), quadratic(1.0, -0.5, 0.7)
        want = sum(3.0**k * left_frac_integral(f, 0.0, 0.9 * (k + 1), 1.0, p) for k in range(60))
        prob = IVProblem(0.9, 3.0, 0.0, 0.0, f)
        assert rel_err(solve_ivp_closed(prob, p)(1.0), want) < 1e-14
        monkeypatch.setattr(qfrac.ivp, "_KERNEL_GAIN", math.inf)
        assert rel_err(solve_ivp_closed(prob, p)(1.0), want) > 1e-11

    @pytest.mark.parametrize(("q", "alpha", "orders", "terms", "value"), [
        (0.9, 0.1, 170, 1_863, 1.3408618799973788),
        (0.99, 0.04, 10_185, 17_158, 1.3929718398458573),
    ])
    def test_rule_ends_the_orders_before_the_kernel(self, q, alpha, orders, terms, value):
        # As q nears 1 or alpha 0, P grows past what the stopping rule needs
        # where z is small: here z = 0.24 and 0.25, and the rule ends the
        # orders after about 20, as it did before the kernel.  Summing all P
        # orders first took 22,075 terms at q = 0.9 and ran out of the
        # 10,000-term budget at q = 0.99.  Each order's series closes on its
        # operand s after 5 samples, and its rest, held to rel_tol (1 - |rho|),
        # leaves the sum within rel_tol of its 40-digit value: 4.5e-14 off
        # where the term test alone was 1.3e-13 off (1,741 terms), and
        # 7.6e-13 off at q = 0.99 where it was 3.1e-12 off (15,799 terms).
        p = QParams(q)
        y = solve_ivp_closed(IVProblem(alpha, 0.3, 0.0, 0.0, lambda s: s), p)
        assert qfrac.ivp._kernel_orders(alpha, p) == orders
        with count_terms() as counter:
            assert rel_err(y(1.0), value) <= p.trunc.rel_tol
        assert counter.total == terms

    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    def test_divergent_forcing_raises(self, p_half, a):
        # |lam ((1-q) t)**alpha| = 10.7 >= 1 at t = 1: the forcing series
        # diverges, and the message names the parameters, before any sample.
        samples = []
        y = solve_ivp_closed(IVProblem(0.9, 20.0, a, 0.0, lambda s: samples.append(s) or s),
                             p_half)
        with pytest.raises(NonConvergence, match=r"t=1\.0, alpha=0\.9, lam=20\.0, q=0\.5"):
            y(1.0)
        assert samples == []

    def test_residual_reads_the_solution_cells(self, p_half):
        # The residual's 19 points lie on the chain of t, whose kernel rows
        # closed(t) has filled.  Order by order the residual took 3,422 terms,
        # 146 of them the head's; the order apart and one kernel series per
        # point took 845 for the forcing, and at P = 0 the one series takes
        # 404.  The head's plan (P = 1, N = 10) was formed at t = 1, where it
        # read (q; q)_inf and its one coefficient from the tail cache; each
        # of the 18 new points sums its 11 terms, 198 with the 7 of the
        # residual's own sums (1,650 when each point read both tails and
        # summed to the stopping rule).  A second residual reads the point
        # memo: it evaluates no point, so it fills no cell.  The solution's
        # own 681 terms (711 when products ran to rel_tol) count its tails.
        prob = IVProblem(0.8, 0.3, 0.0, 1.0, quadratic(1.0, -0.5, 0.7))
        y = solve_ivp_closed(prob, p_half)
        y(1.0)
        with count_terms() as counter:
            first = ivp_residual(prob, y, 1.0, p_half)
        assert counter.total == 609
        free = IVProblem(0.8, 0.3, 0.0, 1.0)
        head = solve_ivp_closed(free, p_half)
        head(1.0)
        with count_terms() as head_counter:
            ivp_residual(free, head, 1.0, p_half)
        assert head_counter.total == 205 == 18 * 11 + 7
        assert counter.total - head_counter.total == 404 < 845
        assert abs(first) <= 1e-13
        diagnostics = {"terms": 681, "evaluations": 19, "head_orders": 1, "head_euler_terms": 10}
        assert y.diagnostics == diagnostics
        assert ivp_residual(prob, y, 1.0, p_half) == first
        assert y.diagnostics == diagnostics

    @pytest.mark.parametrize(("alpha", "points"), [(0.5, 23), (0.8, 19), (0.95, 18)])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_one_series_per_point_at_q_half(self, monkeypatch, p_half, alpha, points, lam):
        # P = 0 at q = 0.5 for alpha >= 0.5: at each of the residual's points
        # the forcing is the kernel's one series, with no order apart.
        calls = []
        monkeypatch.setattr(qfrac.ivp, "_left_series",
                            lambda *args: calls.append(args) or _left_series(*args))
        prob = IVProblem(alpha, lam, 0.0, 1.0, quadratic(1.0, -0.5, 0.7))
        y = solve_ivp_closed(prob, p_half)
        assert abs(ivp_residual(prob, y, 1.0, p_half)) <= 1e-13
        assert y.diagnostics["evaluations"] == points and calls == []

    @pytest.mark.parametrize(("q", "orders"), [(0.3, 0), (0.5, 0), (0.9, 21)])
    def test_split_sum_serves_only_orders_apart(self, monkeypatch, q, orders):
        # At P = 0 the forcing is the kernel's series alone, with its value
        # unchanged; only orders kept apart (P = 21 at q = 0.9) enter
        # _split_sum.
        def split_sum(*args, **kwargs):
            raise AssertionError("_split_sum entered")

        p = QParams(q)
        prob = IVProblem(0.8, 0.3, 0.0, 1.0, quadratic(1.0, -0.5, 0.7))
        want = solve_ivp_closed(prob, p)(1.0)
        monkeypatch.setattr(qfrac.ivp, "_split_sum", split_sum)
        y = solve_ivp_closed(prob, p)
        assert qfrac.ivp._kernel_orders(0.8, p) == orders
        if orders:
            with pytest.raises(AssertionError, match="_split_sum entered"):
                y(1.0)
        else:
            assert y(1.0) == want

    def test_head_reads_only_its_first_terms(self, monkeypatch, p_half):
        # P = 1 at q = 0.5 for alpha = 0.8: the head's plan, formed at the
        # first point past a = 0, reads (q; q)_inf and its one coefficient
        # (q**(0.8 k + 1); q)_inf, k = 0, from the tail cache, both x = 1.0;
        # no point after it reads a tail, and y(0) = a0 reads nothing.
        calls = []
        inner = qfrac.special._pochhammer_tail
        monkeypatch.setattr(qfrac.special, "_pochhammer_tail",
                            lambda x, p: calls.append(x) or inner(x, p))
        prob = IVProblem(0.8, 0.3, 0.0, 1.0)
        y = solve_ivp_closed(prob, p_half)
        assert _euler_split(0.8, 1.0, p_half) == 1
        for t in [0.0] + [0.5**i for i in range(18)]:
            read = len(calls)
            y(t)
            assert calls[read:] == ([1.0, 1.0] if t == 1.0 else [])
        residual = ivp_residual(prob, y, 1.0, p_half)
        assert abs(residual) <= 1e-13 and y.diagnostics["evaluations"] == 19
        assert calls == [1.0] * 2


class TestHeadPlan:
    """The closed form's head from a = 0 and q_mittag_leffler from z0 = 0:
    the first K terms alone, or P terms and N of Euler's expansion, from one
    list of coefficients grown as far as a point needs (see ivp._ZeroHead)."""

    @staticmethod
    def spy_tails(monkeypatch):
        calls = []
        inner = qfrac.special._pochhammer_tail
        monkeypatch.setattr(qfrac.special, "_pochhammer_tail",
                            lambda x, p: calls.append(x) or inner(x, p))
        return calls

    def test_tails_are_read_once_per_solution(self, monkeypatch):
        # P = 27 at q = 0.9 for alpha = 0.8.  At t = 1 (|zeta| = 0.048) the
        # rest past 17 terms is below 2**-54 c_0: the first point reads
        # (q; q)_inf and 17 coefficients, t = 2 (0.083) 4 more, t = 6 (0.199)
        # takes the full plan and the last 6, and the points below read none.
        # A second solution of the same problem grows its own list and reads
        # them again.
        p = QParams(0.9)
        orders = _euler_split(0.8, 1.0, p)
        assert orders == 27
        calls = self.spy_tails(monkeypatch)
        want = [1.0] + [0.8 * k + 1.0 for k in range(orders)]
        for _ in range(2):
            y = solve_ivp_closed(IVProblem(0.8, 0.3, 0.0, 1.0), p)
            read, counts = len(calls), []
            for t in (1.0, 0.9, 0.81, 2.0, 0.5, 6.0, 3.0):
                before = len(calls)
                y(t)
                counts.append(len(calls) - before)
            assert counts == [18, 0, 0, 4, 0, 6, 0]
            assert calls[read:] == want

    def test_cold_call_near_q_one_reads_the_tails_it_needs(self, monkeypatch):
        # At q = 0.99, alpha = 0.5 P = 909, but |zeta| = 0.001 at z = 1: the
        # rest past 29 terms is below 2**-54 c_0, and a single call reads
        # (q; q)_inf and those 29 tails, where the full plan read 910.
        calls = self.spy_tails(monkeypatch)
        mp, p = MLParams(0.5, 1.0, 0.01), QParams(0.99)
        assert _euler_split(mp.alpha, mp.beta, p) == 909
        assert q_mittag_leffler(mp, 1.0, p) == 1.0113774766173935
        assert len(calls) == 30

    def test_each_point_notes_its_fixed_length(self, p_half):
        # The tails note their terms once, at the point that forms the plan;
        # every point after it notes P + N.
        y = solve_ivp_closed(IVProblem(0.8, 0.3, 0.0, 1.0), p_half)
        length = y.diagnostics["head_orders"] + y.diagnostics["head_euler_terms"]
        assert length == 11
        with count_terms() as first:
            y(1.0)
        assert first.total > length
        for t in (0.5, 2.0, 0.1):
            with count_terms() as counter:
                y(t)
            assert counter.total == length
        assert y.diagnostics["terms"] == first.total + 3 * length

    def test_head_takes_no_stopping_rule(self, monkeypatch, p_half):
        # The head from 0 is summed in full: one cut sum of core._accumulate
        # per point, of P + N terms for the closed form (11) and for
        # q_mittag_leffler at beta = 0.5 (12), and of m + 1 for Picard's head.
        calls = []
        monkeypatch.setattr(qfrac.ivp, "_accumulate",
                            lambda *args, **kwargs: calls.append(kwargs.get("count"))
                            or _accumulate(*args, **kwargs))
        y = solve_ivp_closed(IVProblem(0.8, -0.3, 0.0, 1.0), p_half)
        for t in (1.0, 0.5, 2.0):
            assert math.isfinite(y(t))
        assert math.isfinite(q_mittag_leffler(MLParams(0.8, 0.5, 0.3), 1.0, p_half))
        assert calls == [11, 11, 11, 12]
        assert math.isfinite(solve_ivp_picard(IVProblem(0.8, -0.3, 0.0, 1.0), 5, p_half)(1.0))
        assert calls[4:] == [6]

    def test_expansion_is_formed_only_for_the_full_plan(self, monkeypatch, p_half):
        # Picard's cut head reads no Euler expansion, and forms none; the
        # closed form forms it once, for its diagnostics and every point.
        calls = []
        inner = qfrac.ivp._euler_multipliers
        monkeypatch.setattr(qfrac.ivp, "_euler_multipliers",
                            lambda *args: calls.append(args) or inner(*args))
        prob = IVProblem(0.7, 0.3, 0.0, 1.0)
        picard = solve_ivp_picard(prob, 5, p_half)
        for t in (1.0, 0.5, 2.0):
            picard(t)
        assert calls == []
        closed = solve_ivp_closed(prob, p_half)
        for t in (1.0, 0.5, 2.0):
            closed(t)
        assert len(calls) == 1 and closed.diagnostics["head_euler_terms"] >= 1

    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_budget_below_the_length_raises_first(self, monkeypatch, lam):
        # P + N = 11 at q = 0.5 for alpha = 0.8: a budget of 10 raises before
        # any term or tail, at the solution's first point and for a single
        # series.
        calls = self.spy_tails(monkeypatch)
        p = QParams(0.5, Truncation(max_terms=10))
        y = solve_ivp_closed(IVProblem(0.8, lam, 0.0, 1.0), p)
        assert y.diagnostics["head_orders"] + y.diagnostics["head_euler_terms"] == 11
        where = (rf"^q-Mittag-Leffler at z=1\.0, z0=0\.0, alpha=0\.8, beta=1\.0, "
                 rf"lam={lam!r}, q=0\.5: 11 terms exceed the budget of 10$")
        with count_terms() as counter:
            with pytest.raises(NonConvergence, match=where):
                y(1.0)
            with pytest.raises(NonConvergence, match=where):
                q_mittag_leffler(MLParams(0.8, 1.0, lam), 1.0, p)
        assert calls == [] and counter.total == 0
        # At 11 the head's check passes, and the first tail meets its own.
        within = QParams(0.5, Truncation(max_terms=11))
        with pytest.raises(NonConvergence, match=r"^\(q\*\*x; q\)_inf at x=1\.0, q=0\.5: "):
            q_mittag_leffler(MLParams(0.8, 1.0, lam), 1.0, within)

    def test_a_call_after_cut_is_a_first_call(self):
        # cut grows the coefficient list and sets e_0 too.  A call after it
        # still checks its length and looks past c_0 = 0 (beta = 0) for the
        # first coefficient that is not 0, so it returns what a fresh head
        # returns; it raised "the bound on the rest underflowed" when e_0
        # alone marked the first call.
        mp, p = MLParams(1e-5, 0.0, 0.3), QParams(0.5)
        fresh = qfrac.ivp._ZeroHead(mp, p)(1.7)
        head = qfrac.ivp._ZeroHead(mp, p)
        head.cut(1.7, 1)
        assert head(1.7) == fresh == pytest.approx(8.4876e-06, rel=1e-4)

    def test_plans_live_in_their_solutions(self, monkeypatch):
        # Each solution grows one list of coefficients and forms one
        # expansion, and keeps them: two solutions of different alpha share
        # no part of theirs, and many solutions leave every container of the
        # module as it was.
        heads = []
        inner = qfrac.ivp._ZeroHead._grow

        def spy(head, count, where):
            heads.append(head)
            return inner(head, count, where)

        monkeypatch.setattr(qfrac.ivp._ZeroHead, "_grow", spy)
        p = QParams(0.7)
        first, second = (solve_ivp_closed(IVProblem(alpha, 0.3, 0.0, 1.0), p)
                         for alpha in (0.6, 0.85))
        for y in (first, second, first, second):
            for t in (1.0, 0.7, 1.5):
                y(t)
        one, other = dict.fromkeys(heads)
        parts = lambda head: (head._coefs, head._euler, head._lifts)
        assert all(a is not b and a != b for a, b in zip(parts(one), parts(other)))
        sizes = lambda: {name: len(value) for name, value in vars(qfrac.ivp).items()
                         if isinstance(value, (dict, list, set))}
        before = sizes()
        for alpha in (0.31, 0.47, 0.52, 0.66, 0.78, 0.83, 0.99):
            y = solve_ivp_closed(IVProblem(alpha, -0.2, 0.0, 1.0), p)
            for t in (1.0, 0.7, 0.49):
                y(t)
        assert sizes() == before and len(dict.fromkeys(heads)) == 9

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize(("alpha", "beta"), [(0.4, 1.0), (0.9, 0.5), (1.3, 2.5), (0.5, -1.5)])
    def test_euler_rest_is_below_the_rounding(self, q, alpha, beta):
        # The factors are the ratios of the terms' sizes |e_(n+1) / e_n|, and
        # past N the expansion's terms at |zeta| = 0.99 add up to less than
        # 2**-53 of its first term.
        p = QParams(q)
        orders = _euler_split(alpha, beta, p)
        multipliers = qfrac.ivp._euler_multipliers(alpha, beta + alpha * orders, q)
        sizes = [1.0]
        for n in range(len(multipliers) + 40):
            y = q ** (beta + alpha * orders + n)
            sizes.append(sizes[-1] * y / (1.0 - q ** (n + 1)))
        assert sizes[1:len(multipliers) + 1] == pytest.approx([
            abs(m) for m in itertools.accumulate(multipliers, operator.mul)], rel=1e-12)
        length = len(multipliers) + 1
        for zeta in (0.99, -0.99):
            first = 1.0 / abs(1.0 - zeta)
            rest = sum(e / abs(1.0 - zeta * q ** (alpha * n))
                       for n, e in enumerate(sizes) if n >= length)
            assert rest <= 2.0**-53 * first


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.5, 1.0),
    lam=st.floats(-0.4, 0.4),
    from_origin=st.booleans(),
    j=st.integers(1, 4),
    coeffs=st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))),
)
def test_forced_closed_form_solves_the_equation(q, alpha, lam, from_origin, j, coeffs):
    # At t = a q**-j (t = q**(4-j) from the origin) the forced closed form
    # either meets the equation to 1e-5 or fails through the error channel.
    p = QParams(q)
    a = 0.0 if from_origin else q**4
    t = q ** (4 - j)
    prob = IVProblem(alpha, lam, a, 1.0, quadratic(*coeffs))
    try:
        residual = ivp_residual(prob, solve_ivp_closed(prob, p), t, p)
    except QCalculusError:
        return
    assert math.isfinite(residual)
    assert abs(residual) <= 1e-5


def chained_picard(alpha, lam, a, a0, f, m, p):
    """Successive approximation as a chain of memoised left_frac_integral
    closures, one per iterate: the definition, a route independent of the
    series that solve_ivp_picard cuts."""
    forcing = None if f is None else cache(lambda t: left_frac_integral(f, a, alpha, t, p))
    y = lambda t: a0
    for _ in range(m):

        @cache
        def y(t, prev=y):
            value = a0 + lam * left_frac_integral(prev, a, alpha, t, p)
            return value if forcing is None else value + forcing(t)

    return y


def scale_points(q, a):
    """t = a q**-j for j = 1..4 (t = q**(4 - j) when a = 0)."""
    base = a if a > 0.0 else q**4
    return [base * q**-j for j in range(1, 5)]


# q = 0.5, alpha = 0.9, lam = 0.3, a0 = 1, forcing s, m = 5 at t = q**3 .. 1:
# iterate and forcing points the chained closures evaluate, per start a, a
# bound for the points a solution evaluates.
CHAINED_EVALUATIONS = {0.0: 598, 0.5**4: 24}


class TestPicardLattice:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    def test_matches_chained_integrals(self, q, alpha, lam):
        p = QParams(q)
        for a in (0.0, q**4):
            for f in (None, lambda s: s):
                for m in (0, 1, 5):
                    y = solve_ivp_picard(IVProblem(alpha, lam, a, 1.0, f), m, p)
                    want = chained_picard(alpha, lam, a, 1.0, f, m, p)
                    for t in scale_points(q, a):
                        assert y(t) == pytest.approx(want(t), rel=1e-12, abs=0.0), (a, f, m, t)

    @pytest.mark.parametrize("a", sorted(CHAINED_EVALUATIONS))
    def test_cells_are_shared_between_points(self, a):
        q = 0.5
        p = QParams(q)
        prob = IVProblem(0.9, 0.3, a, 1.0, lambda s: s)
        points = (q**3, q**2, q, 1.0)
        counts, values = [], []
        for order in (points, points[::-1]):
            y = solve_ivp_picard(prob, 5, p)
            values.append({t: y(t) for t in order})
            counts.append(y.diagnostics["evaluations"])
        assert values[0] == values[1]
        assert counts[0] == counts[1] <= CHAINED_EVALUATIONS[a]

    def test_frozen_problem_term_count(self, p_half):
        # The series sum_k 0.3**k / Gamma_q(0.84 k + 1), k <= 10, is
        # 1.398405088791997 to 16 digits; one point, its 11 terms and their
        # q-Pochhammer tails, one a term, each stopped where its closed tail
        # is exact (473 when they ran to rel_tol, 859 with two a term, as
        # ratios of coefficients).  Iterates summed whole on lattice columns
        # took 77,910 terms over 1,855 evaluations, and increment columns
        # 3,451 terms over 270.
        y = solve_ivp_picard(IVProblem(0.84, 0.3, 0.0, 1.0), 10, p_half)
        with count_terms() as counter:
            value = y(1.0)
        assert counter.total == 286
        assert y.diagnostics["evaluations"] == 1
        assert counter.total < 77_910 and y.diagnostics["evaluations"] < 1_855
        assert rel_err(value, 1.3984050887919977) < 1e-14

    @pytest.mark.parametrize("t", [0.37, 0.5**5, -1.0, math.nan])
    def test_points_off_the_time_scale_rejected(self, p_half, t):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, 0.5**4, 1.0, lambda s: s), 3, p_half)
        message = "t=" if not math.isnan(t) else "^IVPSolution: t must be finite, got nan$"
        with pytest.raises(DomainError, match=message):
            y(t)

    @pytest.mark.parametrize("a", [0.0, 0.5**4])
    def test_initial_point_gives_initial_value(self, p_half, a):
        y = solve_ivp_picard(IVProblem(0.9, 0.3, a, 2.5, lambda s: s), 3, p_half)
        assert y(a) == 2.5

    def test_head_past_the_budget_raises_before_summing(self):
        # Picard(20000)'s head has 20,001 terms, a length known up front.
        with count_terms() as counter, pytest.raises(NonConvergence, match=(
                r"^q-Mittag-Leffler at z=1\.0, z0=0\.0, alpha=0\.5, beta=1\.0, lam=0\.3, "
                r"q=0\.5: 20001 terms exceed the budget of 10000$")):
            solve_ivp_picard(IVProblem(0.5, 0.3, 0.0, 1.0), 20000, QParams(0.5))(1.0)
        assert counter.total == 0

    def test_budget_exhaustion_from_origin(self):
        # 60 terms cover q_gamma's products; the forcing series' terms fall
        # like q**(0.1 i) with no settled ratio and need more.
        p = QParams(0.5, Truncation(max_terms=60))
        wobble = chain_wobble(0.5)
        y = solve_ivp_picard(
            IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s**-0.9 * wobble(s)), 2, p
        )
        with pytest.raises(NonConvergence, match=r"forcing at t=1\.0.*did not fire"):
            y(1.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 3, 25])
    @pytest.mark.parametrize("lam", [0.3, -0.3])
    @pytest.mark.parametrize("forcing", [quadratic(1.0, 1.0, -1.0), math.exp], ids=["poly", "exp"])
    def test_forcing_is_the_sum_of_its_orders(self, q, m, lam, forcing):
        # The forcing is one series over the summed weights of its m orders;
        # it equals the orders lam**k I_a^(alpha(k+1)) f(t), k < m, each
        # through the public operator.  Both stop under the rule at rel_tol,
        # at different terms: the worst gap, 2.1e-14 at q = 0.9, is within
        # the bound.
        p = QParams(q)
        for a in (0.0, q**4):
            y = solve_ivp_picard(IVProblem(0.8, lam, a, 1.0, forcing), m, p)
            head = solve_ivp_picard(IVProblem(0.8, lam, a, 1.0), m, p)
            for t in (1.0, q**2 if a == 0.0 else q**3):
                orders = math.fsum(lam**k * left_frac_integral(forcing, a, 0.8 * (k + 1), t, p)
                                   for k in range(m))
                assert rel_err(y(t), head(t) + orders) < 5e-14, (a, t)

    @pytest.mark.parametrize(("q", "terms"), [(0.3, 16), (0.5, 25), (0.9, 134)])
    def test_forcing_terms_do_not_grow_with_the_iterations(self, q, terms):
        # The terms of the forcing alone, the forced problem's less the
        # unforced one's: one series whatever m.  Order by order they were
        # 17, 26 and 135 at m = 1 and 425, 556 and 3,725 at m = 25.
        p, f = QParams(q), quadratic(1.0, 1.0, -1.0)
        for m in (1, 3, 25):
            counts = []
            for forcing in (f, None):
                y = solve_ivp_picard(IVProblem(0.8, 0.3, 0.0, 1.0, forcing), m, p)
                y(1.0)
                counts.append(y.diagnostics["terms"])
            assert counts[0] - counts[1] == terms, m

    def test_forcing_past_the_budget_raises_before_any_sample(self):
        # a0 = 0 sums no head; the forcing's m orders, a length known up
        # front, are checked before any weight is formed.
        samples = []
        y = solve_ivp_picard(IVProblem(0.5, 0.3, 0.0, 0.0, samples.append), 20000, QParams(0.5))
        with count_terms() as counter, pytest.raises(NonConvergence, match=(
                r"^forcing at t=1\.0, alpha=0\.5, lam=0\.3, q=0\.5: 20000 terms exceed the "
                r"budget of 10000$")):
            y(1.0)
        assert counter.total == 0 and samples == []

    @staticmethod
    def evaluate_in_threads(shared, points):
        """Six threads evaluating shared at the points at once, each in its
        own order first: the values each thread saw."""
        got = {}

        def worker(i):
            got[i] = [shared(t) for t in points[i % 2::2] + points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(got) == 6
        return got

    def test_threads_sharing_a_solution(self, p_half):
        # The memo is shared state: threads evaluating one solution at once
        # must see the values, and compute the points, of one thread alone.
        prob = IVProblem(0.9, 0.3, 0.0, 1.0, lambda s: s)
        points = [0.5**j for j in range(8)]
        alone = solve_ivp_picard(prob, 6, p_half)
        want = [alone(t) for t in points]
        shared = solve_ivp_picard(prob, 6, p_half)
        for i, values in self.evaluate_in_threads(shared, points).items():
            assert values[-len(points):] == want
        assert shared.diagnostics["evaluations"] == alone.diagnostics["evaluations"]

    def test_threads_sharing_a_head_plan(self):
        # The closed form's head from a = 0 forms its plan at the first point
        # any thread evaluates, once: the same values and terms as one thread.
        prob = IVProblem(0.7, -0.3, 0.0, 1.0)
        p = QParams(0.9)
        points = [0.9**j for j in range(-4, 12)]
        alone = solve_ivp_closed(prob, p)
        want = [alone(t) for t in points]
        shared = solve_ivp_closed(prob, p)
        for i, values in self.evaluate_in_threads(shared, points).items():
            assert values[-len(points):] == want
        assert shared.diagnostics == alone.diagnostics

    def test_threads_sharing_lattice_cells(self):
        # The closed form on the time scale grows its cells at the deepest
        # point any thread asks for, each cell once, in whatever order the
        # threads come: the same values and terms as one thread.
        p, a = QParams(0.9), 0.9**20
        prob = IVProblem(0.7, -0.3, a, 1.0, lambda s: 1.0 - s)
        points = [a / 0.9**j for j in (20, 3, 11, 0, 17, 6, 1, 14, 9)]
        alone = solve_ivp_closed(prob, p)
        want = [alone(t) for t in points]
        shared = solve_ivp_closed(prob, p)
        for i, values in self.evaluate_in_threads(shared, points).items():
            assert values[-len(points):] == want
        assert shared.diagnostics == alone.diagnostics == {"terms": 190, "evaluations": 9}


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.2, 0.6),
    alpha=st.floats(0.3, 1.0),
    lam=st.floats(-0.5, 0.5),
    m=st.integers(0, 4),
    from_origin=st.booleans(),
    forced=st.booleans(),
    j=st.integers(1, 4),
)
def test_picard_increments_match_chained_integrals(q, alpha, lam, m, from_origin, forced, j):
    # The series cut after term m against the iterates y_k as chained
    # left_frac_integral closures, at t = q**(4 - j).
    p = QParams(q)
    a = 0.0 if from_origin else q**4
    f = quadratic(1.0, -0.5, 0.7) if forced else None
    t = q ** (4 - j)
    y = solve_ivp_picard(IVProblem(alpha, lam, a, 1.0, f), m, p)
    want = chained_picard(alpha, lam, a, 1.0, f, m, p)
    assert y(t) == pytest.approx(want(t), rel=1e-12, abs=0.0)


def test_zero_rate_takes_one_forcing_integral(monkeypatch):
    # With lam = 0 every later term of the forcing series from a = 0 is
    # 0.0 * integral.  (On the time scale of a > 0 the cells take lam = 0 as
    # any other lam; see TestLatticeCells.)
    orders = []

    def recorded(f, a, order, t, p):
        orders.append(order)
        return left_frac_integral(f, a, order, t, p)

    monkeypatch.setattr(qfrac.ivp, "left_frac_integral", recorded)
    p, alpha = QParams(0.5), 0.8
    f = quadratic(1.0, -0.5, 0.7)
    y = solve_ivp_closed(IVProblem(alpha, 0.0, 0.0, 0.0, f), p)
    assert y(1.0) == left_frac_integral(f, 0.0, alpha, 1.0, p)
    assert orders == [alpha]


POINT_EXPONENTS = st.integers(-2, 4)
SMALL_M = st.integers(0, 5)


def _finite_or_error(fn, *args):
    try:
        value = fn(*args)
    except QCalculusError:
        return
    assert math.isfinite(value)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    start=st.sampled_from(["origin", "grid", "off-grid"]),
)
def test_left_integral_is_finite_or_an_error(q, alpha, i, m, start):
    t = q**i
    a = {"origin": 0.0, "grid": t * q**m, "off-grid": 0.37 * t * q**m}[start]
    _finite_or_error(left_frac_integral, quadratic(1.0, -0.5, 0.7), a, alpha, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    below=st.booleans(),
    caputo=st.booleans(),
)
def test_left_derivatives_off_grid_are_finite_or_an_error(q, alpha, i, m, below, caputo):
    # a off the grid of t, below t (offset lattice series) or above it
    # (Jackson route); Riemann samples the integral on both sides of a.
    t = q**i
    a = 0.37 * t * q**m if below else t * q**-m / 0.37
    op = left_caputo if caputo else left_riemann_deriv
    _finite_or_error(op, quadratic(1.0, -0.5, 0.7), a, alpha, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    from_origin=st.booleans(),
    caputo=st.booleans(),
)
def test_left_derivatives_on_lattice_are_finite_or_an_error(q, alpha, i, m, from_origin, caputo):
    t = q**i
    a = 0.0 if from_origin else t * q**m
    op = left_caputo if caputo else left_riemann_deriv
    _finite_or_error(op, quadratic(1.0, -0.5, 0.7), a, alpha, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    infinite=st.booleans(),
)
def test_right_integral_is_finite_or_an_error(q, alpha, i, m, infinite):
    t = q**i
    b = math.inf if infinite else t * q**-m
    _finite_or_error(right_frac_integral, lambda s: s**-3.0, b, alpha, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 2.5),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    infinite=st.booleans(),
    caputo=st.booleans(),
)
def test_right_derivatives_are_finite_or_an_error(q, alpha, i, m, infinite, caputo):
    t = q**i
    b = math.inf if infinite else t * q**-m
    op = right_caputo if caputo else right_riemann_deriv
    _finite_or_error(op, lambda s: s**-3.0, b, alpha, t, QParams(q))


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    order=st.integers(0, 10**12),
    i=POINT_EXPONENTS,
    m=SMALL_M,
    place=st.sampled_from(["origin", "zero", "below", "off-grid", "above"]),
)
def test_integer_factorial_power_is_finite_or_an_error(q, order, i, m, place):
    # Orders past the term budget must fail through the error channel rather
    # than multiply that many factors; t = 0 has a closed form.
    t = 0.0 if place == "origin" else q**i
    s = {"origin": q**i, "zero": 0.0, "below": t * q**m,
         "off-grid": 0.37 * t * q**m, "above": t * q**-m}[place]
    _finite_or_error(q_factorial_power, t, s, float(order), QParams(q))


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 1.0),
    lam=st.floats(-0.4, 0.4),
    from_origin=st.booleans(),
    j=st.integers(1, 4),
    m=SMALL_M,
    forced=st.booleans(),
)
def test_picard_is_finite_or_an_error(q, alpha, lam, from_origin, j, m, forced):
    a = 0.0 if from_origin else q**4
    f = quadratic(1.0, -0.5, 0.7) if forced else None
    y = solve_ivp_picard(IVProblem(alpha, lam, a, 1.0, f), m, QParams(q))
    _finite_or_error(y, q ** (4 - j))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.3, 1.0),
    lam=st.floats(-0.4, 0.4),
    from_origin=st.booleans(),
    j=st.integers(-2, 4),
    frac=st.floats(0.05, 0.95),
    forced=st.booleans(),
)
def test_closed_form_off_the_time_scale_is_finite_or_an_error(
    q, alpha, lam, from_origin, j, frac, forced
):
    # t = a q**-(j + frac) lies between two points of the time scale when
    # a > 0 (below a for j < 0); with a = 0 every t > 0 is admissible.  The
    # equation holds only on the time scale, so no residual is asserted.
    a = 0.0 if from_origin else q**4
    t = (q**4 if from_origin else a) * q ** -(j + frac)
    f = quadratic(1.0, -0.5, 0.7) if forced else None
    y = solve_ivp_closed(IVProblem(alpha, lam, a, 1.0, f), QParams(q))
    _finite_or_error(y, t)


# Real arguments, tiny ones and ones within 1e-15 of the poles 0, -1, -2.
NEAR_POLES = st.one_of(
    st.floats(-6.0, 6.0),
    st.floats(1e-300, 1e-15),
    st.floats(-1e-15, 1e-15),
    st.builds(lambda n, e: n + e, st.sampled_from([-1.0, -2.0]), st.floats(-1e-15, 1e-15)),
)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.2, 0.95), alpha=NEAR_POLES)
def test_q_gamma_is_finite_or_an_error(q, alpha):
    _finite_or_error(q_gamma, alpha, QParams(q))


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.2, 0.95),
    alpha=NEAR_POLES,
    i=POINT_EXPONENTS,
    m=SMALL_M,
    place=st.sampled_from(["zero", "below", "off-grid", "above"]),
)
def test_fractional_factorial_power_is_finite_or_an_error(q, alpha, i, m, place):
    t = q**i
    s = {"zero": 0.0, "below": t * q**m, "off-grid": 0.37 * t * q**m,
         "above": t * q**-m}[place]
    _finite_or_error(q_factorial_power, t, s, alpha, QParams(q))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.2, 0.95), t=st.one_of(st.floats(-12.0, 12.0), st.floats()))
def test_q_exponentials_are_finite_or_an_error(q, t):
    _finite_or_error(q_exp_e, t, QParams(q))
    _finite_or_error(q_exp_E, t, QParams(q))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 0.8),
    alpha=st.floats(0.2, 2.0),
    beta=NEAR_POLES,
    lam=st.floats(-2.0, 2.0),
    z=st.floats(0.0, 2.0),
    z0=st.sampled_from([0.0, 0.37, 1.0]),
)
def test_q_mittag_leffler_is_finite_or_an_error(q, alpha, beta, lam, z, z0):
    _finite_or_error(q_mittag_leffler, MLParams(alpha, beta, lam, z0), z, QParams(q))

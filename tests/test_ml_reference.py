"""The q-Mittag-Leffler series, the closed form's forcing from 0 and the left
and right lattice series against 40-digit decimal references.

The series' reference sums the definition, term k = (1-q)**(beta-1) zeta**k
(q**(alpha k + beta); q)_inf / (q; q)_inf with zeta = lam ((1-q) z)**alpha,
in decimal arithmetic at 40 digits from the float arguments, each infinite
product taken factor by factor.  Products and sums run until their next
factor or term is below 1e-25 of the whole, so the reference is good to
about 1e-24: far below double rounding, and sharing no code with either
route (ivp._ZeroHead's first terms alone, or its first P terms and a fixed
length of Euler's expansion past them).  The
forcing's sums the q-power rule order by order, sharing no code with the
closed form's kernel series.  The closed form on the time scale, a
recursion over lattice cells, is checked against its definition: the head's
finite quotient and the forcing's q-power rule from a.  The left
lattice series from 0 and the left integral from starts above t next to the
grid are checked against the q-power rule, as is left Caputo from 0 (the
rule's terms of degree >= n), the right series to infinity against its own
series summed in decimal, and right Caputo to a finite b against its
definition summed in decimal.
"""

import decimal
import math
import random
from decimal import Decimal

import pytest

import qfrac.ivp
from qfrac import (IVProblem, MLParams, NonConvergence, QParams, Truncation, left_caputo,
                   left_frac_integral, q_gamma, q_mittag_leffler, right_caputo,
                   right_frac_integral, solve_ivp_closed, solve_ivp_picard)
from qfrac.checks import _right_caputo_composed
from qfrac.ivp import _euler_split, _ZeroHead

_CONTEXT = decimal.Context(prec=40)
_CUT = Decimal("1e-25")
_EPS = 2.0**-52


def q_product(c: Decimal, q: Decimal) -> Decimal:
    """(c; q)_inf at 40 digits: the factors 1 - c q**j while |c q**j| >= 1e-25."""
    with decimal.localcontext(_CONTEXT):
        product = Decimal(1)
        while abs(c) >= _CUT:
            product *= 1 - c
            c *= q
        return product


def ml_from_zero(alpha: float, beta: float, lam: float, z: float, q: float,
                 count: int | None = None) -> tuple[float, float]:
    """E_{alpha,beta}(lam; z) from z0 = 0, or its first count terms, and the
    condition sum_k |term k| / |sum|.

    Once alpha k + beta > 0 every product is in (0, 1), so the terms left
    are below |zeta|**k / (1 - |zeta|) times the scale; the whole sum stops
    when that is below 1e-25 of it.  A term on a pole of q_gamma (alpha k +
    beta a non-positive integer, exact in decimal from binary floats) has
    the factor 1 - q**0 = 0.
    """
    with decimal.localcontext(_CONTEXT):
        qd, a, b = Decimal(q), Decimal(alpha), Decimal(beta)
        zeta = Decimal(lam) * ((1 - qd) * Decimal(z)) ** a
        total, mass, power, k = Decimal(0), Decimal(0), Decimal(1), 0
        while True:
            term = power * q_product(qd ** (a * k + b), qd)
            total += term
            mass += abs(term)
            power *= zeta
            k += 1
            if k == count or count is None and a * k + b > 0 and (
                    abs(power) <= _CUT * abs(total) * (1 - abs(zeta))):
                break
        scale = (1 - qd) ** (b - 1) / q_product(qd, qd)
        return float(scale * total), float(mass / abs(total))


def test_product_against_the_pentagonal_series():
    # (q; q)_inf = sum_k (-1)**k q**(k (3k - 1) / 2) over all integers k
    # (Euler's pentagonal number theorem), a sum, not a product.
    with decimal.localcontext(_CONTEXT):
        for q in (Decimal("0.3"), Decimal("0.5"), Decimal("0.9")):
            series = sum((-1 if k % 2 else 1) * q ** (k * (3 * k - 1) // 2)
                         for k in range(-60, 61))
            assert abs(q_product(q, q) - series) <= Decimal("1e-24")


def _sweep():
    """60 seeded cases: q in {0.3, 0.5, 0.7, 0.9}, alpha in (0.3, 1.5), beta 1
    or in (-1, 3), lam of either sign, |zeta| in (0.05, 0.9)."""
    rng = random.Random(20261019)
    for _ in range(60):
        q = rng.choice((0.3, 0.5, 0.7, 0.9))
        alpha = rng.uniform(0.3, 1.5)
        beta = rng.choice((1.0, rng.uniform(-1.0, 3.0)))
        lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        zeta = rng.uniform(0.05, 0.9)
        yield q, alpha, beta, lam, (zeta / abs(lam)) ** (1.0 / alpha) / (1.0 - q)


# The worst error over the sweep, in units of eps times the condition
# (measured, and pinned with a margin): 27.4 over the 59 cases (6.1e-15
# relative, at q = 0.9, where each tail takes 265 rounded factors; 24.9 when
# the expansion ran to the stopping rule), against 1,515 for the plain terms
# to the stopping rule on the same cases.
EULER_BOUND = 32.0


def test_sweep_over_both_routes():
    """Each case against the reference, in units of eps times its
    condition: at |zeta| >= 0.05 every case takes Euler's expansion past P
    (the first terms alone are test_first_terms_alone_are_the_long_sum's).
    The one alternating series whose hump the growth watch rejects
    (q = 0.9, alpha = 1.49) raises the error that names it."""
    worst, cases, rejected = 0.0, 0, 0
    for q, alpha, beta, lam, z in _sweep():
        p, mp = QParams(q), MLParams(alpha, beta, lam)
        head = _ZeroHead(mp, p)
        try:
            got = head(z)
        except NonConvergence as error:
            assert "grew past the growth watch" in str(error) and lam < 0.0
            rejected += 1
            continue
        assert head._euler is not None and got == q_mittag_leffler(mp, z, p)
        cases += 1
        want, condition = ml_from_zero(alpha, beta, lam, z, q)
        worst = max(worst, abs(got - want) / (_EPS * condition * abs(want)))
    assert rejected == 1 and cases == 59
    assert worst <= EULER_BOUND


def test_first_terms_alone_are_the_long_sum():
    # 40 seeded cases as _sweep's, at q in {0.5, 0.7, 0.9} and |zeta| in
    # (1e-6, 0.1).  Where |zeta| makes the rest past K <= P terms below
    # 2**-54 |c_0| (17 cases) the head sums those K alone, and its value is
    # the direct sum of 80 terms of the same coefficients, bit for bit.
    rng, short = random.Random(20261020), 0
    for _ in range(40):
        q = rng.choice((0.5, 0.7, 0.9))
        alpha = rng.uniform(0.3, 1.5)
        beta = rng.choice((1.0, rng.uniform(-1.0, 3.0)))
        lam = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        z = (10 ** rng.uniform(-6, -1) / abs(lam)) ** (1.0 / alpha) / (1.0 - q)
        p, mp = QParams(q), MLParams(alpha, beta, lam)
        head = _ZeroHead(mp, p)
        got = head(z)
        if head._euler is None:
            short += 1
            assert len(head._coefs) <= head.orders
            assert got == _ZeroHead(mp, p).cut(z, 80)
    assert short == 17


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("beta", [1.0, 0.37, 2.5, -0.5])
def test_zero_rate_gives_the_first_term(q, beta):
    # lam = 0: every term after the first is 0, and E = 1 / Gamma_q(beta).
    # The worst is 12.9 eps, at q = 0.9, where each product takes 265
    # rounded factors.
    p = QParams(q)
    want, _ = ml_from_zero(0.7, beta, 0.0, 1.3, q)
    got = q_mittag_leffler(MLParams(0.7, beta, 0.0), 1.3, p)
    assert abs(got - want) <= 16 * _EPS * abs(want)
    assert abs(got * q_gamma(beta, p) - 1.0) <= 1e-13


@pytest.mark.parametrize(("alpha", "beta", "poles"), [(0.5, -0.5, [1]), (1.0, -1.0, [0, 1]),
                                                      (0.25, -0.75, [3])])
def test_pole_within_the_first_terms_is_zero(alpha, beta, poles):
    # alpha k + beta = 0 or -1 for the k in poles, all below P: those terms
    # are exactly 0, and the sum, which takes Euler's expansion past P, meets
    # the reference.
    p, lam, z = QParams(0.5), 0.6, 1.1
    mp = MLParams(alpha, beta, lam)
    orders = _euler_split(alpha, beta, p)
    assert orders is not None and max(poles) < orders
    head = _ZeroHead(mp, p)
    for k in poles:
        assert head.cut(z, k + 1) - head.cut(z, k) == 0.0
    want, condition = ml_from_zero(alpha, beta, lam, z, 0.5)
    assert abs(q_mittag_leffler(mp, z, p) - want) <= EULER_BOUND * _EPS * condition * abs(want)


# Picard's cut head from a = 0 (a0 = 1) and two cut sums against the
# 40-digit partial sums of their terms: the worst is 2.25 eps times the
# condition, at q = 0.9, lam = -0.6, m = 5 (1.75 when the term rule summed
# the plain terms one by one).
CUT_BOUND = 3.0
PICARD_HEADS = [(q, lam, m, t) for q in (0.5, 0.9) for m in (5, 25)
                for lam, t in ((0.3, 1.0), (0.3, 0.25), (-0.6, 1.0))]


@pytest.mark.parametrize(("q", "lam", "m", "t"), PICARD_HEADS)
def test_picard_head_is_unchanged(q, lam, m, t):
    y = solve_ivp_picard(IVProblem(0.8, lam, 0.0, 1.0), m, QParams(q))
    want, condition = ml_from_zero(0.8, 1.0, lam, t, q, m + 1)
    assert abs(y(t) - want) <= CUT_BOUND * _EPS * condition * abs(want)


def test_cut_sums_are_unchanged():
    # 0.12 and 0 eps times the condition.
    for mp, z, q, count in ((MLParams(0.9, 2.5, -0.7), 3.0, 0.7, 30),
                            (MLParams(0.4, -0.5, 0.8), 2.0, 0.3, 12)):
        want, condition = ml_from_zero(mp.alpha, mp.beta, mp.lam, z, q, count)
        got = _ZeroHead(mp, QParams(q)).cut(z, count)
        assert abs(got - want) <= CUT_BOUND * _EPS * condition * abs(want)


@pytest.mark.parametrize("lam", [0.5, -0.5])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_divergent_rate_raises_before_any_term(monkeypatch, lam, alpha):
    # |zeta| = 1.5 >= 1 at z = 3**(1/alpha) / (1-q): NonConvergence naming the
    # parameters, with no tail taken, for a single call and the closed
    # form's head.
    calls = []
    inner = qfrac.special._pochhammer_tail
    monkeypatch.setattr(qfrac.special, "_pochhammer_tail",
                        lambda *args: calls.append(args) or inner(*args))
    p = QParams(0.5)
    z = 3.0 ** (1.0 / alpha) / 0.5
    mp = MLParams(alpha, 1.0, lam)
    where = (rf"^q-Mittag-Leffler at z={z!r}, z0=0\.0, alpha={alpha!r}, beta=1\.0, "
             rf"lam={lam!r}, q=0\.5: \|lam \(\(1-q\) z\)\*\*alpha\| = 1\.5\d* >= 1")
    with pytest.raises(NonConvergence, match=where):
        q_mittag_leffler(mp, z, p)
    with pytest.raises(NonConvergence, match=where):
        solve_ivp_closed(IVProblem(alpha, lam, 0.0, 1.0), p)(z)
    assert calls == []
    assert math.isfinite(_ZeroHead(mp, p).cut(z, 20))  # a cut sum still runs


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize(("alpha", "beta"), [(0.4, 1.0), (0.9, 0.5), (1.3, 2.5), (0.5, -1.5)])
def test_split_is_the_fewest(q, alpha, beta):
    # P is the fewest orders with y / (1 - y) <= (ln 8 / 2) (1 - q),
    # y = q**(beta + alpha P).
    orders = _euler_split(alpha, beta, QParams(q))
    gain = 0.5 * math.log(8.0) * (1.0 - q)
    fits = lambda k: q ** (beta + alpha * k) / (1.0 - q ** (beta + alpha * k)) <= gain
    assert fits(orders) and (orders == 0 or not fits(orders - 1))


def test_split_past_the_budget_grows_the_coefficients():
    # alpha = 1e-5 at q = 0.5: P = 54,775 passes max_terms (10,000), so the
    # expansion is never taken.  The head sums the first 33 terms, whose
    # rest is below 2**-54 c_0, and meets the reference.  At lam = 0.9 the
    # head needs 389, and a budget of 100 raises before the list grows past
    # it.  At beta = 0, c_0 = 0, and the rest is bounded from c_1.
    p, mp, z = QParams(0.5), MLParams(1e-5, 1.0, 0.3), 1.7
    assert _euler_split(mp.alpha, mp.beta, p) is None
    assert _euler_split(mp.alpha, mp.beta, QParams(0.5, Truncation(max_terms=60_000))) == 54_775
    head = _ZeroHead(mp, p)
    got = head(z)
    assert got == q_mittag_leffler(mp, z, p) and len(head._coefs) == 33
    want, condition = ml_from_zero(mp.alpha, mp.beta, mp.lam, z, 0.5)
    assert abs(got - want) <= EULER_BOUND * _EPS * condition * abs(want)
    where = r"^q-Mittag-Leffler at z=1\.7, z0=0\.0, alpha=1e-05, beta={}, lam={}, q=0\.5: "
    with pytest.raises(NonConvergence, match=where.format(r"1\.0", r"0\.9") + "389 terms "
                       "exceed the budget of 100$"):
        q_mittag_leffler(MLParams(1e-5, 1.0, 0.9), z, QParams(0.5, Truncation(max_terms=100)))
    # c_1's tail takes its first factor 1 - q**x, x = 1e-5, by expm1, so it
    # carries no rounding of q**x (which cost it 1.4e4 eps by subtraction):
    # the head meets the sum's own bound (measured 2.7 eps).
    head = _ZeroHead(MLParams(1e-5, 0.0, 0.3), p)
    got = head(z)
    assert head._lead == 1 and head._coefs[0] == 0.0
    want, condition = ml_from_zero(1e-5, 0.0, 0.3, z, 0.5)
    assert abs(got - want) <= EULER_BOUND * _EPS * condition * abs(want)



def test_rest_bound_that_underflows_raises():
    # At q = 0.9976 (q; q)_inf is about 1e-298, so floor = 2**-54 |c_0 / e_0|
    # is subnormal, and floor (1 - |zeta|) is 0 at |zeta| = 1 - 1e-12: no K
    # within a double bounds the rest.
    p = QParams(0.9976, Truncation(max_terms=20_000))
    with pytest.raises(NonConvergence, match=r": the bound on the rest underflowed$"):
        q_mittag_leffler(MLParams(1e-5, 1.0, 1.0 - 1e-12), 1.0 / (1.0 - 0.9976), p)


@pytest.mark.parametrize(("alpha", "lam", "z"), [(0.9, 0.31995139835925074, 30.32866740282942),
                                                 (0.9, 0.9 / 0.1**0.9, 1.0)])
def test_hump_of_one_sign_is_summed(alpha, lam, z):
    # zeta = 0.87 and 0.9 at q = 0.9: the terms rise more than a
    # thousandfold for 6 or 7 steps before they fall, which a growth watch
    # takes for divergence.  They share one sign, so nothing cancels: the sum
    # and the closed form's head meet the reference to 4e-15.
    p = QParams(0.9)
    want, condition = ml_from_zero(alpha, 1.0, lam, z, 0.9)
    assert condition == 1.0
    assert abs(q_mittag_leffler(MLParams(alpha, 1.0, lam), z, p) - want) <= 4e-15 * want
    y = solve_ivp_closed(IVProblem(alpha, lam, 0.0, 1.0), p)
    assert abs(y(z) - want) <= 4e-15 * want


def test_alternating_hump_names_its_cancellation():
    # |zeta| = 0.9: the series converges to 0.02185673091428556 (40 digits),
    # but its terms rise to 2.9e7 times that before they fall, and their
    # cancellation would take that many digits, for a single call and the
    # closed form's head.  The cut sum still runs.
    mp, z, p = MLParams(0.9, 1.0, -1.0), 8.895253798041736, QParams(0.9)
    where = (r"^q-Mittag-Leffler at z=8\.895253798041736, z0=0\.0, alpha=0\.9, beta=1\.0, "
             r"lam=-1\.0, q=0\.9: the series converges \(\|lam \(\(1-q\) z\)\*\*alpha\| = "
             r"0\.9\d* < 1\), but its alternating terms grew past the growth watch, so a "
             r"term-wise sum would cancel their digits$")
    with pytest.raises(NonConvergence, match=where):
        q_mittag_leffler(mp, z, p)
    with pytest.raises(NonConvergence, match=where):
        solve_ivp_closed(IVProblem(0.9, -1.0, 0.0, 1.0), p)(z)
    assert math.isfinite(_ZeroHead(mp, p).cut(z, 40))


def forcing_from_zero(alpha: float, lam: float, coeffs: tuple, t: float, q: float) -> float:
    """sum_k lam**k I_0^(alpha(k+1)) f(t) for f(s) = sum_n coeffs[n] s**n.

    By the q-power rule I_0^mu s**n = Gamma_q(n+1) / Gamma_q(n+1+mu)
    s**(n+mu), and by Gamma_q(x) = (q; q)_inf (1-q)**(1-x) / (q**x; q)_inf,
    term k of power n is t**n h z**k (q**(n+1+alpha(k+1)); q)_inf /
    (q**(n+1); q)_inf, with h = ((1-q) t)**alpha and z = lam h.  The
    products lie in (0, 1), so each sum stops once |z|**k / (1 - |z|) is
    below 1e-25 of it.
    """
    with decimal.localcontext(_CONTEXT):
        qd, a, td = Decimal(q), Decimal(alpha), Decimal(t)
        h = ((1 - qd) * td) ** a
        z = Decimal(lam) * h
        total = Decimal(0)
        for n, c in enumerate(coeffs):
            part, power, k = Decimal(0), h, 0
            while True:
                part += power * q_product(qd ** (n + 1 + a * (k + 1)), qd)
                power *= z
                k += 1
                if abs(power) <= _CUT * abs(part) * (1 - abs(z)):
                    break
            total += Decimal(c) * td**n * part / q_product(qd ** (n + 1), qd)
        return float(total)


# The worst relative error of the closed form's forcing from a = 0 over the
# sweep below, per q, as the forcing kernel's gain bound of 8 gave it (3.9e-16,
# 4.16e-15, 2.85e-14 and 4.55e-13), rounded up: the forcing must be no less
# accurate at the kernel's bound than there (at 28 it is 3.9e-16, 3.89e-15,
# 2.85e-14 and 4.55e-13; at 32, 2.94e-14 at q = 0.7).  Every route the
# forcing has taken meets the same floor, which the lattice series'
# truncation sets, not the kernel: summed order by order it is 2.9e-14 and
# 4.6e-13 at q = 0.7 and 0.9, and with rel_tol 1e-16 the q = 0.9 worst falls
# to 2.0e-15 at either bound.
FORCING_BOUNDS = {0.3: 3.9e-16, 0.5: 4.2e-15, 0.7: 2.9e-14, 0.9: 4.6e-13}


def _forcing_error(q: float, p: QParams) -> float:
    """The worst relative error over alpha in {0.5, 0.75, 1}, lam = +-0.4
    and t in {1, q**3}, for f(s) = 1 - 0.5 s + 0.7 s**2."""
    coeffs = (1.0, -0.5, 0.7)
    f = lambda s: 1.0 - 0.5 * s + 0.7 * s * s
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        for lam in (0.4, -0.4):
            y = solve_ivp_closed(IVProblem(alpha, lam, 0.0, 0.0, f), p)
            for t in (1.0, q**3):
                want = forcing_from_zero(alpha, lam, coeffs, t, q)
                worst = max(worst, abs(y(t) - want) / abs(want))
    return worst


@pytest.mark.parametrize("q", FORCING_BOUNDS)
def test_forcing_against_the_power_rule(q):
    assert _forcing_error(q, QParams(q)) <= FORCING_BOUNDS[q]


def test_forcing_floor_is_the_truncation():
    assert _forcing_error(0.9, QParams(0.9, Truncation(rel_tol=1e-16))) <= 3e-15


def on_time_scale(alpha: float, lam: float, a0: float, coeffs: tuple, a: float, j: int,
                  q: float) -> tuple[float, float]:
    """The closed form at t = a q**-j, j >= 1, for f(s) = sum_n coeffs[n] s**n,
    by its definition, and |a0| + |forcing|.

    The head is a0 sum_k z**k (q**(alpha k + 1); q)_(j-1) / (q; q)_(j-1) with
    z = lam h, h = ((1-q) t)**alpha.  The forcing is sum_k lam**k
    I_a^(alpha(k+1)) f(t) by the q-power rule from a, as left_from takes it;
    at c = a / t = q**j its quotient of infinite products is the finite
    (q**(b+1); q)_(j-1) / (q; q)_(j-1).  Every product lies in (0, 1], so the
    sums stop once |z|**k / (1 - |z|) is below 1e-25.
    """
    with decimal.localcontext(_CONTEXT):
        qd, m, ad = Decimal(q), Decimal(alpha), Decimal(a)
        x = (1 - qd) * ad / qd**j
        h = x**m
        z = Decimal(lam) * h
        below = Decimal(1)  # (q; q)_(j-1)
        for i in range(1, j):
            below *= 1 - qd**i

        def ratio(b: Decimal) -> Decimal:
            value, power = 1 / below, qd ** (b + 1)
            for _ in range(1, j):
                value *= 1 - power
                power *= qd
            return value

        taylor, cs = [], [Decimal(c) for c in coeffs]  # nabla_q^n f(a)
        while cs:
            value = Decimal(0)
            for c in reversed(cs):
                value = value * ad + c
            taylor.append(value)
            cs = [c * (1 - qd**n) / (1 - qd) for n, c in enumerate(cs)][1:]
        head, forcing, power, k = Decimal(0), Decimal(0), Decimal(1), 0
        while abs(power) > _CUT * (1 - abs(z)):
            head += power * ratio(m * k)
            forcing += power * h * sum(d * x**n * ratio(n + m * (k + 1))
                                       for n, d in enumerate(taylor))
            power *= z
            k += 1
        return float(Decimal(a0) * head + forcing), abs(a0) + abs(float(forcing))


# The worst error of the closed form on the time scale of a = q**40 over the
# sweep below, per q and kind, in units of |a0| + |forcing|, rounded up: one
# to two rounding units at every depth.  The summed series the closed form
# took before were 5.0e-16 to 2.7e-15 off on the same sweep.  The cells are
# a recursion, and with the weights' factors 1 - q**x taken by subtraction,
# as _lattice_weights takes them, the error grew with the depth, to 5.9e-15
# at q = 0.9 (forced: alpha = 1, lam = 0.3, a0 = 0, j = 34 to 40).
TIME_SCALE_BOUNDS = {
    0.3: {"unforced": 2.3e-16, "forced": 2.6e-16},
    0.5: {"unforced": 1.2e-16, "forced": 4.1e-16},
    0.9: {"unforced": 2.3e-16, "forced": 5.1e-16},
}
TIME_SCALE_DEPTHS = (1, 2, 3, 4, 6, 10, 20, 30, 34, 40)


@pytest.mark.parametrize("q", TIME_SCALE_BOUNDS)
def test_closed_form_on_the_time_scale(q):
    # alpha in {0.5, 0.8, 1}, lam = 0.3 or -0.4, unforced with a0 = 1 and
    # forced by 1 - 0.5 s + 0.7 s**2 with a0 = 0 and 1, one solution each
    # for every depth.
    p, a, coeffs = QParams(q), q**40, (1.0, -0.5, 0.7)
    f = lambda s: 1.0 - 0.5 * s + 0.7 * s * s
    worst = {"unforced": 0.0, "forced": 0.0}
    for alpha in (0.5, 0.8, 1.0):
        for lam in (0.3, -0.4):
            for kind, a0 in (("unforced", 1.0), ("forced", 0.0), ("forced", 1.0)):
                forced = kind == "forced"
                y = solve_ivp_closed(IVProblem(alpha, lam, a, a0, f if forced else None), p)
                for j in TIME_SCALE_DEPTHS:
                    want, scale = on_time_scale(alpha, lam, a0, coeffs if forced else (), a, j, q)
                    worst[kind] = max(worst[kind], abs(y(a / q**j) - want) / scale)
    assert worst["unforced"] <= TIME_SCALE_BOUNDS[q]["unforced"]
    assert worst["forced"] <= TIME_SCALE_BOUNDS[q]["forced"]


def left_from(coeffs: tuple, a: float, mu: float, t: float, q: float) -> float:
    """I_a^mu f(t) for f(s) = sum_n coeffs[n] s**n, at any order mu (mu < 0
    the Riemann derivative of order -mu) and from any start a >= 0, by the
    q-power rule sum_k nabla_q^k f(a) (t - a)_q^(k+mu) / Gamma_q(k+1+mu)
    = sum_k nabla_q^k f(a) ((1-q) t)**b (c; q)_inf (q**(b+1); q)_inf
    / ((q**b c; q)_inf (q; q)_inf), b = k + mu, c = a / t, the q-derivatives
    at a from the coefficients, nabla_q s**n = [n]_q s**(n-1)."""
    with decimal.localcontext(_CONTEXT):
        qd, m, td, c = Decimal(q), Decimal(mu), Decimal(t), Decimal(a) / Decimal(t)
        coeffs = [Decimal(x) for x in coeffs]
        total, k = Decimal(0), 0
        while coeffs:
            value = Decimal(0)
            for x in reversed(coeffs):
                value = value * Decimal(a) + x
            b = k + m
            total += (value * ((1 - qd) * td) ** b * q_product(c, qd) * q_product(qd ** (b + 1), qd)
                      / (q_product(qd**b * c, qd) * q_product(qd, qd)))
            coeffs = [x * (1 - qd**n) / (1 - qd) for n, x in enumerate(coeffs)][1:]
            k += 1
        return float(total)


def right_to_infinity(powers: tuple, mu: float, t: float, q: float) -> float:
    """The right series to infinity, sum_{i>=1} w_i f(t q**(1-mu-i)) with
    w_1 = r(mu) ((1-q) t)**mu q**-mu and w_{i+1} = w_i q**-mu (1 - q**(mu+i-1))
    / (1 - q**i), for f(s) = sum c s**-k over powers (c, k), summed in
    decimal until a term is below 1e-25 of the sum past the weights' hump."""
    with decimal.localcontext(_CONTEXT):
        qd, m, td = Decimal(q), Decimal(mu), Decimal(t)
        lift = 1 / qd**m
        w = qd ** (-m * (m - 1) / 2) * ((1 - qd) * td) ** m * lift
        s, num, den = td * lift, qd**m, qd  # t q**(1-mu-i), q**(mu+i-1), q**i
        total = Decimal(0)
        while True:
            term = w * sum(Decimal(c) * s**-k for c, k in powers)
            total += term
            if abs(term) <= _CUT * abs(total) and den < Decimal("0.5"):
                return float(total)
            w *= lift * (1 - num) / (1 - den)
            s, num, den = s / qd, num * qd, den * qd


def test_right_reference_against_the_q_binomial_theorem():
    # For f = s**-k the series is W t**-k q**(k mu) sum_j (q**mu; q)_j /
    # (q; q)_j q**((k-mu) j), and by the q-binomial theorem the sum is
    # (q**k; q)_inf / (q**(k-mu); q)_inf: a product, not a series.
    for q, k, mu in ((0.3, 2, 0.4), (0.9, 2, 1.3), (0.9, 4, -0.3), (0.5, 4, 0.9)):
        with decimal.localcontext(_CONTEXT):
            qd, m, td = Decimal(q), Decimal(mu), Decimal(0.7)
            w = qd ** (-m * (m - 1) / 2) * ((1 - qd) * td) ** m / qd**m
            closed = (w * td**-k * qd ** (k * m)
                      * q_product(qd**k, qd) / q_product(qd ** (k - m), qd))
        assert right_to_infinity(((1.0, k),), mu, 0.7, q) == float(closed)


_LATTICE_POLYS = ((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (1.0, -0.5, 0.7), (0.3, 0.0, 0.0, 1.0))
_LATTICE_POWERS = {"s^-2": ((1.0, 2),), "s^-4": ((1.0, 4),), "2s^-3+s^-4": ((2.0, 3), (1.0, 4))}

# The worst relative error of the lattice series over the sweep below, per
# side and q, as the parent of the operand test gave it (4.43e-16, 4.38e-15,
# 3.22e-14 and 3.16e-13 on the left, 7.20e-16, 3.91e-15, 3.58e-14 and
# 3.81e-13 on the right), rounded up: the series must be no less accurate.
# The operand test gives 4.43e-16, 4.38e-15, 3.22e-14 and 3.11e-13 on the
# left, where the polynomials that set the worst do not close on their
# operand, and 7.20e-16, 1.99e-15, 1.56e-14 and 1.82e-13 on the right, whose
# rest is held to rel_tol (1 - |rho|).
LATTICE_BOUNDS = {
    "left": {0.3: 4.5e-16, 0.5: 4.4e-15, 0.7: 3.3e-14, 0.9: 3.2e-13},
    "right": {0.3: 7.2e-16, 0.5: 4.0e-15, 0.7: 3.6e-14, 0.9: 3.9e-13},
}


def _lattice_errors(q: float) -> dict:
    """The worst relative error per side over t in {1, q**3}: left from 0 of
    _LATTICE_POLYS at orders 0.4, 0.9, 1.3, -0.3 and -0.6, right to infinity
    of _LATTICE_POWERS at orders 0.4, 0.9, 1.3 and -0.3."""
    p = QParams(q)
    worst = {"left": 0.0, "right": 0.0}
    for t in (1.0, q**3):
        for mu in (0.4, 0.9, 1.3, -0.3, -0.6):
            for coeffs in _LATTICE_POLYS:
                f = lambda s, coeffs=coeffs: sum(c * s**n for n, c in enumerate(coeffs))
                want = left_from(coeffs, 0.0, mu, t, q)
                got = left_frac_integral(f, 0.0, mu, t, p)
                worst["left"] = max(worst["left"], abs(got - want) / abs(want))
        for mu in (0.4, 0.9, 1.3, -0.3):
            for powers in _LATTICE_POWERS.values():
                f = lambda s, powers=powers: sum(c * s**-k for c, k in powers)
                want = right_to_infinity(powers, mu, t, q)
                got = right_frac_integral(f, math.inf, mu, t, p)
                worst["right"] = max(worst["right"], abs(got - want) / abs(want))
    return worst


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
def test_lattice_series_against_the_reference(q):
    worst = _lattice_errors(q)
    assert worst["left"] <= LATTICE_BOUNDS["left"][q]
    assert worst["right"] <= LATTICE_BOUNDS["right"][q]


# Starts a = t q**-m (1 + eps) above t next to the grid, for orders mu, with
# the bound on the error (relative past 1) just outside the snap radius:
# the series from 0 less the one anchored at a cancel, and both routes lose
# up to 2e-15 at m = 1 and 3.3e-13 at m = 2.  Integer orders n >= 2 lose
# more: the anchored weights divide by 1 - c q**m (c = a / t), which the
# numerator's chain of q-powers multiplied in with another rounding, so past
# that index every weight is off by about 1e-16 / |1 - c q**m| (6.3e-11 at
# m = n = 2, where the Jackson sum of the exact integer-order kernel was
# 4e-16 off).
_NEAR_GRID = [(m, mu, bound) for m, bound in ((1, 5e-15), (2, 5e-13))
              for mu in (0.7, 1.0, 2.0, 2.6, -0.7) if (m, mu) != (2, 2.0)] + [(2, 2.0, 1e-10)]


@pytest.mark.parametrize("m, mu, bound", _NEAR_GRID)
def test_start_above_t_next_to_the_grid(m, mu, bound):
    # a = t q**-m (1 + 1e-9) lies within the radius in which a grid exponent
    # snaps, and the step rule and the anchored sum's opening weight snap
    # alike: the value is the one on the grid, to the 1e-9 move of a.  Were
    # a taken off the grid with its opening weight snapped to 0, the integral
    # would be the whole series from 0.  a = t q**-m (1 + 2e-9) lies outside.
    q, coeffs = 0.3, (1.0, 0.0, 1.0)
    f, p, grid = (lambda s: 1.0 + s * s), QParams(q), q**-m
    got = left_frac_integral(f, grid * (1.0 + 1e-9), mu, 1.0, p)
    want = left_from(coeffs, grid, mu, 1.0, q)
    assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)
    got = left_frac_integral(f, grid * (1.0 + 2e-9), mu, 1.0, p)
    want = left_from(coeffs, grid * (1.0 + 2e-9), mu, 1.0, q)
    assert abs(got - want) <= bound * max(abs(want), 1.0)


def right_caputo_to(f, m: int, alpha: float, t: float, q: float) -> float:
    """Right Caputo of order alpha to b = t q**-m by its definition: the right
    series of order mu = n - alpha of g = (-nabla_q)**n f, sum_{i=1..m} w_i
    g(t q**(1-mu-i)) with the weights of right_to_infinity, each g from n
    rounds of differences of f at x q**j, j <= n, in decimal (f takes and
    returns Decimal)."""
    n = math.ceil(alpha)
    with decimal.localcontext(_CONTEXT):
        qd, mu, td = Decimal(q), n - Decimal(alpha), Decimal(t)
        lift = 1 / qd**mu
        w = qd ** (-mu * (mu - 1) / 2) * ((1 - qd) * td) ** mu * lift
        s, num, den = td * lift, qd**mu, qd
        total = Decimal(0)
        for _ in range(m):
            points = [s * qd**j for j in range(n + 1)]
            row = [f(x) for x in points]
            for k in range(n, 0, -1):
                row = [(row[j] - row[j + 1]) / ((qd - 1) * points[j]) for j in range(k)]
            total += w * row[0]
            w *= lift * (1 - num) / (1 - den)
            s, num, den = s / qd, num * qd, den * qd
        return float(total)


# Operands with their degree (None: not a polynomial), for float and Decimal.
_CAPUTO_OPERANDS = (
    (lambda s: 1 + s + s * s, 2),
    (lambda s: 1 / (1 + s), None),
    (lambda s: s * s * s - s + 2, 3),
)

# The worst relative error of right Caputo to b = 1 over the sweep below, per
# n, rounded up (measured: 1.47e-14, 2.28e-12 and 6.84e-10, where composing
# (-nabla_q)**n f with the (n - alpha)-integral gives 1.48e-14, 2.56e-12 and
# 1.32e-9).  Both routes inherit the rounding of nabla_q^k f, the series in
# its q-Taylor coefficients.  (-nabla_q)**3 of the quadratic is 0; there the
# series returns up to 2.6e-10 and the composition 3.4e-10.
RIGHT_CAPUTO_BOUNDS = {1: 2e-14, 2: 3e-12, 3: 1e-9}
RIGHT_CAPUTO_ZERO = 5e-10


@pytest.mark.parametrize("n, alphas", [(1, (0.4, 0.7)), (2, (1.3, 1.6)), (3, (2.3, 2.6))])
def test_right_caputo_to_a_finite_b(n, alphas):
    worst = {"series": 0.0, "composition": 0.0}
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        for alpha in alphas:
            for m in (1, 2, 4):
                t = q**m
                for f, degree in _CAPUTO_OPERANDS:
                    got = right_caputo(f, 1.0, alpha, t, p)
                    if degree is not None and degree < n:
                        assert abs(got) <= RIGHT_CAPUTO_ZERO
                        continue
                    want = right_caputo_to(f, m, alpha, t, q)
                    composed = _right_caputo_composed(f, 1.0, alpha, t, p)
                    worst["series"] = max(worst["series"], abs(got - want) / abs(want))
                    worst["composition"] = max(worst["composition"],
                                               abs(composed - want) / abs(want))
    assert worst["series"] <= RIGHT_CAPUTO_BOUNDS[n]
    assert worst["series"] <= 2.0 * worst["composition"]


# Left Caputo from 0 against the q-power rule for its terms of degree >= n,
# over q in {0.3, 0.5, 0.7, 0.9}, alpha in {1.3, 1.6} (n = 2), {2.4, 2.7}
# (n = 3) and 3.4 (n = 4) and t in {1, 0.37}; the 18 cases of q in
# {0.3, 0.5, 0.9}, alpha in {1.3, 1.6, 2.4}, t = 1 and the quadratic and cubic
# are among them.  The worst relative error per n, rounded up from 8.9e-13,
# 4.6e-12 and 6.3e-12 for the polynomials and 1.3e-12, 3.9e-10 and 5.2e-8 for
# e^s; where the value is 0 (the quadratic at n >= 3, the cubic at n = 4) the
# worst absolute error, from 2.1e-12 and 8.3e-11.  The composition
# I^(n-alpha) nabla_q^n f that this replaced sampled nabla_q^n f toward 0:
# 15 of the 18 cases were off by 6.5% to 240%, with no error raised.
_CAPUTO_ORDERS = {2: (1.3, 1.6), 3: (2.4, 2.7), 4: (3.4,)}
_CAPUTO_POLYS = ((0.5, -0.3, 1.0), (2.0, 1.0, 0.0, 1.0), (0.3, 0.0, -1.0, 0.0, 1.0))
_EXP_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(26))
CAPUTO_FROM_ZERO_BOUNDS = {2: 1e-12, 3: 5e-12, 4: 1e-11}
CAPUTO_FROM_ZERO_ZERO = {3: 3e-12, 4: 1e-10}
CAPUTO_EXP_BOUNDS = {2: 2e-12, 3: 5e-10, 4: 6e-8}


def _caputo_from_zero_errors(n: int, operands) -> tuple[float, float]:
    """The worst relative error, and the worst absolute one where the value
    is 0, of left Caputo from 0 of order n over the sweep, per (f, coeffs)."""
    worst = [0.0, 0.0]
    for q in (0.3, 0.5, 0.7, 0.9):
        for alpha in _CAPUTO_ORDERS[n]:
            for t in (1.0, 0.37):
                for f, coeffs in operands:
                    want = left_from((0.0,) * n + coeffs[n:], 0.0, -alpha, t, q)
                    got = left_caputo(f, 0.0, alpha, t, QParams(q))
                    if want == 0.0:
                        worst[1] = max(worst[1], abs(got))
                    else:
                        worst[0] = max(worst[0], abs(got - want) / abs(want))
    return worst[0], worst[1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_caputo_from_zero(n):
    operands = [(lambda s, c=c: sum(x * s**j for j, x in enumerate(c)), c) for c in _CAPUTO_POLYS]
    relative, absolute = _caputo_from_zero_errors(n, operands)
    assert relative <= CAPUTO_FROM_ZERO_BOUNDS[n]
    assert absolute <= CAPUTO_FROM_ZERO_ZERO.get(n, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_caputo_from_zero_of_exp(n):
    # e^s through its Taylor polynomial of degree 25, within 3e-27 at t = 1.
    relative, _ = _caputo_from_zero_errors(n, [(math.exp, _EXP_TAYLOR)])
    assert relative <= CAPUTO_EXP_BOUNDS[n]

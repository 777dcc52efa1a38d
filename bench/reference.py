"""Reference values computed without qfrac, for re-deriving sampled results.

These are plain-loop implementations of the defining formulas: a
q-factorial power is always its ratio product (never snapped onto a grid or
served from a cache), q-gamma is the Pochhammer quotient, and fractional
integrals are Jackson sums over an operand given as polynomial coefficients,
whose q-derivative is taken exactly.  They are slow and simple on purpose.
"""

from __future__ import annotations


EPS = 1e-17
MAX_TERMS = 200_000

# An operand is a tuple of (coefficient, power) pairs: sum c * s**n.
Poly = tuple


def poly_text(poly: Poly) -> str:
    """The operand as an expression in the qfrac --f grammar."""
    return " + ".join(f"({c!r})*s^{n}" if n else f"({c!r})" for c, n in poly)


def poly_eval(poly: Poly, s: float) -> float:
    return sum(c * s**n for c, n in poly)


def poly_nabla(poly: Poly, q: float) -> Poly:
    """Exact backward q-derivative: s**n -> [n]_q s**(n-1)."""
    return tuple((c * (1.0 - q**n) / (1.0 - q), n - 1) for c, n in poly if n != 0)


def pochhammer_tail(x: float, q: float) -> float:
    """(q**x; q)_inf."""
    product = 1.0
    power = q**x
    while power > EPS:
        product *= 1.0 - power
        power *= q
    return product


def q_gamma(x: float, q: float) -> float:
    """q-gamma for x > 0: (1 - q)**(1 - x) (q; q)_inf / (q**x; q)_inf."""
    return (1.0 - q) ** (1.0 - x) * pochhammer_tail(1.0, q) / pochhammer_tail(x, q)


def factorial_power(t: float, s: float, alpha: float, q: float) -> float:
    """(t - s)_q^alpha = t**alpha prod_i (1 - u q**i) / (1 - u q**(i + alpha)), u = s/t."""
    u = s / t
    num = u
    den = u * q**alpha
    product = 1.0
    while abs(num) > EPS or abs(den) > EPS:
        product *= (1.0 - num) / (1.0 - den)
        num *= q
        den *= q
    return t**alpha * product


def series_sum(terms) -> float:
    """Sum until three successive terms are below EPS relative to the total."""
    total = 0.0
    small = 0
    for count, term in enumerate(terms):
        total += term
        small = small + 1 if abs(term) <= EPS * abs(total) else 0
        if small >= 3:
            return total
        if count > MAX_TERMS:
            raise ArithmeticError("reference sum did not converge")
    return total


def mittag_leffler(alpha: float, lam: float, z: float, q: float) -> float:
    """sum_k lam**k z**(alpha k) / q_gamma(alpha k + 1), for z0 = 0."""
    def terms():
        k = 0
        while True:
            yield lam**k * z ** (alpha * k) / q_gamma(alpha * k + 1.0, q)
            k += 1
    return series_sum(terms())


def left_integral(poly: Poly, a: float, alpha: float, t: float, q: float) -> float:
    """Left fractional integral of order alpha from a to t, as two Jackson chains."""
    def chain(x):
        if x == 0.0:
            return 0.0
        def terms():
            s = x
            weight = (1.0 - q) * x
            while True:
                yield weight * factorial_power(t, q * s, alpha - 1.0, q) * poly_eval(poly, s)
                s *= q
                weight *= q
        return series_sum(terms())
    return (chain(t) - chain(a)) / q_gamma(alpha, q)


def left_caputo(poly: Poly, a: float, alpha: float, t: float, q: float) -> float:
    """Left Caputo derivative of order 0 < alpha < 1: I^(1-alpha) of the exact nabla."""
    return left_integral(poly_nabla(poly, q), a, 1.0 - alpha, t, q)


def right_integral(poly: Poly, alpha: float, t: float, q: float) -> float:
    """Right fractional integral of order alpha from t to infinity."""
    shift = q ** (1.0 - alpha)
    def terms():
        s = t
        weight = (1.0 - q) * t
        while True:
            s /= q
            weight /= q
            yield weight * factorial_power(s, t, alpha - 1.0, q) * poly_eval(poly, s * shift)
    r = q ** (-0.5 * alpha * (alpha - 1.0))
    return r * series_sum(terms()) / q_gamma(alpha, q)


def ivp_series(alpha, lam, a, a0, coeffs, t, q):
    """The terms of the IVP solution series at t, without end.

    For C^alpha y = lam y + f, y(a) = a0, f = sum_n c_n (s - a)_q^n, term k is
    a0 lam**k (t - a)_q^(alpha k) / G(alpha k + 1)
    + lam**(k - 1) sum_n c_n G(n + 1) / G(n + alpha k + 1) (t - a)_q^(n + alpha k)
    (the second part for k >= 1), with G the q-gamma function; Picard(m) is the
    sum of terms 0..m (by the power rule), the exact solution the whole series.
    """
    def power(beta):
        return t**beta if a == 0.0 else factorial_power(t, a, beta, q)

    k = 0
    while True:
        term = a0 * lam**k * power(alpha * k) / q_gamma(alpha * k + 1.0, q)
        if k >= 1:
            for n, c in enumerate(coeffs):
                if c:
                    term += (lam ** (k - 1) * c * q_gamma(n + 1.0, q)
                             / q_gamma(n + alpha * k + 1.0, q) * power(n + alpha * k))
        yield term
        k += 1


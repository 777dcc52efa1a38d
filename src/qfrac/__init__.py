"""Nabla q-calculus, q-special functions, and Caputo q-fractional operators.

Everything is parameterised by :class:`QParams` (the base q and a truncation
policy).  Operands are plain callables on the non-negative reals; operators
realise Jackson sums and factor products with runtime convergence control,
raising :class:`NonConvergence`, :class:`PoleError`, :class:`DomainError` or
:class:`NumericOverflow` through a shared error channel.
"""

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
from .errors import (
    DomainError,
    NonConvergence,
    NumericOverflow,
    PoleError,
    QCalculusError,
)
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
    IVPSolution,
    MLParams,
    ivp_residual,
    q_mittag_leffler,
    solve_ivp_closed,
    solve_ivp_picard,
)
from .special import q_exp_E, q_exp_e, q_factorial_power, q_gamma, q_pochhammer

__version__ = "0.1.0"

__all__ = [
    "QCalculusError",
    "NonConvergence",
    "PoleError",
    "DomainError",
    "NumericOverflow",
    "QParams",
    "Truncation",
    "QFunction",
    "MLParams",
    "IVProblem",
    "IVPSolution",
    "count_terms",
    "q_bracket",
    "nabla_q",
    "nabla_q_n",
    "q_integral",
    "q_integral_tail",
    "q_pochhammer",
    "q_factorial_power",
    "q_gamma",
    "q_exp_e",
    "q_exp_E",
    "r_coef",
    "left_frac_integral",
    "right_frac_integral",
    "left_riemann_deriv",
    "right_riemann_deriv",
    "left_caputo",
    "right_caputo",
    "q_mittag_leffler",
    "solve_ivp_closed",
    "solve_ivp_picard",
    "ivp_residual",
]

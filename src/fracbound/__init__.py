"""fracbound: fractional-integral inequality bounds for Lipschitz functions.

Computes Riemann-Liouville fractional integrals of Lipschitz functions,
evaluates the closed-form piecewise bound coefficients of the two-node
(Hadamard-type) and three-node (Bullen-type) inequalities, and verifies
gap <= bound against independent quadrature oracles.
"""

__version__ = "0.1.0"

from .bounds import (BoundBreakdown, BullenConfig, HadamardConfig,
                     InconsistencyError, PanelConfig, abs_moment_closed, l_coeff,
                     l_coeff_reference, n_case_index, n_coeff, n_coeff_reference,
                     unit_order_two_point_table, v_bullen, v_hadamard,
                     weighted_bullen_coeff, weighted_bullen_reference)
from .corpus import (LipschitzWitness, PiecewiseLinearFunction, exact_rl_left,
                     exact_rl_mid, exact_rl_right, from_text, lipschitz_constant,
                     random_lipschitz, tent, to_text)
from .engine import (CorollaryFinding, ErratumEntry, GapResult, bullen_bound,
                     bullen_gap, config_gap, corollary_suite, hadamard_bound,
                     hadamard_gap, verify)
from .quadrature import (DomainError, Interval, Order, QuadratureToleranceError,
                         abs_moment_quadrature, gamma_fn, rl_left, rl_mid,
                         rl_right)

__all__ = [
    "BoundBreakdown",
    "BullenConfig",
    "CorollaryFinding",
    "DomainError",
    "ErratumEntry",
    "GapResult",
    "HadamardConfig",
    "InconsistencyError",
    "Interval",
    "LipschitzWitness",
    "Order",
    "PanelConfig",
    "PiecewiseLinearFunction",
    "QuadratureToleranceError",
    "abs_moment_closed",
    "abs_moment_quadrature",
    "bullen_bound",
    "bullen_gap",
    "config_gap",
    "corollary_suite",
    "exact_rl_left",
    "exact_rl_mid",
    "exact_rl_right",
    "from_text",
    "gamma_fn",
    "hadamard_bound",
    "hadamard_gap",
    "l_coeff",
    "l_coeff_reference",
    "lipschitz_constant",
    "n_case_index",
    "n_coeff",
    "n_coeff_reference",
    "random_lipschitz",
    "rl_left",
    "rl_mid",
    "rl_right",
    "tent",
    "to_text",
    "unit_order_two_point_table",
    "v_bullen",
    "v_hadamard",
    "verify",
    "weighted_bullen_coeff",
    "weighted_bullen_reference",
    "__version__",
]

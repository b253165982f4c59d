"""fracbound: fractional-integral inequality bounds for Lipschitz functions.

Computes Riemann-Liouville fractional integrals of Lipschitz functions,
evaluates the closed-form piecewise bound coefficients of the two-node
(Hadamard-type) and three-node (Bullen-type) inequalities, and verifies
gap <= bound against independent quadrature oracles.

The package root holds only ``__version__``: import each name from its
module (``fracbound.quadrature``, ``corpus``, ``bounds``, ``engine``, ``cli``).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

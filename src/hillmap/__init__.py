"""Reconstructing the statistics of chaotic maps from periodic Hill operators.

Subpackages cover the numerical kernels (:mod:`hillmap.numerics`), Hill
operator monodromy and spectra (:mod:`hillmap.hill`), the iterated maps and
their conjugacies (:mod:`hillmap.maps`), exact density evolution
(:mod:`hillmap.transfer`), Monte Carlo convergence experiments
(:mod:`hillmap.ensemble`), and Lyapunov exponents (:mod:`hillmap.lyapunov`).
"""

__version__ = "0.1.0"

from .numerics import integrate_ivp, find_root, quad_singular
from .errors import (
    BracketError,
    ConfigurationError,
    DomainError,
    DomainEscapeError,
    NonConvergenceError,
    SingularityError,
)

__all__ = [
    "integrate_ivp",
    "find_root",
    "quad_singular",
    "BracketError",
    "ConfigurationError",
    "DomainError",
    "DomainEscapeError",
    "NonConvergenceError",
    "SingularityError",
]

"""Nonlinear-squeezing toolkit for superpositions of quadrature eigenstates.

Truncated-Fock-space witness operators with Gaussian benchmark bounds,
optimal finite-dimensional approximations, virtual post-selected gates,
GKP breeding evaluation, and NSGA-II Pareto frontier searches.
"""

from . import breeding, fock, gates, pareto, serialize, states, witness  # noqa: F401
from .errors import (  # noqa: F401
    ContractViolationError,
    OptimizerFailure,
    ProjectionAnnihilatedError,
    SqewitError,
    TruncationLossError,
)

__version__ = "0.1.0"

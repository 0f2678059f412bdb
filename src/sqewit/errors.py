"""Exception types shared across the package, and its one check of numeric inputs."""

import math
import numbers
import operator


class SqewitError(Exception):
    """Base class for all package errors."""


class ContractViolationError(SqewitError, ValueError):
    """An input breaks a documented precondition (non-Hermitian matrix,
    mismatched dimensions, a Fock dimension or index out of range, invalid
    parameter range)."""


class InputFormatError(SqewitError, ValueError):
    """A state file or config file does not match its schema, or a file path
    cannot be read or written."""


class TruncationLossError(SqewitError, ValueError):
    """State construction lost too much norm to the dimensional cutoff."""

    def __init__(self, message: str, required_dim: int | None = None):
        super().__init__(message)
        self.required_dim = required_dim


class ProjectionAnnihilatedError(SqewitError, ValueError):
    """A post-selection projector annihilated the state (success norm ~ 0)."""


class OptimizerFailure(SqewitError, RuntimeError):
    """A numerical minimization failed to converge from every start."""


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _require(name: str, value, *, above=None, at_least=None, at_most=None, integer: bool = False) -> None:
    """Refuse `value` by name unless it is a finite real (an integer, not a
    bool, if `integer`) that is > above, >= at_least and <= at_most where given.

    The package's one route for refusing a numeric argument, every count,
    dimension, index and seed included, by name: a bare `x < 0` lets NaN
    through, and a float dimension would fail later, inside numpy or `range`.
    """
    limits = {op: bound for op, bound in ((">", above), (">=", at_least), ("<=", at_most)) if bound is not None}
    if integer:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not (ok and all(_COMPARE[op](value, bound) for op, bound in limits.items())):
        want = " and ".join(["an integer" if integer else "finite", *(f"{op} {b}" for op, b in limits.items())])
        raise ContractViolationError(f"{name} must be {want}, got {value}")

"""Exception types shared across the package."""


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

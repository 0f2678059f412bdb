"""Virtual non-unitary gates: Gaussian coupling plus p = 0 post-selection.

A resource in mode 1 is coupled to a target mode by a QND or balanced
beam-splitter unitary; homodyne detection of mode 1 conditioned on p = 0 is
an exact contraction against the momentum eigenbra, leaving a normalized
conditional state and a success amplitude in mode 2. The coupling and the
contraction are one step, `fock._p0_output`, shared with every breeding
round; this module only normalizes its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock, states
from .errors import ContractViolationError, ProjectionAnnihilatedError
from .fock import FockState

ANNIHILATION_EPS = 1e-12


@dataclass(frozen=True)
class GateOutcome:
    """Normalized conditional output plus its pre-normalization norm."""

    output: FockState
    success_norm: float


def couple_and_condition(mode1: FockState, mode2: FockState, kind: str) -> GateOutcome:
    """Apply the coupler to mode1 ⊗ mode2 and post-select p = 0 on mode 1."""
    if mode1.dim != mode2.dim:
        raise ContractViolationError(f"mode dimensions differ: {mode1.dim} vs {mode2.dim}")
    out = fock._p0_output(kind, mode1.amps, mode2.amps)
    success = float(np.linalg.norm(out))
    if success < ANNIHILATION_EPS:
        raise ProjectionAnnihilatedError(
            f"p = 0 projection annihilated the state (norm {success:.3e})"
        )
    return GateOutcome(output=FockState(out), success_norm=success)


def gate_report(resource: FockState, kind: str, u: float, phi: float) -> dict:
    """Fidelity and success norm for one resource, as a flat record of
    computed values only (the inputs are the caller's to record).

    The fidelity is the overlap of the output conditioned from
    |resource> ⊗ |0> with the ideal target at the resource's dimension;
    when that space cannot hold the ideal state losslessly (small dims,
    large u) the normalized truncation stands in, keeping the figure
    comparable across pipelines.
    """
    target = states.ideal_gate_target(kind, u, phi, resource.dim)
    outcome = couple_and_condition(resource, fock.vacuum(resource.dim), kind)
    return {
        "fidelity": fock.overlap_fidelity(outcome.output, target),
        "success_norm": outcome.success_norm,
    }

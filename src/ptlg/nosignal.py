"""Local non-unitary evolution on half of a maximally entangled pair.

One party applies the non-unitary propagator to their qubit; the partner's
reduced state then generally deviates from the maximally mixed state, which
is quantified here as a trace distance.  The deviation vanishes exactly when
the evolution is Hermitian (alpha = 0) or trivial (sin t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, DomainError, UsageError
from .matcore import (I2, WEIGHT_FLOOR, QubitDensity, as_cmat, hermitian_defect,
                      partial_trace_first, tensor)
from .ptdyn import PTParams, propagator


@dataclass(frozen=True)
class BipartiteState:
    """4x4 two-qubit density matrix, possibly carrying an unnormalized weight."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_cmat(self.mat)
        if m.shape != (4, 4):
            raise UsageError("BipartiteState is 4x4")
        if hermitian_defect(m) > 1e-12:
            raise DomainError("bipartite state not Hermitian")
        if float(np.min(np.linalg.eigvalsh(m))) < -1e-12:
            raise DomainError("bipartite state not PSD")
        object.__setattr__(self, "mat", m)

    @property
    def weight(self) -> float:
        return float(np.trace(self.mat).real)


def bell_state() -> BipartiteState:
    """Density matrix of (|00> + |11>) / sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(np.outer(psi, psi.conj()))


def bob_reduced(p: PTParams) -> QubitDensity:
    """Partner's reduced state after the local non-unitary step, renormalized."""
    u = propagator(p)
    local = tensor(u, I2)
    evolved = local @ bell_state().mat @ local.conj().T
    reduced = partial_trace_first(evolved)
    w = float(np.trace(reduced).real)
    if w < WEIGHT_FLOOR:
        raise DegenerateWeightError(f"reduced weight {w:.3e} cannot be renormalized")
    return QubitDensity(reduced / w)


def signaling_deviation(p: PTParams) -> float:
    """Trace distance between the partner's reduced state and I/2."""
    diff = bob_reduced(p).mat - I2 / 2.0
    eigs = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(eigs)))

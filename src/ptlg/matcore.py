"""Dense 2x2 / 4x4 complex matrix algebra and qubit-state primitives.

Everything here is a pure function over immutable values; matrices are
numpy arrays that are never mutated in place.  Positive semidefiniteness
of 2x2 states is decided with the closed-form eigenvalue formula
(trace/determinant), not an iterative solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightError, DomainError, UsageError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
DICHOTOMY_TOL = 1e-12
WEIGHT_FLOOR = 1e-14

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_cmat(a) -> np.ndarray:
    """Coerce to a square 2x2 or 4x4 complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise UsageError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise UsageError("matrix has non-finite entries")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise UsageError("tensor expects two 2x2 matrices")
    return np.kron(a, b)


def partial_trace_first(m: np.ndarray) -> np.ndarray:
    """Trace a 4x4 matrix over its first tensor factor, leaving a 2x2 block."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise UsageError("partial_trace_first expects a 4x4 matrix")
    return m[:2, :2] + m[2:, 2:]


def hermitian_defect(a: np.ndarray) -> float:
    """Max-entry distance from the adjoint; zero for Hermitian matrices."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T)))


def hermitian_eigvals_2x2(a: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalues of a Hermitian 2x2 matrix, ascending."""
    t = np.trace(a).real
    d = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = max(0.25 * t * t - d, 0.0)
    r = np.sqrt(disc)
    return (0.5 * t - r, 0.5 * t + r)


@dataclass(frozen=True)
class QubitDensity:
    """A 2x2 density matrix that may carry an unnormalized weight (trace >= 0).

    Hermiticity and positive semidefiniteness are enforced at construction,
    both to ``1e-12`` tolerances.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_cmat(self.mat)
        if m.shape != (2, 2):
            raise UsageError("QubitDensity is 2x2")
        if hermitian_defect(m) > HERMITICITY_TOL:
            raise DomainError(f"density not Hermitian: defect {hermitian_defect(m):.2e}")
        lo, _ = hermitian_eigvals_2x2(m)
        if lo < -PSD_TOL:
            raise DomainError(f"density not PSD: lowest eigenvalue {lo:.2e}")
        object.__setattr__(self, "mat", m)

    @property
    def weight(self) -> float:
        return float(np.trace(self.mat).real)

    def normalize(self) -> "QubitDensity":
        """Rescale to unit trace; degenerate weight cannot be renormalized."""
        w = self.weight
        if w < WEIGHT_FLOOR:
            raise DegenerateWeightError(f"weight {w:.3e} below renormalization floor")
        return QubitDensity(self.mat / w)

    def expectation(self, observable: np.ndarray) -> float:
        return float(np.trace(self.mat @ observable).real)


@dataclass(frozen=True)
class Projector:
    """Eigenprojector (I + outcome * M) / 2 of a dichotomic observable M."""

    observable: np.ndarray
    outcome: int
    mat: np.ndarray


def projector(observable: np.ndarray, outcome: int) -> Projector:
    """Build the +-1 outcome projector of a Hermitian observable with M^2 = I."""
    m = as_cmat(observable)
    if m.shape != (2, 2):
        raise UsageError("projector expects a 2x2 observable")
    if outcome not in (+1, -1):
        raise UsageError(f"outcome must be +1 or -1, got {outcome}")
    if hermitian_defect(m) > DICHOTOMY_TOL:
        raise DomainError("observable is not Hermitian")
    if float(np.max(np.abs(m @ m - I2))) > DICHOTOMY_TOL:
        raise DomainError("observable is not dichotomic (M^2 != I)")
    return Projector(observable=m, outcome=outcome, mat=(I2 + outcome * m) / 2.0)

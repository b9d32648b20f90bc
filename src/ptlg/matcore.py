"""Dense 2x2 complex matrix algebra and qubit-state primitives.

Everything here is a pure function over immutable values; matrices are
numpy arrays that are never mutated in place.  Positive semidefiniteness
of 2x2 states is decided with the closed-form eigenvalue formula
(trace/determinant), not an iterative solver.

A state may also be a stack of shape (..., 2, 2), one matrix per point of a
grid.  The checks then apply to every point with the same tolerances.  A
failing point raises the typed error it raises alone, and on a stack that
error names every failing point (`raise_where`), so that a caller can drop
them and evaluate the rest as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
DICHOTOMY_TOL = 1e-12
WEIGHT_FLOOR = 1e-14

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_cmat(a) -> np.ndarray:
    """Coerce to a 2x2 complex matrix, or a stack of them, with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise UsageError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise UsageError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def weights(m: np.ndarray):
    """Real part of the trace of a 2x2 matrix, or an array of them for a stack.

    Equal to ``np.trace(m).real`` bit for bit: its sum starts from 0.0, which
    the trailing ``+ 0.0`` reproduces (it turns -0.0 into 0.0).
    """
    return (m[..., 0, 0] + m[..., 1, 1]).real + 0.0


def raise_where(bad, values, error):
    """Raise `error(value)` for the first point where `bad` holds, if any does.

    `bad` and `values` are one point's flag and value, or arrays with one per
    point of a stack.  On a stack the error also carries `failures`: each
    failing index mapped to the message that point raises alone.
    """
    if not (np.count_nonzero(bad) if isinstance(bad, np.ndarray) else bad):
        return
    if not isinstance(bad, np.ndarray):
        raise error(values)
    errors = {int(i): error(float(values[i])) for i in np.flatnonzero(bad)}
    first = next(iter(errors.values()))
    first.failures = {i: str(e) for i, e in errors.items()}
    raise first


def per_matrix(w):
    """Values of a stack shaped (..., 1, 1) to scale its matrices; a single value as is."""
    return w[..., None, None] if isinstance(w, np.ndarray) else w


def hermitian_defect(a: np.ndarray):
    """Max-entry distance from the adjoint, per matrix of a stack; zero for Hermitian matrices.

    Entry by entry: a diagonal entry is off by twice its imaginary part, and
    both off-diagonal entries are off by |a01 - a10^*|.
    """
    a = np.asarray(a, dtype=complex)
    diagonal = 2 * np.maximum(abs(a[..., 0, 0].imag), abs(a[..., 1, 1].imag))
    return np.maximum(abs(a[..., 0, 1] - a[..., 1, 0].conj()), diagonal)


def hermitian_eigvals_2x2(a: np.ndarray):
    """Closed-form eigenvalues of a Hermitian 2x2 matrix (or per matrix of a stack), ascending."""
    t = weights(a)
    d = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    r = np.sqrt(np.maximum(0.25 * t * t - d, 0.0))
    return (0.5 * t - r, 0.5 * t + r)


@dataclass(frozen=True)
class QubitDensity:
    """A 2x2 density matrix, or a stack (..., 2, 2) of them, that may carry an
    unnormalized weight (trace >= 0).

    Hermiticity and positive semidefiniteness are enforced at construction,
    both to ``1e-12`` tolerances, at every point of a stack.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_cmat(self.mat)
        defect = hermitian_defect(m)
        raise_where(defect > HERMITICITY_TOL, defect,
                    lambda d: DomainError(f"density not Hermitian: defect {d:.2e}"))
        lo = hermitian_eigvals_2x2(m)[0]
        raise_where(lo < -PSD_TOL, lo,
                    lambda lo: DomainError(f"density not PSD: lowest eigenvalue {lo:.2e}"))
        object.__setattr__(self, "mat", m)


def mixture(p, kets: np.ndarray) -> np.ndarray:
    """sum_k p_k psi_k psi_k^dagger of the kets psi_k, the columns of a (2, K) array or (..., 2, K)
    stack, at the K weights p; entry by entry, in k order (one ket is one outer product)."""
    terms = [(pk * kets[..., k])[..., :, None] * kets[..., None, :, k].conj()
             for k, pk in enumerate(p)]
    return sum(terms[1:], terms[0])


def projector(observable: np.ndarray, outcome: int) -> np.ndarray:
    """The +-1 outcome projector (I + outcome * M) / 2 of a Hermitian observable with M^2 = I."""
    m = as_cmat(observable)
    if m.shape != (2, 2):
        raise UsageError("projector expects a 2x2 observable")
    if outcome not in (+1, -1):
        raise UsageError(f"outcome must be +1 or -1, got {outcome}")
    if hermitian_defect(m) > DICHOTOMY_TOL:
        raise DomainError("observable is not Hermitian")
    if float(np.max(np.abs(m @ m - I2))) > DICHOTOMY_TOL:
        raise DomainError("observable is not dichotomic (M^2 != I)")
    return (I2 + outcome * m) / 2.0

"""PT-symmetric qubit Hamiltonian, its eigensystem, and the non-unitary propagator.

The Hamiltonian is H = s [[i sin(alpha), 1], [1, -i sin(alpha)]], which has
real spectrum +-s cos(alpha) for |alpha| < pi/2. Because H^2 = (s cos alpha)^2 I,
the propagator exp(-i H tau) reduces to the closed form

    U(t) = cos(t) I - i sin(t) H / (s cos alpha),        t = s tau cos(alpha).

The dimensionless duration t is the only time variable exposed anywhere; tau
never appears in the API.  The off-diagonal entries of U(t) produced by this
exponentiation are both -i sin(t)/cos(alpha); this sign convention is the one
under which U U^dagger matches its closed-form coefficients (d1, d2, d3) and
the entangled-pair reduced state matches its closed form, so it is pinned
here and treated as canonical throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ExceptionalPointError, UsageError
from .matcore import I2, raise_where

ALPHA_LIMIT = np.pi / 2


def point_or_stack(x, ok=None, error=None):
    """A parameter as a float, or as a tuple of floats for a stack (given as a
    tuple or an array), so that it stays hashable.  `ok` is checked per point,
    and the points where it fails raise `error(value)` (see `raise_where`)."""
    stack = isinstance(x, (tuple, np.ndarray))
    xs = np.asarray(x, dtype=float) if stack else x
    if ok is not None:
        raise_where(~ok(xs) if stack else not ok(x), xs, error)
    return tuple(xs.tolist()) if stack else float(x)


def check_aligned(*xs):
    """Raise UsageError unless the stacks among `xs` all have the same length."""
    lengths = {len(x) for x in xs if isinstance(x, tuple)}
    if len(lengths) > 1:
        raise UsageError(f"stacks must be aligned point by point, got lengths {sorted(lengths)}")


@dataclass(frozen=True)
class PTParams:
    """Hamiltonian scale s, non-Hermiticity angle alpha, dimensionless duration t.

    alpha and t may each be a stack of N values, given as a tuple or an array
    and held as a tuple of floats so that the value stays hashable; its
    propagator is then an (N, 2, 2) stack.  Two stacks are aligned point by
    point, so they must have the same length, and every check applies per point.
    """

    alpha: float | tuple[float, ...]
    t: float | tuple[float, ...]
    s: float = 1.0

    def __post_init__(self):
        alpha = point_or_stack(self.alpha, lambda a: abs(a) < ALPHA_LIMIT, lambda a:
                               ExceptionalPointError(f"alpha={a!r} outside the real-spectrum "
                                                     "regime |alpha| < pi/2"))
        if not np.isfinite(self.s) or self.s <= 0:
            raise DomainError(f"scale s must be positive, got {self.s!r}")
        t = point_or_stack(self.t, lambda t: (t >= 0) & (t < np.inf),
                           lambda t: DomainError(f"duration t must be >= 0, got {t!r}"))
        check_aligned(alpha, t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "t", t)


def with_t(p: PTParams, t: float) -> PTParams:
    """Same Hamiltonian, different duration."""
    return replace(p, t=t)


@dataclass(frozen=True)
class EigenSystem:
    """Real energies +-s cos(alpha) and the matching non-orthogonal eigenvectors."""

    e_plus: float
    e_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray


def _per_matrix(x):
    """A stack's values shaped (N, 1, 1) to scale its matrices; a point's value as is."""
    return np.array(x)[:, None, None] if isinstance(x, tuple) else x


def hamiltonian(p: PTParams) -> np.ndarray:
    """s [[i sin alpha, 1], [1, -i sin alpha]]; traceless; (N, 2, 2) for an alpha stack."""
    sa = np.sin(p.alpha)
    if isinstance(p.alpha, tuple):
        one = np.ones_like(sa)
        return p.s * np.array([[1j * sa, one], [one, -1j * sa]]).transpose(2, 0, 1)
    return p.s * np.array([[1j * sa, 1.0], [1.0, -1j * sa]], dtype=complex)


def eigensystem(p: PTParams) -> EigenSystem:
    """Closed-form eigenpairs; the eigenvectors coalesce as |alpha| -> pi/2."""
    e = p.s * np.cos(p.alpha)
    pref = 1.0 / np.sqrt(2.0 * np.cos(p.alpha))
    v_plus = pref * np.exp(1j * p.alpha / 2) * np.array([1.0, np.exp(-1j * p.alpha)])
    v_minus = pref * np.exp(-1j * p.alpha / 2) * np.array([1.0, -np.exp(1j * p.alpha)])
    return EigenSystem(e_plus=e, e_minus=-e, v_plus=v_plus, v_minus=v_minus)


def propagator(p: PTParams) -> np.ndarray:
    """exp(-i H tau) via the H^2 = (s cos alpha)^2 I identity.

    A stack of N durations, angles or both gives the (N, 2, 2) stack; each
    entry of a t-stack is computed exactly as for a single duration.
    """
    h_unit = hamiltonian(p) / (p.s * np.cos(_per_matrix(p.alpha)))
    t = _per_matrix(p.t)
    return np.cos(t) * I2 - 1j * np.sin(t) * h_unit


def composition_check(p: PTParams, t1, t2) -> float:
    """Max-entry norm of U(t1) U(t2) - U(t1 + t2), over a whole stack; roundoff-small
    by the group law."""
    u1 = propagator(with_t(p, t1))
    u2 = propagator(with_t(p, t2))
    u12 = propagator(with_t(p, t1 + t2))
    return float(np.max(np.abs(u1 @ u2 - u12)))

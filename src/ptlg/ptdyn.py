"""PT-symmetric qubit Hamiltonian, its eigensystem, and the non-unitary propagator.

The Hamiltonian is H = [[i sin(alpha), 1], [1, -i sin(alpha)]], which has
real spectrum +-cos(alpha) for |alpha| < pi/2. Because H^2 = cos^2(alpha) I,
the propagator exp(-i H tau) reduces to the closed form

    U(t) = cos(t) I - i sin(t) H / cos(alpha),        t = tau cos(alpha).

A scale s (H -> s H) would only rescale t = s tau cos(alpha) and cancel from
U(t), so it is not a parameter.  The dimensionless duration t is the only time
variable exposed anywhere; tau never appears in the API.  H is complex
symmetric (H^T = H), and so is U(t): U^T = U.  The off-diagonal
entries of U(t) produced by this exponentiation are both -i sin(t)/cos(alpha);
this sign convention is the one under which U U^dagger and the entangled-pair
reduced state match their closed form (`closedform.uu_dagger_reference`), so
it is pinned here and treated as canonical throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExceptionalPointError, UsageError
from .matcore import I2, per_matrix, raise_where

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
    """The length of the stacks among `xs` (None if none is); UsageError unless they agree."""
    lengths = {len(x) for x in xs if isinstance(x, tuple)}
    if len(lengths) > 1:
        raise UsageError(f"stacks must be aligned point by point, got lengths {sorted(lengths)}")
    return lengths.pop() if lengths else None


@dataclass(frozen=True)
class PTParams:
    """Non-Hermiticity angle alpha and dimensionless duration t.

    alpha and t may each be a stack of N values, given as a tuple or an array
    and held as a tuple of floats so that the value stays hashable; its
    propagator is then an (N, 2, 2) stack.  Two stacks are aligned point by
    point, so they must have the same length, and every check applies per point.
    """

    alpha: float | tuple[float, ...]
    t: float | tuple[float, ...]

    def __post_init__(self):
        alpha = point_or_stack(self.alpha, lambda a: abs(a) < ALPHA_LIMIT, lambda a:
                               ExceptionalPointError(f"alpha={a!r} outside the real-spectrum "
                                                     "regime |alpha| < pi/2"))
        t = point_or_stack(self.t, lambda t: (t >= 0) & (t < np.inf), _duration_error)
        check_aligned(alpha, t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "t", t)


def _duration_error(t) -> DomainError:
    return DomainError(f"duration t must be >= 0, got {t!r}")


def scaled(p: PTParams, n: int) -> PTParams:
    """Same Hamiltonian, n times the duration (`multiple`), without re-running p's checks."""
    stack = isinstance(p.t, tuple)
    t = multiple(np.array(p.t) if stack else p.t, n)  # n * tuple would repeat the grid
    q = object.__new__(PTParams)
    object.__setattr__(q, "alpha", p.alpha)
    object.__setattr__(q, "t", tuple(t.tolist()) if stack else t)
    return q


def multiple(t, n: int):
    """n t, checked: a product that overflows raises, per point, what an infinite t raises."""
    with np.errstate(over="ignore"):  # an overflow is reported per point below
        t = n * t
    raise_where(t == np.inf, t, _duration_error)
    return t


def hamiltonian(p: PTParams) -> np.ndarray:
    """[[i sin alpha, 1], [1, -i sin alpha]]; traceless and complex symmetric;
    (N, 2, 2) for an alpha stack."""
    sa = np.sin(p.alpha)
    if isinstance(p.alpha, tuple):
        one = np.ones_like(sa)
        return np.array([[1j * sa, one], [one, -1j * sa]]).transpose(2, 0, 1)
    return np.array([[1j * sa, 1.0], [1.0, -1j * sa]], dtype=complex)


def eigensystem(p: PTParams) -> tuple:
    """Closed-form (e, V): the energies are +-e, e = cos(alpha), and the columns
    of V are the matching non-orthogonal eigenvectors, +e first.

    An alpha stack gives an (N,) e and an (N, 2, 2) V.  The eigenvectors
    coalesce as |alpha| -> pi/2.
    """
    # column +-: c (1, w) with c = e^(+-i alpha/2) / sqrt(2 cos alpha), w = +-e^(-+i alpha).
    # alpha is at least 2-d so that a point runs the same array loops as a stack
    # (numpy's scalar complex product rounds differently).
    a = np.asarray(p.alpha)[..., None, None]
    c = 1.0 / np.sqrt(2.0 * np.cos(a)) * np.exp([0.5j, -0.5j] * a)
    v = c * np.concatenate([np.ones_like(c), [1, -1] * np.exp([-1j, 1j] * a)], axis=-2)
    return np.cos(p.alpha), v


def propagator(p: PTParams) -> np.ndarray:
    """exp(-i H tau) via the H^2 = cos^2(alpha) I identity.

    A stack of N durations, angles or both gives the (N, 2, 2) stack; each
    entry of a t-stack is computed exactly as for a single duration.
    """
    h_unit = hamiltonian(p) / np.cos(per_matrix(p.alpha))
    t = per_matrix(p.t)
    return np.cos(t) * I2 - 1j * np.sin(t) * h_unit


def composition_check(alpha, t1, t2) -> float:
    """Max-entry norm of U(t1) U(t2) - U(t1 + t2) at the angles alpha, over a whole stack,
    from one propagator stack of the three durations; roundoff-small by the group law."""
    a, x, y = np.broadcast_arrays(alpha, t1, t2)
    u1, u2, u12 = np.split(propagator(PTParams(np.tile(a.ravel(), 3), np.ravel([x, y, x + y]))), 3)
    return float(np.max(np.abs(u1 @ u2 - u12)))

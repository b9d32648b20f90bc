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


def hold(obj, *points, **checks) -> None:
    """Hold each field of `obj` named in `checks` as a float, or a stack (a tuple, a list or an
    array) as a read-only 1-d float array copied from it; `checks[name]` is (ok, error), and the
    points where `ok` fails raise `error(value)` (`raise_where`).  Sets `obj.points` to the
    stacks' length, which each N of `points` not None must share too, or None if none is one."""
    lengths = set(points) - {None}
    for name, (ok, error) in checks.items():
        x = np.array(getattr(obj, name), dtype=float)  # a copy: the caller's cannot change it
        if x.ndim > 1:
            raise UsageError(f"{name}: a stack is 1-d, got shape {x.shape}")
        if x.ndim:
            x.setflags(write=False)
            lengths.add(len(x))
            raise_where(~ok(x), x, error)
        else:
            x = float(x)
            raise_where(not ok(x), x, error)
        object.__setattr__(obj, name, x)
    if len(lengths) > 1:
        raise UsageError(f"stacks must be aligned point by point, got lengths {sorted(lengths)}")
    object.__setattr__(obj, "points", lengths.pop() if lengths else None)


class ByValue:
    """Equality and hash by value, a stack's by its bytes, for a frozen dataclass with eq=False."""

    def _key(self) -> tuple:
        return tuple(x.tobytes() if isinstance(x, np.ndarray) else x for x in vars(self).values())

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class PTParams(ByValue):
    """Non-Hermiticity angle alpha and dimensionless duration t, each a float or a stack of N
    values (`hold`, `points`); the propagator is then an (N, 2, 2) stack, every check per point."""

    alpha: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        hold(self, alpha=(lambda a: abs(a) < ALPHA_LIMIT, lambda a: ExceptionalPointError(
            f"alpha={a!r} outside the real-spectrum regime |alpha| < pi/2")),
             t=(lambda t: (t >= 0) & (t < np.inf), _duration_error))


def _duration_error(t) -> DomainError:
    return DomainError(f"duration t must be >= 0, got {t!r}")


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
    one = np.ones_like(sa)
    return np.array([[1j * sa, one], [one, -1j * sa]]).T  # H^T = H: the stack axis first


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
    """`composition_residual` at the angles alpha, over a whole stack, from one propagator
    stack of the three durations; roundoff-small by the group law."""
    a, x, y = np.broadcast_arrays(alpha, t1, t2)
    u = propagator(PTParams(np.tile(a.ravel(), 3), np.ravel([x, y, x + y])))
    return composition_residual(u, a.size)


def composition_residual(u: np.ndarray, n: int) -> float:
    """Max-entry norm of U(t1) U(t2) - U(t1 + t2), the points [:n], [n:2n] and [2n:3n] of u."""
    return float(np.abs(u[:n] @ u[n:2 * n] - u[2 * n:3 * n]).max())

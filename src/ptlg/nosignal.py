"""Local non-unitary evolution on half of a maximally entangled pair.

One party applies the non-unitary propagator to their qubit; the partner's
reduced state then generally deviates from the maximally mixed state, which
is quantified here as a trace distance.  The deviation vanishes exactly when
the evolution is Hermitian (alpha = 0) or trivial (sin t = 0).  A t-grid in
`PTParams` gives one stacked evaluation with one value per grid point.

No two-qubit state is built.  For the pair (|00> + |11>) / sqrt(2), tracing
(U x I) |pair><pair| (U^dag x I) over the first qubit leaves (U^dag U)^T / 2,
so the renormalized partner state is (U^T U^*) / tr(U^dag U), a 2x2 product.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWeightError
from .matcore import I2, WEIGHT_FLOOR, QubitDensity, lowest, per_matrix, weights
from .ptdyn import PTParams, propagator


def bob_reduced(p: PTParams) -> QubitDensity:
    """Partner's reduced state after the local non-unitary step, renormalized."""
    u = propagator(p)
    reduced = u.swapaxes(-1, -2) @ u.conj()  # (U^dag U)^T = U^T U^*
    w = weights(reduced)
    if lowest(w) < WEIGHT_FLOOR:
        raise DegenerateWeightError(f"reduced weight {lowest(w):.3e} cannot be renormalized")
    return QubitDensity(reduced / per_matrix(w))


def signaling_deviation(p: PTParams):
    """Trace distance between the partner's reduced state and I/2; an (N,)
    array for a t-grid.

    The difference d is traceless and Hermitian, so its eigenvalues are
    +-sqrt(d00^2 + |d01|^2) and the trace distance is that root.
    """
    d = bob_reduced(p).mat - I2 / 2.0
    dev = np.hypot(d[..., 0, 0].real, np.abs(d[..., 0, 1]))
    return dev if isinstance(dev, np.ndarray) else float(dev)

"""Local non-unitary evolution on half of a maximally entangled pair.

One party applies the non-unitary propagator to their qubit; the partner's
reduced state then generally deviates from the maximally mixed state, which
is quantified here as a trace distance.  The deviation vanishes exactly when
the evolution is Hermitian (alpha = 0) or trivial (sin t = 0).  A t-grid in
`PTParams` gives one stacked evaluation with one value per grid point.

No two-qubit state is built.  For the pair (|00> + |11>) / sqrt(2), tracing
(U x I) |pair><pair| (U^dag x I) over the first qubit leaves (U^dag U)^T / 2,
which is U U^dag / 2 as U^T = U (see `ptdyn`): the mixture of U's two columns at
weight 1/2, entry by entry (`matcore.mixture`): the pre-evolved maximally mixed
start of `protocol`, bit for bit, at weight tr(U U^dag) / 2 >= 1 (det U = 1).
"""

from __future__ import annotations

import numpy as np

from .matcore import I2
from .protocol import _start, maximally_mixed
from .ptdyn import PTParams, propagator


def bob_reduced(p: PTParams) -> np.ndarray:
    """Partner's reduced state after the local non-unitary step, renormalized, as a (2, 2)
    complex array ((N, 2, 2) for a t-grid): the pre-evolved maximally mixed start of `protocol`."""
    return _start(maximally_mixed(), propagator(p))


def mixed_distance(rho: np.ndarray):
    """Trace distance between the partner's state `rho` (..., 2, 2) and I/2, an (N,) array for
    a stack: sqrt(d00^2 + |d01|^2), the upper eigenvalue of the traceless rho - I/2."""
    d = rho - I2 / 2.0
    dev = np.hypot(d[..., 0, 0].real, np.abs(d[..., 0, 1]))
    return dev if isinstance(dev, np.ndarray) else float(dev)


def signaling_deviation(p: PTParams):
    """`mixed_distance` of `bob_reduced(p)`; an (N,) array for a t-grid."""
    return mixed_distance(bob_reduced(p))

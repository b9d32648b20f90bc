"""Numerical laboratory for temporal quantum correlations of a qubit evolving
under a PT-symmetric (non-Hermitian) Hamiltonian: Leggett-Garg expressions,
no-signaling-in-time and arrow-of-time diagnostics, an entangled-pair
signaling demo, and the parameter sweeps behind the diagnostic figures.
"""

from .errors import (
    DegenerateContextError,
    DegenerateWeightError,
    DomainError,
    ExceptionalPointError,
    UsageError,
)
from .lgexpr import (
    ContextTable,
    correlator,
    expression,
    l123_and_beta,
    l13,
    table,
    v123_and_delta,
    variant_v,
)
from .macrodiag import (
    DegreeReport,
    ViolationReport,
    decomposition_residual_standard,
    decomposition_residual_variant,
    degree_report,
    violation_classifier,
)
from .matcore import QubitDensity, projector
from .nosignal import bob_reduced, signaling_deviation
from .protocol import (
    MeasurementContext,
    OutcomeDistribution,
    ScenarioPreset,
    distribution,
    initial_state_at_t1,
    maximally_mixed,
    pt_standard,
    pt_variant,
    pure_state,
    unitary_standard,
    unitary_variant,
    unnormalized_chain,
)
from .ptdyn import (
    PTParams,
    composition_check,
    eigensystem,
    propagator,
)
from .sweep import FigureData, GridSpec, SweepConfig, SweepResult, figure_data, refine_max, scan

__version__ = "0.1.0"

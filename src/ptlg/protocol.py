"""Measurement contexts and outcome distributions for the three-time protocol.

A scenario fixes an initial state, a dichotomic observable, an evolution rule,
and whether the state is evolved for one step duration before the first
measurement time.  Measurements may happen at any non-empty subset of the
three equally spaced times; an unmeasured intermediate time contributes a
single composed propagator over the doubled duration.

Joint probabilities follow the projective chain

    p~(m_1, ..., m_k) = Tr[ Pi_k U ... Pi_1 rho(t1) Pi_1 ... U^dagger Pi_k ],

normalized once per context by N = sum of p~ over all outcome tuples.  Under
non-unitary evolution N differs from context to context, which is exactly what
lets the marginal of a finer context disagree with a coarser context's
distribution (the macrorealism diagnostics in `macrodiag` quantify this).
Per-step renormalization is deliberately not used: it would force every
future-marginalization identity to hold and erase the effect under study.

Two chains reach the measured times (`_chain_legs` holds the rule).  The
sequential chain (the default) starts from `initial_state_at_t1` and crosses
a gap of n steps with U(n t).  The published chain, opted into with
`published=True` on the PT presets, is the one that the pair forms in
`closedform` encode: it starts from the bare state, reaches the first
measured time k through U((k+1) t) without renormalizing, and crosses a gap
of n steps with U((n+1) t) U(t)^dagger.  The rule is inferred from those
forms, which it reproduces as an identity.  At alpha = 0 both chains agree for
the mixed state; for alpha != 0 the published gap is not U(n t).

A PT preset may carry a t-grid in place of one duration (see `PTParams`).
Its propagators, chain states and outcome probabilities are then stacks with
one entry per grid point, computed by the same code and the same order of
operations as a single point, so each entry equals that point evaluated
alone.  Every check applies per point; a failure at any point raises.

Basis labeling: the computational ket |0> used by PURE(theta, phi) is the
sigma_z eigenvector with eigenvalue -1.  Unitary scenarios conjugate
observables forward with exp(+i t sigma_x) per step, so states evolve with
its adjoint exp(-i t sigma_x).  Both pins are what make the variant
expression's quoted optimum land at its stated parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateContextError, DegenerateWeightError, UsageError
from .matcore import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, WEIGHT_FLOOR, QubitDensity, dagger,
                      lowest, per_matrix, projector, weights)
from .ptdyn import PTParams, propagator, with_t

MAXIMALLY_MIXED = "maximally_mixed"
PURE = "pure"


@dataclass(frozen=True)
class InitialState:
    kind: str
    theta: float = 0.0
    phi: float = 0.0

    def density(self) -> QubitDensity:
        if self.kind == MAXIMALLY_MIXED:
            return QubitDensity(I2 / 2.0)
        # |0> is the lower sigma_z eigenvector, so cos(theta)|0> + e^{i phi} sin(theta)|1>
        # is the column vector (e^{i phi} sin(theta), cos(theta)).
        psi = np.array([np.exp(1j * self.phi) * np.sin(self.theta), np.cos(self.theta)])
        return QubitDensity(np.outer(psi, psi.conj()))


def maximally_mixed() -> InitialState:
    return InitialState(kind=MAXIMALLY_MIXED)


def pure_state(theta: float, phi: float) -> InitialState:
    return InitialState(kind=PURE, theta=float(theta), phi=float(phi))


@dataclass(frozen=True)
class UnitaryEvolution:
    """Unitary stepping: observables advance with the conjugator exp(+i t sigma_x),
    states with its adjoint exp(-i t sigma_x).
    """

    t: float

    def step(self, n_segments: int) -> np.ndarray:
        angle = n_segments * self.t
        return np.cos(angle) * I2 - 1j * np.sin(angle) * SIGMA_X


@dataclass(frozen=True)
class PTEvolution:
    """Non-unitary stepping exp(-i H tau) with the closed-form propagator.

    `published` selects the published chain (see the module docstring).
    """

    params: PTParams
    published: bool = False

    def step(self, n_segments: int) -> np.ndarray:
        t = self.params.t
        if isinstance(t, tuple):  # n * tuple would repeat the grid
            t = np.array(t)
        return propagator(with_t(self.params, n_segments * t))


UNITARY_STANDARD = "UNITARY_STANDARD"
UNITARY_VARIANT = "UNITARY_VARIANT"
PT_STANDARD = "PT_STANDARD"
PT_VARIANT = "PT_VARIANT"


@dataclass(frozen=True)
class ScenarioPreset:
    label: str
    initial_state: InitialState
    observable: np.ndarray
    evolution: UnitaryEvolution | PTEvolution
    pre_evolution: bool


def unitary_standard(t: float, initial_state: InitialState | None = None) -> ScenarioPreset:
    """sigma_z measurements, unitary steps; mixed initial state unless overridden."""
    return ScenarioPreset(
        label=UNITARY_STANDARD,
        initial_state=initial_state if initial_state is not None else maximally_mixed(),
        observable=SIGMA_Z,
        evolution=UnitaryEvolution(t=float(t)),
        pre_evolution=False,
    )


def unitary_variant(t: float, theta: float, phi: float) -> ScenarioPreset:
    """sigma_z measurements on a pure state prepared at the first time."""
    return ScenarioPreset(
        label=UNITARY_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Z,
        evolution=UnitaryEvolution(t=float(t)),
        pre_evolution=False,
    )


def _pt_evolution(alpha: float, t, pre_evolution: bool, published: bool) -> PTEvolution:
    if published and not pre_evolution:
        raise UsageError("the published chain fixes its own start; it needs pre_evolution=True")
    return PTEvolution(PTParams(alpha=float(alpha), t=t), published=published)


def pt_standard(alpha: float, t, pre_evolution: bool = True,
                published: bool = False) -> ScenarioPreset:
    """sigma_y measurements on the evolved maximally mixed state; t may be a t-grid."""
    return ScenarioPreset(
        label=PT_STANDARD,
        initial_state=maximally_mixed(),
        observable=SIGMA_Y,
        evolution=_pt_evolution(alpha, t, pre_evolution, published),
        pre_evolution=pre_evolution,
    )


def pt_variant(alpha: float, t, theta: float, phi: float,
               pre_evolution: bool = True, published: bool = False) -> ScenarioPreset:
    """sigma_y measurements on a pure state under non-unitary steps; t may be a t-grid."""
    return ScenarioPreset(
        label=PT_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Y,
        evolution=_pt_evolution(alpha, t, pre_evolution, published),
        pre_evolution=pre_evolution,
    )


@dataclass(frozen=True)
class MeasurementContext:
    preset: ScenarioPreset
    measured_times: tuple[int, ...]

    def __post_init__(self):
        times = tuple(self.measured_times)
        if not times or any(j not in (1, 2, 3) for j in times):
            raise UsageError(f"measured_times must be a non-empty subset of (1,2,3), got {times}")
        if tuple(sorted(set(times))) != times:
            raise UsageError(f"measured_times must be sorted and distinct, got {times}")
        object.__setattr__(self, "measured_times", times)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probability of each outcome tuple; an (N,) array per tuple for a t-grid."""

    context: MeasurementContext
    probs: dict[tuple[int, ...], float]

    def probability(self, outcomes: tuple[int, ...]) -> float:
        return self.probs[tuple(outcomes)]

    def marginal(self, times: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        """Sum out all measured times not listed in `times` (which must be measured)."""
        mine = self.context.measured_times
        if any(j not in mine for j in times):
            raise UsageError(f"{times} not all measured in context {mine}")
        pos = [mine.index(j) for j in times]
        out: dict[tuple[int, ...], float] = {}
        for oc, p in self.probs.items():
            key = tuple(oc[i] for i in pos)
            out[key] = out.get(key, 0.0) + p
        return out


def initial_state_at_t1(preset: ScenarioPreset) -> QubitDensity:
    """Normalized state at the first measurement time of the sequential chain.

    With pre-evolution the bare state is propagated for one step duration and
    renormalized; otherwise it is used as given (normalized).
    """
    rho = preset.initial_state.density().normalize()
    if not preset.pre_evolution:
        return rho
    u = preset.evolution.step(1)
    evolved = u @ rho.mat @ dagger(u)
    w = weights(evolved)
    if lowest(w) < WEIGHT_FLOOR:
        raise DegenerateWeightError(
            f"pre-evolution weight {lowest(w):.3e} cannot be renormalized")
    return QubitDensity(evolved / per_matrix(w))


def _chain_legs(preset: ScenarioPreset,
                times: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Chain state before the first measured time, and the propagator into each one.

    Sequential chain: the state at t1, U((k-1) t) into the first measured time
    k (None for k = 1), then U(n t) across a gap of n steps.  Published chain:
    the bare state, U((k+1) t) into time k, then U((n+1) t) U(t)^dagger.
    """
    evo = preset.evolution
    gaps = [b - a for a, b in zip(times, times[1:])]
    if isinstance(evo, PTEvolution) and evo.published:
        return (preset.initial_state.density().normalize().mat,
                [evo.step(times[0] + 1)]
                + [evo.step(n + 1) @ dagger(evo.step(1)) for n in gaps])
    return (initial_state_at_t1(preset).mat,
            [evo.step(times[0] - 1) if times[0] > 1 else None] + [evo.step(n) for n in gaps])


def unnormalized_chain(ctx: MeasurementContext, outcomes: tuple[int, ...]) -> float:
    """Chain value p~ for one outcome tuple; nonnegative up to roundoff."""
    times = ctx.measured_times
    if len(outcomes) != len(times):
        raise UsageError(f"{len(times)} measured times but {len(outcomes)} outcomes")
    rho, legs = _chain_legs(ctx.preset, times)
    for u, m in zip(legs, outcomes):
        if u is not None:
            rho = u @ rho @ u.conj().T
        pi = projector(ctx.preset.observable, m).mat
        rho = pi @ rho @ pi
    value = float(np.trace(rho).real)
    return max(value, 0.0)


def _clamped_weight(rho: np.ndarray):
    """max(weight, 0.0): a float for one point, elementwise for a stack."""
    w = weights(rho)
    if isinstance(w, np.ndarray):
        return np.where(w < 0.0, 0.0, w)  # max() per point, signed zeros included
    return max(float(w), 0.0)


def distribution(ctx: MeasurementContext) -> OutcomeDistribution:
    """Per-context normalized outcome table over +-1 tuples.

    Equivalent to normalizing `unnormalized_chain` over all outcome tuples;
    partial chain states are shared across tuples via branching.  For a
    t-grid preset each branch is a stack and each probability an (N,) array.
    """
    times = ctx.measured_times
    pi = {m: projector(ctx.preset.observable, m).mat for m in (+1, -1)}
    start, legs = _chain_legs(ctx.preset, times)
    branches: dict[tuple[int, ...], np.ndarray] = {(): start}
    for u in legs:
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for oc, rho in branches.items():
            if u is not None:
                rho = u @ rho @ dagger(u)
            for m in (+1, -1):
                grown[oc + (m,)] = pi[m] @ rho @ pi[m]
        branches = grown
    raw = {oc: _clamped_weight(rho) for oc, rho in branches.items()}
    total = sum(raw.values())
    if lowest(total) < WEIGHT_FLOOR:
        raise DegenerateContextError(
            f"context {times} carries total weight {lowest(total):.3e}; cannot normalize"
        )
    return OutcomeDistribution(context=ctx, probs={k: v / total for k, v in raw.items()})


def one_time_probability(preset: ScenarioPreset, j: int) -> tuple[float, float]:
    """(P(+1), P(-1)) at time j from the renormalized evolved state.

    This is an independent route from `distribution`: the state is propagated
    to t_j along the preset's chain, renormalized, and read out with the Born
    rule.
    """
    if j not in (1, 2, 3):
        raise UsageError(f"time index must be 1, 2 or 3, got {j}")
    rho, (u,) = _chain_legs(preset, (j,))
    if u is not None:
        evolved = u @ rho @ u.conj().T
        w = float(np.trace(evolved).real)
        if w < WEIGHT_FLOOR:
            raise DegenerateWeightError(f"weight {w:.3e} at time {j} cannot be renormalized")
        rho = QubitDensity(evolved / w).mat
    p_plus = float(np.trace(rho @ projector(preset.observable, +1).mat).real)
    p_plus = min(max(p_plus, 0.0), 1.0)
    return p_plus, 1.0 - p_plus

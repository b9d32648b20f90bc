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
from .matcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, WEIGHT_FLOOR, QubitDensity, projector
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
    """Non-unitary stepping exp(-i H tau) with the closed-form propagator."""

    params: PTParams

    def step(self, n_segments: int) -> np.ndarray:
        return propagator(with_t(self.params, n_segments * self.params.t))


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


def pt_standard(alpha: float, t: float, pre_evolution: bool = True) -> ScenarioPreset:
    """sigma_y measurements on the evolved maximally mixed state."""
    return ScenarioPreset(
        label=PT_STANDARD,
        initial_state=maximally_mixed(),
        observable=SIGMA_Y,
        evolution=PTEvolution(PTParams(alpha=float(alpha), t=float(t))),
        pre_evolution=pre_evolution,
    )


def pt_variant(alpha: float, t: float, theta: float, phi: float,
               pre_evolution: bool = True) -> ScenarioPreset:
    """sigma_y measurements on a pure state under non-unitary steps."""
    return ScenarioPreset(
        label=PT_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Y,
        evolution=PTEvolution(PTParams(alpha=float(alpha), t=float(t))),
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
    """Normalized state at the first measurement time.

    With pre-evolution the bare state is propagated for one step duration and
    renormalized; otherwise it is used as given (normalized).
    """
    rho = preset.initial_state.density().normalize()
    if not preset.pre_evolution:
        return rho
    u = preset.evolution.step(1)
    evolved = u @ rho.mat @ u.conj().T
    w = float(np.trace(evolved).real)
    if w < WEIGHT_FLOOR:
        raise DegenerateWeightError(f"pre-evolution weight {w:.3e} cannot be renormalized")
    return QubitDensity(evolved / w)


def unnormalized_chain(ctx: MeasurementContext, outcomes: tuple[int, ...]) -> float:
    """Chain value p~ for one outcome tuple; nonnegative up to roundoff."""
    times = ctx.measured_times
    if len(outcomes) != len(times):
        raise UsageError(f"{len(times)} measured times but {len(outcomes)} outcomes")
    rho = initial_state_at_t1(ctx.preset).mat
    current = 1
    for j, m in zip(times, outcomes):
        if j > current:
            u = ctx.preset.evolution.step(j - current)
            rho = u @ rho @ u.conj().T
        pi = projector(ctx.preset.observable, m).mat
        rho = pi @ rho @ pi
        current = j
    value = float(np.trace(rho).real)
    return max(value, 0.0)


def distribution(ctx: MeasurementContext) -> OutcomeDistribution:
    """Per-context normalized outcome table over +-1 tuples.

    Equivalent to normalizing `unnormalized_chain` over all outcome tuples;
    partial chain states are shared across tuples via branching.
    """
    times = ctx.measured_times
    pi = {m: projector(ctx.preset.observable, m).mat for m in (+1, -1)}
    branches: dict[tuple[int, ...], np.ndarray] = {(): initial_state_at_t1(ctx.preset).mat}
    current = 1
    for j in times:
        u = ctx.preset.evolution.step(j - current) if j > current else None
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for oc, rho in branches.items():
            if u is not None:
                rho = u @ rho @ u.conj().T
            for m in (+1, -1):
                grown[oc + (m,)] = pi[m] @ rho @ pi[m]
        branches = grown
        current = j
    raw = {oc: max(float(np.trace(rho).real), 0.0) for oc, rho in branches.items()}
    total = sum(raw.values())
    if total < WEIGHT_FLOOR:
        raise DegenerateContextError(
            f"context {times} carries total weight {total:.3e}; cannot normalize"
        )
    return OutcomeDistribution(context=ctx, probs={k: v / total for k, v in raw.items()})


def one_time_probability(preset: ScenarioPreset, j: int) -> tuple[float, float]:
    """(P(+1), P(-1)) at time j from the renormalized evolved state.

    This is an independent route from `distribution`: the state is propagated
    to t_j, renormalized, and read out with the Born rule.
    """
    if j not in (1, 2, 3):
        raise UsageError(f"time index must be 1, 2 or 3, got {j}")
    rho = initial_state_at_t1(preset)
    if j > 1:
        u = preset.evolution.step(j - 1)
        evolved = u @ rho.mat @ u.conj().T
        w = float(np.trace(evolved).real)
        if w < WEIGHT_FLOOR:
            raise DegenerateWeightError(f"weight {w:.3e} at time {j} cannot be renormalized")
        rho = QubitDensity(evolved / w)
    p_plus = float(np.trace(rho.mat @ projector(preset.observable, +1).mat).real)
    p_plus = min(max(p_plus, 0.0), 1.0)
    return p_plus, 1.0 - p_plus

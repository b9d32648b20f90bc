"""Measurement contexts and outcome distributions for the three-time protocol.

A scenario fixes an initial state, a dichotomic observable, an evolution rule,
and whether the state is evolved for one step duration before the first
measurement time.  Measurements may happen at any non-empty subset of the
three equally spaced times; an unmeasured intermediate time contributes a
single composed propagator over the doubled duration.

Joint probabilities follow the projective (Lueders) chain, normalized once per
context by N = sum of p~ over all outcome tuples.  Both observables are Pauli
matrices, so each projector |m><m| is rank one, and all seven contexts of a
preset run along one chain (Emary, Lambert & Nori, Rep. Prog. Phys. 77,
016001): a weight at each time k and one transfer table per gap of n steps,

    p~(m_1, ..., m_k) = w_1(m_1) T(m_2|m_1) ... T(m_k|m_(k-1)),
    w_k(m) = <m|rho_k|m>,    T_n(m'|m) = |<m'|G_n|m>|^2,

with rho_k the chain state at time k and G_n the leg across the gap.  Each
preset forms these tables once, on first use (`ScenarioPreset.transfer`), and
`distribution` multiplies them out per context.  `unnormalized_chain`
evolves branch states along the same legs instead, as an independent oracle.
Under non-unitary evolution N differs from context to context, which is
exactly what lets the marginal of a finer context disagree with a coarser
context's distribution (`macrodiag` quantifies this).  Per-step
renormalization is deliberately not used: it would force every
future-marginalization identity to hold and erase the effect under study.

Two chains reach the measured times (`_chain` holds the rule).  The
sequential chain (the default) starts from `initial_state_at_t1` and crosses
a gap of n steps with U(n t).  The published chain, opted into with
`published=True` on the PT presets, is the one that the pair forms in
`closedform` encode: it starts from the bare state, reaches the first
measured time k through U((k+1) t) without renormalizing, and crosses a gap
of n steps with U((n+1) t) U(t)^dagger.  The rule is inferred from those
forms, which it reproduces as an identity.  At alpha = 0 both chains agree for
the mixed state; for alpha != 0 the published gap is not U(n t).

Any parameter of a preset (alpha, t, theta, phi) may be a stack of N values
in place of one, aligned point by point with the other stacks (see
`PTParams` and `InitialState`).  Its propagators, weights, transfer tables
and probabilities are then stacks with one entry per point, computed by the
same code and the same order of operations as a single point.  An entry of
a t-stack equals that point evaluated alone, bit for bit.  Stacks must have
the same length.  Every check applies per point: a failing point raises the
error it raises alone, and on a stack the error names every failing point
(see `matcore.raise_where`).

Unitary = alpha = 0 PT step: the unitary presets evolve states with
exp(-i t sigma_x), probe sigma_z and skip pre-evolution; the ket |0> of
PURE(theta, phi) is the lower sigma_z eigenvector.  These pins put the
variant expression's quoted optimum at its stated parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateContextError, DegenerateWeightError, DomainError, UsageError
from .matcore import (DICHOTOMY_TOL, I2, SIGMA_Y, SIGMA_Z, WEIGHT_FLOOR, QubitDensity, dagger,
                      per_matrix, projector, raise_where, weights)
from .ptdyn import PTParams, check_aligned, point_or_stack, propagator, with_t

MAXIMALLY_MIXED = "maximally_mixed"
PURE = "pure"


@dataclass(frozen=True)
class InitialState:
    kind: str
    theta: float | tuple[float, ...] = 0.0  # a stack of N angles is held as a tuple
    phi: float | tuple[float, ...] = 0.0

    def ket(self) -> np.ndarray:
        """cos(theta)|0> + e^{i phi} sin(theta)|1> as the column (e^{i phi} sin(theta),
        cos(theta)): |0> is the lower sigma_z eigenvector.  (N, 2) for a stack."""
        theta, phi = self.theta, self.phi
        if isinstance(theta, tuple) or isinstance(phi, tuple):
            theta, phi = np.broadcast_arrays(theta, phi)
            return np.stack([np.exp(1j * phi) * np.sin(theta), np.cos(theta)], axis=-1)
        return np.array([np.exp(1j * phi) * np.sin(theta), np.cos(theta)])

    def density(self) -> QubitDensity:
        if self.kind == MAXIMALLY_MIXED:
            return QubitDensity(I2 / 2.0)
        psi = self.ket()
        return QubitDensity(psi[..., :, None] * psi[..., None, :].conj())


def maximally_mixed() -> InitialState:
    return InitialState(kind=MAXIMALLY_MIXED)


def pure_state(theta, phi) -> InitialState:
    return InitialState(kind=PURE, theta=point_or_stack(theta), phi=point_or_stack(phi))


@dataclass(frozen=True)
class PTEvolution:
    """Stepping exp(-i H tau) with the closed-form propagator; unitary at alpha = 0.

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
    evolution: PTEvolution
    pre_evolution: bool

    def __post_init__(self):
        p, state = self.evolution.params, self.initial_state
        check_aligned(p.alpha, p.t, state.theta, state.phi)

    @cached_property
    def transfer(self) -> tuple[dict[int, tuple], dict[int, list]]:
        """The chain every context multiplies out, formed on first use: the
        weights (w(+1), w(-1)) at each time k = 1..3, and the table
        T[m'][m] = T(m'|m) across each gap of n = 1, 2 steps.

        The observable is validated and its two bras read once; the legs come
        from one `_chain`.  A failure raises here, at the first context read.
        """
        bras = []  # <m| up to a phase: row j of the validated projector |m><m| is <j|m> <m|
        for m in (+1, -1):
            proj = projector(self.observable, m)
            if abs(weights(proj) - 1.0) > DICHOTOMY_TOL:
                raise DomainError("observable needs the eigenvalues +1 and -1")
            j = int(proj[1, 1].real > proj[0, 0].real)
            bras.append(proj[j] / np.sqrt(proj[j, j].real))
        vh = np.array(bras)
        vh, v = _entries(vh), _entries(dagger(vh))
        start, into, gaps = _chain(self)
        start = _entries(start)
        weights_at = {}
        for k, u in enumerate(into, 1):
            rho = _mul(_mul(_entries(u), start), _entries(dagger(u)))  # the state at time k
            w = _mul(_mul(vh, rho), v)  # the diagonal holds w(m) = <m|rho|m>
            weights_at[k] = (w[0][0].real, w[1][1].real)
        # T[m'][m] = |<m'|g|m>|^2, squared as a product: a float's ** 2 calls pow,
        # which can round differently from a stack's ** 2
        tables = {n: [[a * a for a in map(abs, row)] for row in _mul(_mul(vh, _entries(g)), v)]
                  for n, g in enumerate(gaps, 1)}
        return weights_at, tables


def unitary_standard(t: float) -> ScenarioPreset:
    """sigma_z measurements on the maximally mixed state, alpha = 0 steps."""
    return ScenarioPreset(
        label=UNITARY_STANDARD,
        initial_state=maximally_mixed(),
        observable=SIGMA_Z,
        evolution=PTEvolution(PTParams(0.0, t)),
        pre_evolution=False,
    )


def unitary_variant(t: float, theta: float, phi: float) -> ScenarioPreset:
    """sigma_z measurements on a pure state prepared at the first time."""
    return ScenarioPreset(
        label=UNITARY_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Z,
        evolution=PTEvolution(PTParams(0.0, t)),
        pre_evolution=False,
    )


def _pt_evolution(alpha: float, t, pre_evolution: bool, published: bool) -> PTEvolution:
    if published and not pre_evolution:
        raise UsageError("the published chain fixes its own start; it needs pre_evolution=True")
    return PTEvolution(PTParams(alpha=alpha, t=t), published=published)


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
    state = preset.initial_state
    if not preset.pre_evolution:
        return state.density().normalize()
    u = preset.evolution.step(1)
    if state.kind == PURE:  # v v^dagger is Hermitian entry for entry; U rho U^dagger is not
        v = (u @ state.ket()[..., None])[..., 0]
        evolved = v[..., :, None] * v[..., None, :].conj()
    else:
        evolved = u @ state.density().normalize().mat @ dagger(u)
    w = weights(evolved)
    raise_where(w < WEIGHT_FLOOR, w, lambda w: DegenerateWeightError(
        f"pre-evolution weight {w:.3e} cannot be renormalized"))
    return QubitDensity(evolved / per_matrix(w))


def _chain(preset: ScenarioPreset) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Chain state at the start, the legs into times k = 1..3, and across gaps n = 1, 2.

    Sequential chain: the state at t1, U((k-1) t) into time k (U(0) = I for
    k = 1), then U(n t) across a gap of n steps.  Published chain: the bare
    state, U((k+1) t) into time k, then U((n+1) t) U(t)^dagger.
    """
    evo = preset.evolution
    if evo.published:
        start = preset.initial_state.density().normalize().mat
        into = [evo.step(k + 1) for k in (1, 2, 3)]
        back = dagger(evo.step(1))
        return start, into, [into[n - 1] @ back for n in (1, 2)]
    start = initial_state_at_t1(preset).mat
    into = [evo.step(k - 1) for k in (1, 2, 3)]
    return start, into, into[1:]


def unnormalized_chain(ctx: MeasurementContext, outcomes: tuple[int, ...]):
    """Chain value p~ for one outcome tuple, from branch states; nonnegative up to
    roundoff.  An (N,) array for a stacked preset."""
    times = ctx.measured_times
    if len(outcomes) != len(times):
        raise UsageError(f"{len(times)} measured times but {len(outcomes)} outcomes")
    rho, into, gaps = _chain(ctx.preset)
    legs = [into[times[0] - 1]] + [gaps[b - a - 1] for a, b in zip(times, times[1:])]
    for u, m in zip(legs, outcomes):
        rho = u @ rho @ dagger(u)
        pi = projector(ctx.preset.observable, m)
        rho = pi @ rho @ pi
    value = np.maximum(weights(rho), 0.0)
    return value if value.ndim else float(value)


def _entries(a: np.ndarray) -> list:
    """Rows of a 2x2 matrix as Python complex numbers, or of a stack as (N,) arrays."""
    return a.tolist() if a.ndim == 2 else [[a[..., i, j] for j in (0, 1)] for i in (0, 1)]


def _mul(a: list, b: list) -> list:
    """Product of two matrices held as `_entries`; on a stack `@` calls BLAS per matrix."""
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def distribution(ctx: MeasurementContext) -> OutcomeDistribution:
    """Per-context normalized outcome table over +-1 tuples, in the transfer form.

    The product w(m_1) T(m_2|m_1) ... over the preset's `transfer`, normalized
    once; equivalent to normalizing `unnormalized_chain` over all outcome
    tuples.  For a t-grid preset each probability is an (N,) array; for one
    point, a float.
    """
    times = ctx.measured_times
    weights_at, tables = ctx.preset.transfer
    w = weights_at[times[0]]
    raw = {(+1,): w[0], (-1,): w[1]}
    for a, b in zip(times, times[1:]):
        tr = tables[b - a]
        raw = {oc + (m,): p * tr[(1 - m) // 2][(1 - oc[-1]) // 2]
               for oc, p in raw.items() for m in (+1, -1)}
    total = sum(raw.values())
    raise_where(total < WEIGHT_FLOOR, total, lambda w: DegenerateContextError(
        f"context {times} carries total weight {w:.3e}; cannot normalize"))
    return OutcomeDistribution(context=ctx, probs={oc: p / total for oc, p in raw.items()})

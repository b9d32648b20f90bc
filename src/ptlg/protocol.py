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
preset forms these tables once, on first use (`ScenarioPreset.transfer`), with
all its distinct legs in one array (`_product`), and `distribution` multiplies
them out per context into one array (`OutcomeDistribution`).  Every chain
start is the state's mixture of kets (`InitialState.kets`), each ket carried
through U(t) entry by entry when the chain pre-evolves, then renormalized
(`_start`).  `unnormalized_chain` evolves branch states along the same legs
with `@` instead, as an independent oracle, from `ScenarioPreset.chain`: a
preset forms it on the oracle's first read and keeps it for every outcome
tuple (`transfer` forms and frees its own); apart from the oracle, `@` (BLAS)
forms only the published gap legs.  Under non-unitary evolution N differs from
context to context, which is exactly what lets the marginal of a finer context
disagree with a coarser context's distribution (`macrodiag` quantifies this).
Per-step renormalization is deliberately not used: it would force every
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

Any parameter of a preset (alpha, t, theta, phi) may be a stack of N values in
place of one, of the same length as the other stacks and aligned with them
point by point (see `PTParams` and `InitialState`).  Its propagators, weights,
transfer tables and probabilities then carry an axis of N points, computed by
the same code and the same order of operations as a single point.  An entry of
a t-stack equals that point evaluated alone, bit for bit.  Every check applies
per point: a failing point raises the error it raises alone, and on a stack
the error names every failing point (see `matcore.raise_where`).

Unitary = alpha = 0 PT step: the unitary presets evolve states with
exp(-i t sigma_x), probe sigma_z and skip pre-evolution.  With the kets of
`InitialState.kets`, these pins put the variant expression's quoted optimum
at its stated parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateContextError, DegenerateWeightError, DomainError, UsageError
from .matcore import (DICHOTOMY_TOL, I2, SIGMA_Y, SIGMA_Z, WEIGHT_FLOOR, QubitDensity, dagger,
                      mixture, per_matrix, projector, raise_where, weights)
from .ptdyn import PTParams, check_aligned, point_or_stack, propagator, scaled

MAXIMALLY_MIXED = "maximally_mixed"
PURE = "pure"


@dataclass(frozen=True)
class InitialState:
    kind: str
    theta: float | tuple[float, ...] = 0.0  # a stack of N angles is held as a tuple
    phi: float | tuple[float, ...] = 0.0

    def kets(self) -> tuple[tuple[float, ...], np.ndarray]:
        """Weights p and kets psi_k of rho = sum_k p_k psi_k psi_k^dagger (`matcore.mixture`),
        the kets the columns of a (2, K) array, (N, 2, K) for a stack.  I/2 is |0> and |1> at
        weight 1/2; PURE(theta, phi) is cos(theta)|0> + e^{i phi} sin(theta)|1> at weight 1,
        the column (e^{i phi} sin(theta), cos(theta)): |0> is the lower sigma_z eigenvector."""
        if self.kind == MAXIMALLY_MIXED:
            return (0.5, 0.5), I2
        theta, phi = np.broadcast_arrays(self.theta, self.phi)
        return (1.0,), np.array([np.exp(1j * phi) * np.sin(theta), np.cos(theta)]).T[..., None]


def maximally_mixed() -> InitialState:
    return InitialState(kind=MAXIMALLY_MIXED)


def pure_state(theta, phi) -> InitialState:
    """PURE(theta, phi); each angle must be finite at every point."""
    return InitialState(kind=PURE, theta=point_or_stack(theta, np.isfinite, _angle_error("theta")),
                        phi=point_or_stack(phi, np.isfinite, _angle_error("phi")))


def _angle_error(name: str):
    return lambda x: DomainError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class PTEvolution:
    """Stepping exp(-i H tau) with the closed-form propagator; unitary at alpha = 0.

    `published` selects the published chain (see the module docstring).
    """

    params: PTParams
    published: bool = False

    def step(self, n_segments: int) -> np.ndarray:
        return propagator(scaled(self.params, n_segments))


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
    def chain(self) -> list:
        """`_chain` of this preset, formed on first use (by the oracle) and kept."""
        return _chain(self)

    @cached_property
    def transfer(self) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """The weights w[k - 1, i] = w_k(m_i) at times k = 1..3 and the tables
        T[n - 1, i, j] = T_n(m_j|m_i) across gaps of n = 1, 2 steps (m_0 = +1,
        m_1 = -1), each with a trailing axis of N points for a stack, then the
        start's weight: the trace that `_start` divided out (1 for a bare
        start; (N,) for a stack).  Formed on first use, so that a failure
        raises at the first context read.
        """
        vh = next((bras for obs, bras, _ in _MODULE if obs is self.observable), None)
        state, *legs = _chain(self)
        mats = [_bras(self.observable) if vh is None else vh, state.mat, *legs]
        n = max((x.shape[0] for x in mats if x.ndim == 3), default=None)
        at = np.empty((len(mats), 2, 2) + (() if n is None else (n,)), dtype=complex)
        for k, x in enumerate(mats):  # one contiguous copy, the stack axis innermost
            at[k] = x.transpose(1, 2, 0) if x.ndim == 3 else x if n is None else x[..., None]
        del mats  # the chain's own arrays go before the products
        vh, start, into, gaps = at[:1], at[1:2], at[2:5], at[-2:]
        v = vh.conj().swapaxes(1, 2)
        rho = _product(_product(into, start), into.conj().swapaxes(1, 2))
        t = _product(vh, rho)  # the state at time k, then its diagonal in the eigenbasis:
        w = (t[:, :, 0] * v[:, 0] + t[:, :, 1] * v[:, 1]).real  # w(m) = <m|rho|m>
        a = abs(_product(_product(vh, gaps), v))  # |<m'|g|m>|, row m'
        return w, (a * a).swapaxes(1, 2), state.weight

    def column(self, i: int) -> ScenarioPreset:
        """Point i of a stack as a one-point preset whose `transfer` is column i
        of the stack's, already formed: where t is stacked, the point alone."""
        p, s = self.evolution.params, self.initial_state
        alpha, t, theta, phi = (x[i] if isinstance(x, tuple) else x
                                for x in (p.alpha, p.t, s.theta, s.phi))
        point = replace(self, initial_state=replace(s, theta=theta, phi=phi),
                        evolution=replace(self.evolution, params=PTParams(alpha, t)))
        w, tables, start = self.transfer
        vars(point)["transfer"] = w[..., i], tables[..., i], start[i] if np.ndim(start) else start
        return point


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
    """The normalized probabilities of one context as one float array.

    `probs` has one length-2 axis per measured time, in time order, index 0
    for the outcome +1 and 1 for -1, then the stack axis of N points for a
    stack: probs[0, 1] is P(+1, -1) of a two-time context, and so is
    `dist[+1, -1]` (a float for one point).  `rows` flattens the outcome axes
    into one, the last time fastest; a sum over outcomes adds these rows one
    after another, in order, as `distribution`'s normalization does.
    """

    context: MeasurementContext
    probs: np.ndarray

    def __getitem__(self, outcomes: tuple[int, ...]):
        outcomes = outcomes if isinstance(outcomes, tuple) else (outcomes,)
        if len(outcomes) != len(self.context.measured_times) or not set(outcomes) <= {1, -1}:
            raise UsageError(f"need one +-1 outcome per measured time, got {outcomes}")
        p = self.probs[tuple((1 - m) // 2 for m in outcomes)]
        return p if p.ndim else float(p)

    @property
    def rows(self) -> np.ndarray:
        """`probs` as (2^k,) rows in outcome order, or (2^k, N) for a stack."""
        return self.probs.reshape((-1,) + self.probs.shape[len(self.context.measured_times):])

    def marginal(self, times: tuple[int, ...]) -> np.ndarray:
        """Sum out all measured times not listed in `times`, which are distinct and
        measured; the result has their axes, in their order."""
        mine = self.context.measured_times
        if len(set(times)) != len(times) or any(j not in mine for j in times):
            raise UsageError(f"{times} not distinct times measured in context {mine}")
        kept = [mine.index(j) for j in times]
        summed = [i for i in range(len(mine)) if i not in kept]
        p = np.moveaxis(self.probs, summed + kept, range(len(mine)))
        return sum(p.reshape((-1,) + p.shape[len(summed):]))


def initial_state_at_t1(preset: ScenarioPreset, u=None) -> QubitDensity:
    """Normalized state at the first time of the sequential chain: the bare state, or
    with pre-evolution the state through U(t) (`u` when the caller already has it)."""
    if not preset.pre_evolution:
        return _start(preset.initial_state)
    return _start(preset.initial_state, preset.evolution.step(1) if u is None else u)


def _start(state: InitialState, u=None) -> QubitDensity:
    """Every chain start: the mixture of the state's kets, each carried through U(t) = `u`
    entry by entry when given, renormalized (the bare state has unit weight), with the
    weight it had as `QubitDensity.weight`."""
    p, psi = state.kets()
    if u is not None:  # U psi_k = u_i0 psi_0k + u_i1 psi_1k
        psi = u[..., :, :1] * psi[..., :1, :] + u[..., :, 1:] * psi[..., 1:, :]
    rho = mixture(p, psi)
    w = weights(rho)
    raise_where(w < WEIGHT_FLOOR, w, lambda w: DegenerateWeightError(
        f"pre-evolution weight {w:.3e} cannot be renormalized"))
    return QubitDensity(rho / per_matrix(w), w)


def _chain(preset: ScenarioPreset) -> list:
    """The chain state at the start (a `QubitDensity`), then the chain's distinct legs: the first
    three lead into times k = 1..3, the last two cross gaps of n = 1, 2 steps.

    Sequential chain: the state at t1, then I, U(t), U(2 t), where I leads into
    time 1 and U(n t) both into time n + 1 and across a gap of n.  Published
    chain: the bare state, U((k+1) t) into time k, then U((n+1) t) U(t)^dagger.
    """
    evo = preset.evolution
    u = evo.step(1)
    if evo.published:
        into = [evo.step(k + 1) for k in (1, 2, 3)]
        return [_start(preset.initial_state), *into, *(into[n - 1] @ dagger(u) for n in (1, 2))]
    return [initial_state_at_t1(preset, u), np.broadcast_to(I2, u.shape), u, evo.step(2)]


def unnormalized_chain(ctx: MeasurementContext, outcomes: tuple[int, ...]):
    """Chain value p~ for one outcome tuple, from branch states; nonnegative up to
    roundoff.  An (N,) array for a stacked preset."""
    times, obs = ctx.measured_times, ctx.preset.observable
    if len(outcomes) != len(times) or not set(outcomes) <= {1, -1}:
        raise UsageError(f"{len(times)} measured times need as many +-1 outcomes, got {outcomes}")
    pis = next((p for o, _, p in _MODULE if o is obs), None) or [projector(obs, m) for m in (1, -1)]
    start, *legs = ctx.preset.chain
    rho = start.mat
    legs = [legs[times[0] - 1]] + [legs[b - a - 3] for a, b in zip(times, times[1:])]
    for u, m in zip(legs, outcomes):
        rho = u @ rho @ dagger(u)
        pi = pis[(1 - m) // 2]
        rho = pi @ rho @ pi
    value = np.maximum(weights(rho), 0.0)
    return value if value.ndim else float(value)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of 2x2 matrices laid out (L, 2, 2), plus a trailing axis of N points for
    a stack: each entry a_i0 b_0j + a_i1 b_1j, for all L legs and N points at once.  `@`
    (BLAS, which rounds its sums differently) stays only in the published gap legs
    U((n+1) t) U(t)^dagger and in the oracles (`unnormalized_chain`, `checks`)."""
    c = a[:, :, :1] * b[:, :1]
    c += a[:, :, 1:] * b[:, 1:]  # in place: one (L, 2, 2, N) temporary fewer
    return c


def context_weights(ctx: MeasurementContext) -> np.ndarray:
    """The product w(m_1) T(m_2|m_1) ... over the preset's `transfer`, as (2^k,)
    rows in `OutcomeDistribution.rows` order ((2^k, N) for a stack): the
    values p~ of `unnormalized_chain`, from the renormalized start.  Times the
    start's weight (`transfer`'s last entry) they are the chain's weights with
    nothing divided out."""
    times = ctx.measured_times
    w, tables, _ = ctx.preset.transfer
    raw = w[times[0] - 1]
    trail = raw.shape[1:]
    for a, b in zip(times, times[1:]):  # p(..., m, m') = p(..., m) T(m'|m)
        raw = (raw.reshape((-1, 2, 1) + trail) * tables[b - a - 1]).reshape((-1,) + trail)
    return raw


def distribution(ctx: MeasurementContext) -> OutcomeDistribution:
    """Per-context normalized outcome table, in the transfer form: `context_weights`
    normalized once; equivalent to normalizing `unnormalized_chain` over all
    outcome tuples.  The layout is `OutcomeDistribution`'s.
    """
    times = ctx.measured_times
    raw = context_weights(ctx)
    trail = raw.shape[1:]
    total = sum(raw)  # in outcome order, one row at a time
    raise_where(total < WEIGHT_FLOOR, total, lambda w: DegenerateContextError(
        f"context {times} carries total weight {w:.3e}; cannot normalize"))
    return OutcomeDistribution(context=ctx, probs=(raw / total).reshape((2,) * len(times) + trail))


def _bras(observable: np.ndarray) -> np.ndarray:
    """<+1| and <-1| of a validated observable, up to phases, as the rows of a
    matrix: row j of the projector |m><m| is <j|m> <m|."""
    bras = []
    for m in (+1, -1):
        proj = projector(observable, m)
        if abs(weights(proj) - 1.0) > DICHOTOMY_TOL:
            raise DomainError("observable needs the eigenvalues +1 and -1")
        j = int(proj[1, 1].real > proj[0, 0].real)
        bras.append(proj[j] / np.sqrt(proj[j, j].real))
    return np.array(bras)


# the module observables with their bras and projectors (+1 first), validated once at
# import; any other is validated per preset and per oracle call
_MODULE = tuple((obs, _bras(obs), [projector(obs, m) for m in (+1, -1)])
                for obs in (SIGMA_Y, SIGMA_Z))

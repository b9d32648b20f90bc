"""Measurement contexts and outcome distributions for the three-time protocol.

A scenario fixes an initial state, a dichotomic observable, the `PTParams` of
its step, whether the state is evolved for one step duration before the first
measurement time, and its chain.  Measurements may happen at any non-empty
subset of the three equally spaced times; an unmeasured intermediate time
contributes a single composed propagator over the doubled duration.

Joint probabilities follow the projective (Lueders) chain, normalized once per
context by N = sum of p~ over all outcome tuples.  Each projector |m><m| is rank
one, so all seven contexts of a preset run along one chain (Emary, Lambert &
Nori, Rep. Prog. Phys. 77, 016001): a weight at each time k and one transfer
table per gap of n steps,

    p~(m_1, ..., m_k) = w_1(m_1) T(m_2|m_1) ... T(m_k|m_(k-1)),
    w_k(m) = <m|rho_k|m>,    T_n(m'|m) = |<m'|G_n|m>|^2,

with rho_k the chain state at time k and G_n the leg across the gap.  In the
eigenbasis of +-sigma_y, or of +-sigma_z at alpha = 0, the propagator is real,
U~(t) = D R(t) D^-1 (`chain_tables`): a preset forms its tables once, on first use,
from real legs and the symmetric part of its start (`ScenarioPreset.transfer`),
and `distribution` multiplies them out per context (`OutcomeDistribution`).
The start is the state's mixture of kets (`InitialState.kets`), each carried
through U(t) = `u` when the chain pre-evolves, renormalized (`_start`).
`unnormalized_rows` walks a context's branch states with `@` along the complex
legs of `_chain`, each branch evolved once per leg, as an independent oracle.
Under non-unitary evolution N differs from context to context, which is exactly
what lets the marginal of a finer context disagree with a coarser context's
distribution (`macrodiag`).
Per-step renormalization is deliberately not used: it would force every
future-marginalization identity to hold and erase the effect under study.

Two chains reach the measured times (`_chain`, `chain_tables`); a preset's
`published` field picks one.  The sequential chain (the default) starts from
`initial_state_at_t1` and crosses a gap of n steps with U(n t).  The published
chain is the one that the pair forms in `closedform` encode: it starts from the
bare state (so every preset on it needs pre_evolution=True), reaches the first
measured time k through U((k+1) t) without renormalizing, and crosses a gap
of n steps with U((n+1) t) U(t)^dagger.  The rule is inferred from those
forms, which it reproduces as an identity.  At alpha = 0 both chains agree for
the mixed state; for alpha != 0 the published gap is not U(n t).  A preset
keeps U(t) (`ScenarioPreset.u`); the oracle forms each U(n t), n >= 2, itself.

Any parameter of a preset (alpha, t, theta, phi) may be a stack of N values in
place of one, aligned point by point with the other stacks and held as a
read-only array that the engine reads as it is (`ptdyn.hold`).  Its states,
weights, tables and probabilities then carry an axis of N points, computed by
the same code and order of operations as one point: an entry of a t-stack
equals that point alone, bit for bit.  Every check applies per point, and on a
stack the error names every failing point (see `matcore.raise_where`).

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
from .matcore import (DICHOTOMY_TOL, I2, SIGMA_Y, SIGMA_Z, WEIGHT_FLOOR, QubitDensity, as_cmat,
                      dagger, mixture, per_matrix, projector, raise_where, weights)
from .ptdyn import ByValue, PTParams, hold, multiple, propagator

MAXIMALLY_MIXED = "maximally_mixed"
PURE = "pure"


@dataclass(frozen=True, eq=False)
class InitialState(ByValue):
    """`kind`, and a pure state's finite angles, each a float or a stack (`ptdyn.hold`)."""

    kind: str
    theta: float | np.ndarray = 0.0
    phi: float | np.ndarray = 0.0

    def __post_init__(self):  # points: N for a stack of N points, None for a point
        hold(self, theta=_finite("theta"), phi=_finite("phi"))

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
    return InitialState(kind=PURE, theta=theta, phi=phi)


def _finite(name: str) -> tuple:  # `hold`'s check of an angle
    return np.isfinite, lambda x: DomainError(f"{name} must be finite, got {x!r}")


UNITARY_STANDARD = "UNITARY_STANDARD"
UNITARY_VARIANT = "UNITARY_VARIANT"
PT_STANDARD = "PT_STANDARD"
PT_VARIANT = "PT_VARIANT"


@dataclass(frozen=True)
class ScenarioPreset:
    label: str
    initial_state: InitialState
    observable: np.ndarray
    evolution: PTParams
    pre_evolution: bool
    published: bool = False  # the published chain (see the module docstring)

    def __post_init__(self):  # points: N for a stack of N points, None for a point
        if self.published and not self.pre_evolution:
            raise UsageError("the published chain fixes its own start; it needs pre_evolution=True")
        hold(self, self.evolution.points, self.initial_state.points)

    @cached_property
    def u(self) -> np.ndarray:
        """U(t), formed once per preset for every reader of it."""
        return propagator(self.evolution)

    @cached_property
    def start(self) -> QubitDensity:
        """The chain's start, kept: `initial_state_at_t1`, or the published chain's bare state."""
        return _start(self.initial_state) if self.published else initial_state_at_t1(self)

    @cached_property
    def chain(self) -> list:
        """`_chain` of this preset, formed on first use (by the oracle) and kept."""
        return _chain(self)

    @cached_property
    def transfer(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights w[k - 1, i] = w_k(m_i) at times k = 1..3 and the tables T[n - 1, i, j] =
        T_n(m_j|m_i) across gaps of n = 1, 2 steps (m_0 = +1, m_1 = -1), each with a trailing
        axis of N points for a stack (a point runs as a stack of one): the `StackedPreset` of this
        preset alone (`chain_tables`); formed on first use, so a failure raises at the first read.
        """
        return tuple(x if self.points else x[..., 0] for x in StackedPreset(self).transfer)

    def column(self, i: int) -> ScenarioPreset:
        """Point i of a stack as a one-point preset whose `transfer` is column i
        of the stack's, already formed: where t is stacked, the point alone."""
        p, s = self.evolution, self.initial_state
        alpha, t, theta, phi = (x[i] if np.ndim(x) else x for x in (p.alpha, p.t, s.theta, s.phi))
        point = replace(self, initial_state=replace(s, theta=theta, phi=phi),
                        evolution=PTParams(alpha, t))
        w, tables = self.transfer
        vars(point)["transfer"] = w[..., i], tables[..., i]
        return point


class StackedPreset:
    """Presets of any kinds on one chain as one stack of their points, in order: `transfer` is
    one `chain_tables` call with each point's r and start, so a member's slice of each
    distribution is its own.  label, initial_state, evolution and pre_evolution are tuples."""
    def __init__(self, *members: ScenarioPreset):
        self.label, self.initial_state, self.evolution, self.pre_evolution = zip(*(
            (m.label, m.initial_state, m.evolution, m.pre_evolution) for m in members))
        published = members[0].published
        if any(m.published != published for m in members):
            raise UsageError("stacked presets must share one chain, got published " + ", ".join(
                f"{m.label}={m.published}" for m in members))
        cols = []
        for m in members:
            p, n = m.evolution, m.points or 1
            basis, flip = _measured_basis(m.observable, p.alpha)
            cols.append((np.full(n, p.t), np.full(n, ratio(p.alpha, basis)),
                         np.full((3, n), symmetric_part(m.start.mat.reshape(-1, 2, 2), basis)),
                         np.full(n, flip)))
        t, r, s, flip = (x[0] if len(x) == 1 else np.concatenate(x, axis=-1) for x in zip(*cols))
        lead = 1 if published else -1
        jt = np.array([multiple(t, j) for j in range(lead + 4)])  # checked in the engine's order
        w, tables = chain_tables(jt, r, lead, published, s)
        if flip.any():  # a negated observable swaps its outcomes
            w, tables = np.where(flip, w[:, ::-1], w), np.where(flip, tables[:, ::-1, ::-1], tables)
        self.transfer = w, tables


def unitary_standard(t: float) -> ScenarioPreset:
    """sigma_z measurements on the maximally mixed state, alpha = 0 steps."""
    return ScenarioPreset(
        label=UNITARY_STANDARD,
        initial_state=maximally_mixed(),
        observable=SIGMA_Z,
        evolution=PTParams(0.0, t),
        pre_evolution=False,
    )


def unitary_variant(t: float, theta: float, phi: float) -> ScenarioPreset:
    """sigma_z measurements on a pure state prepared at the first time."""
    return ScenarioPreset(
        label=UNITARY_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Z,
        evolution=PTParams(0.0, t),
        pre_evolution=False,
    )


def pt_standard(alpha: float, t, pre_evolution: bool = True,
                published: bool = False) -> ScenarioPreset:
    """sigma_y measurements on the evolved maximally mixed state; t may be a t-grid."""
    return ScenarioPreset(
        label=PT_STANDARD,
        initial_state=maximally_mixed(),
        observable=SIGMA_Y,
        evolution=PTParams(alpha, t),
        pre_evolution=pre_evolution,
        published=published,
    )


def pt_variant(alpha: float, t, theta: float, phi: float,
               pre_evolution: bool = True, published: bool = False) -> ScenarioPreset:
    """sigma_y measurements on a pure state under non-unitary steps; t may be a t-grid."""
    return ScenarioPreset(
        label=PT_VARIANT,
        initial_state=pure_state(theta, phi),
        observable=SIGMA_Y,
        evolution=PTParams(alpha, t),
        pre_evolution=pre_evolution,
        published=published,
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


def initial_state_at_t1(preset: ScenarioPreset) -> QubitDensity:
    """Normalized state at the first time of the sequential chain: the bare state, or
    with pre-evolution the state through U(t)."""
    return _start(preset.initial_state, preset.u if preset.pre_evolution else None)


def _start(state: InitialState, u=None) -> QubitDensity:
    """Every chain start: the mixture of the state's kets, each carried through U(t) = `u`
    entry by entry when given, renormalized (the bare state has unit weight)."""
    p, psi = state.kets()
    if u is not None:  # U psi_k = u_i0 psi_0k + u_i1 psi_1k
        psi = u[..., :, :1] * psi[..., :1, :] + u[..., :, 1:] * psi[..., 1:, :]
    rho = mixture(p, psi)
    w = weights(rho)
    raise_where(w < WEIGHT_FLOOR, w, lambda w: DegenerateWeightError(
        f"pre-evolution weight {w:.3e} cannot be renormalized"))
    return QubitDensity(rho / per_matrix(w))


def _chain(preset: ScenarioPreset) -> list:
    """The oracle's chain: the preset's `start`, then its distinct legs from `propagator` by
    `chain_tables`' rule, the first three into times k = 1..3 (I into time 1 of the sequential
    chain), the last two across gaps of n = 1, 2 steps: U(n t), n >= 2, is the propagator of the
    checked n t at the same angles, and U(t) the preset's `u`."""
    p, u = preset.evolution, preset.u
    steps = [propagator(PTParams(p.alpha, multiple(p.t, n))) for n in (
        (2, 3, 4) if preset.published else (2,))]
    if preset.published:
        return [preset.start, *steps, *(steps[n - 1] @ dagger(u) for n in (1, 2))]
    return [preset.start, np.broadcast_to(I2, u.shape), u, *steps]


def unnormalized_chain(ctx: MeasurementContext, outcomes: tuple[int, ...]):
    """Chain value p~ for one outcome tuple, its row of `unnormalized_rows`; nonnegative up to
    roundoff.  An (N,) array for a stacked preset."""
    times = ctx.measured_times
    if len(outcomes) != len(times) or not set(outcomes) <= {1, -1}:
        raise UsageError(f"{len(times)} measured times need as many +-1 outcomes, got {outcomes}")
    value = unnormalized_rows(ctx)[np.ravel_multi_index([(1 - m) // 2 for m in outcomes],
                                                         (2,) * len(times))]
    return value if value.ndim else float(value)


def unnormalized_rows(ctx: MeasurementContext) -> np.ndarray:
    """`unnormalized_chain` of every outcome tuple, as (2^k,) rows in `OutcomeDistribution.rows`
    order ((2^k, N) for a stack), from one walk of the branch tree: each leg evolves each live
    branch state once, rho -> U rho U^dagger, then projects it onto both outcomes."""
    times, obs = ctx.measured_times, ctx.preset.observable
    pis = next((p for o, p in _MODULE if o is obs), None) or [projector(obs, m) for m in (1, -1)]
    start, *legs = ctx.preset.chain
    branches = [start.mat]
    for u in [legs[times[0] - 1]] + [legs[b - a - 3] for a, b in zip(times, times[1:])]:
        branches = [pi @ rho @ pi for rho in (u @ rho @ dagger(u) for rho in branches)
                    for pi in pis]
    return np.maximum([weights(rho) for rho in branches], 0.0)


def chain_products(w: np.ndarray, tables: np.ndarray, times: tuple[int, ...]) -> np.ndarray:
    """The product w(m_1) T(m_2|m_1) ... over weights and tables laid out as
    `ScenarioPreset.transfer`'s, as (2^k,) rows in `OutcomeDistribution.rows` order
    ((2^k, N) for a stack): from a preset's, the values p~ of `unnormalized_chain`."""
    raw = w[times[0] - 1]
    trail = raw.shape[1:]
    for a, b in zip(times, times[1:]):  # p(..., m, m') = p(..., m) T(m'|m)
        raw = (raw.reshape((-1, 2, 1) + trail) * tables[b - a - 1]).reshape((-1,) + trail)
    return raw


def distribution(ctx: MeasurementContext) -> OutcomeDistribution:
    """Per-context normalized outcome table, in the transfer form: `chain_products`
    of the preset's `transfer` normalized once; equivalent to normalizing
    `unnormalized_chain` over all outcome tuples.  The layout is `OutcomeDistribution`'s.
    """
    times = ctx.measured_times
    raw = chain_products(*ctx.preset.transfer, times)
    trail = raw.shape[1:]
    total = sum(raw)  # in outcome order, one row at a time
    raise_where(total < WEIGHT_FLOOR, total, lambda w: DegenerateContextError(
        f"context {times} carries total weight {w:.3e}; cannot normalize"))
    return OutcomeDistribution(context=ctx, probs=(raw / total).reshape((2,) * len(times) + trail))


def chain_tables(jt, r, lead: int, published: bool, s) -> tuple:
    """`ScenarioPreset.transfer`'s weights and tables, from the start's symmetric part s and the
    propagator in the basis of a measured observable (`BASES`), real: U~(j t) = D R(j t) D^-1,
    D = diag(1, r), r = tan(pi/4 + alpha/2) for sigma_y and 1 for sigma_z (Mostafazadeh,
    J. Math. Phys. 43, 205 (2002)), r and s per point, at the multiples jt (J, ...).  Into time
    k the leg is L = U~((k + lead) t): lead = -1 from the state at time 1, 0 from the bare
    state, 1 on the published chain; across n steps G = U~(n t), or U~((n + 1) t) U~(t)^T on
    the published chain.  Entry by entry, w_k(m) = (L S L^T)_mm and T_n(m'|m) = G_m'm^2."""
    c, sn = np.cos(jt), np.sin(jt)
    u = np.moveaxis(np.array([[c, -sn / r], [r * sn, c]]), (0, 1), (1, 2))  # U~(j t) = u[j]
    a, b = u[2:4], u[1]  # (A B^T)_ik = A_i0 B_k0 + A_i1 B_k1
    gaps = a[:, :, None, 0] * b[:, 0] + a[:, :, None, 1] * b[:, 1] if published else u[1:3]
    l0, l1 = u[lead + 1:lead + 4, :, 0], u[lead + 1:lead + 4, :, 1]
    w = l0 * s[0] * l0 + l0 * s[1] * l1 + l1 * s[1] * l0 + l1 * s[2] * l1
    return w, (gaps * gaps).swapaxes(1, 2)


def ratio(alpha, basis: int):
    """`chain_tables`' r at the angles alpha in the basis of BASES[basis]."""
    return 1.0 if basis else np.tan(np.pi / 4 + alpha / 2)


def symmetric_part(rho: np.ndarray, basis: int) -> np.ndarray:
    """(S_00, S_01, S_11) of S = Re(B^dagger rho B), the state rho (..., 2, 2) in the normalized
    basis B of BASES[basis], from rho's real entries: a real U~ reads no more."""
    k = _SYMMETRIC[basis]
    a, d, b = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1]
    return k[:, :1] * a + k[:, 1:2] * d + k[:, 2:3] * b.real + k[:, 3:] * b.imag


def _measured_basis(observable: np.ndarray, alpha) -> tuple[int, bool]:
    """(i, flip) where the observable is BASES[i]'s (by identity), negated if flip, within
    DICHOTOMY_TOL: +-sigma_y, or +-sigma_z where alpha = 0 at every point; any other raises."""
    i = next((i for i, (obs, _) in enumerate(BASES) if obs is observable), None)
    i, flip = _compared_basis(observable) if i is None else (i, False)
    raise_where(i and alpha != 0, alpha, lambda a: DomainError(
        f"sigma_z is measured on the unitary step only, at alpha = 0, got {a!r}"))
    return i, flip


def _compared_basis(observable) -> tuple[int, bool]:
    m = as_cmat(observable)
    if abs(weights(m)) > DICHOTOMY_TOL:
        raise DomainError("observable needs the eigenvalues +1 and -1")
    for i, flip in ((0, False), (0, True), (1, False), (1, True)):
        if np.max(abs(m - (-1) ** flip * BASES[i][0])) <= DICHOTOMY_TOL:
            return i, flip
    raise DomainError("observable must be +-sigma_y, or +-sigma_z at alpha = 0")


# each measured observable with its kets |+1>, |-1>, unnormalized, as the columns of its basis,
# in which the propagator is real (`chain_tables`); sigma_z's (unitary step) rephased by diag(1, -i)
BASES = ((SIGMA_Y, np.array([[1, 1], [1j, -1j]])), (SIGMA_Z, np.array([[1, 0], [0, -1j]])))
_UNITS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
# per basis, `symmetric_part`'s rows S_00, S_01, S_11 over (rho_00, rho_11, Re rho_01, Im rho_01)
_SYMMETRIC = tuple((dagger(b) @ _UNITS @ b).real[:, [0, 0, 1], [0, 1, 1]].T
                   / np.vdot(b[:, 0], b[:, 0]).real for _, b in BASES)
# the module observables with their projectors (+1 first) for the oracle, validated once at import
_MODULE = tuple((obs, [projector(obs, m) for m in (+1, -1)]) for obs, _ in BASES)

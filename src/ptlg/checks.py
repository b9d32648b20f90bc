"""Deterministic identity suite backing the `check` CLI command.

Every check compares two independent routes to the same quantity (engine vs closed form, fine
vs coarse context, grouped vs composed propagator) over a fixed parameter sample, so the suite
is reproducible run to run.  The table checks share one context table, over the four preset
families stacked as one preset, and every propagator of the sample (the composition check's,
U(t), the signaling grids') comes from one stack.  The partner-state checks read plain arrays:
the PT-standard start, which is `nosignal.bob_reduced` bit for bit, and the signaling start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .closedform import (
    pair_normalization_reference,
    pair_numerator_reference,
    unitary_l13,
    unitary_v3,
    uu_dagger_reference,
)
from .errors import UsageError
from .lgexpr import CONTEXTS, correlator, l123_and_beta, l13, table, v123_and_delta, variant_v
from .macrodiag import (
    decomposition_residual_standard,
    decomposition_residual_variant,
    degree_report,
)
from .matcore import dagger, per_matrix, weights
from .nosignal import mixed_distance
from .protocol import (
    PT_VARIANT,
    MeasurementContext,
    StackedPreset,
    _start,
    maximally_mixed,
    pt_standard,
    pure_state,
    unitary_standard,
    unitary_variant,
    unnormalized_rows,
)
from .ptdyn import PTParams, composition_residual, eigensystem, propagator


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


SAMPLE_SEED = 20240917


def _sample(n: int, alpha_max: float):
    rng = np.random.default_rng(SAMPLE_SEED)
    alphas = rng.uniform(-alpha_max, alpha_max, n)
    ts = rng.uniform(0.05, np.pi - 0.05, n)
    return alphas, ts


def _max(x: np.ndarray) -> float:
    return float(x.max())


def _biorthogonal_reconstruction_residual(p: PTParams, u: np.ndarray) -> float:
    """Max-entry distance of sum_+- exp(-+i e tau) v_+- w_+- from U = `u`, p's propagator,
    over a stack, with v_+- the columns of V, w_+- the rows of V^-1 and tau = t / cos(alpha)."""
    e, v = eigensystem(p)
    w = np.linalg.inv(v)
    tau = p.t / np.cos(p.alpha)
    u_spec = (per_matrix(np.exp(-1j * e * tau)) * (v[..., :, 0, None] * w[..., None, 0, :])
              + per_matrix(np.exp(-1j * -e * tau)) * (v[..., :, 1, None] * w[..., None, 1, :]))
    return _max(np.abs(u_spec - u))


def run_identity_suite(sample_size: int = 16, fault: float = 0.0,
                       include_pair_forms: bool = False) -> list[CheckResult]:
    """Every check over the same sample, each as one stack of its points.  Every propagator is a
    slice of one stack: U(t/2), U(t/3), U(t/2 + t/3), U(t) (both PT families' cached `u`)
    and the signaling grids (0, t) and (alpha, pi); a fault perturbs the (0, 0) entries of a copy
    of U(t) that only `uu-dagger-closed-form` reads.  The four families run as one stack."""
    if sample_size < 1:
        raise UsageError(f"sample size must be >= 1, got {sample_size}")
    alphas, ts = _sample(sample_size, 2 * np.pi / 5)
    results: list[CheckResult] = []
    pt, n = pt_standard(alphas, ts), sample_size
    t = np.concatenate([ts / 2, ts / 3, ts / 2 + ts / 3, ts, ts, np.full(n, np.pi)])
    stack = propagator(PTParams(np.concatenate([np.tile(alphas, 4), np.zeros(n), alphas]), t))

    res = composition_residual(stack, n)
    results.append(CheckResult("propagator-composition", res, 1e-12))

    # the PT variant is the PT standard with a pure state; both keep U(t), the stack's slice
    thetas, phis = 0.3 + 0.1 * np.arange(n), 0.2 + 0.35 * np.arange(n)
    variant = replace(pt, label=PT_VARIANT, initial_state=pure_state(thetas, phis))
    u = vars(pt)["u"] = vars(variant)["u"] = stack[3 * n:4 * n]
    p, ref = pt.evolution, uu_dagger_reference(alphas, ts)
    faulty = np.where([[True, False], [False, False]], u + fault, u)  # the (0, 0) entries
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN product fails
        res = _max(np.abs(faulty @ dagger(faulty) - ref))
    results.append(CheckResult("uu-dagger-closed-form", res, 1e-10))

    res = _biorthogonal_reconstruction_residual(p, u)
    results.append(CheckResult("eigensystem-reconstruction", res, 1e-9))

    # One context table over the four families stacked, shared by every check below: points
    # [:n] pt standard, [n:2n] pt variant, [2n:3n] unitary standard, [3n:] unitary variant.
    tab = table(StackedPreset(pt, variant, unitary_standard(ts), unitary_variant(ts, thetas, phis)))

    for name, identity in (("beta", l123_and_beta), ("delta", v123_and_delta)):  # x = 1 - 4 y
        x, y = tab.cached(identity)
        results.append(CheckResult(f"three-time-{name}-identity", _max(abs(x - (1 - 4 * y))),
                                   1e-12))

    for name, residual in (("standard", decomposition_residual_standard),
                           ("variant", decomposition_residual_variant)):
        results.append(CheckResult(f"decomposition-{name}", _max(residual(tab)), 1e-10))

    res = _max(tab.cached(degree_report).max_aot()[2 * n:])
    results.append(CheckResult("unitary-aot-exact", res, 1e-12))

    partner = pt.start  # bob_reduced(p), bit for bit
    res = _max(abs(partner - ref / per_matrix(weights(ref))))
    results.append(CheckResult("partner-state-closed-form", res, 1e-9))

    res = _max(mixed_distance(_start(maximally_mixed(), stack[4 * n:])))  # `signaling_deviation`
    interior = mixed_distance(partner)[np.abs(alphas) > 0.3].min()
    if interior <= 1e-6:
        res = max(res, 1.0)
    results.append(CheckResult("signaling-iff-trivial", res, 1e-12))

    res = _max(abs(l13(tab)[2 * n:3 * n] - unitary_l13(ts)))
    results.append(CheckResult("unitary-standard-closed-form", res, 1e-10))

    res = _max(abs(variant_v(3, tab)[3 * n:] - unitary_v3(ts, thetas, phis)))
    results.append(CheckResult("unitary-variant-closed-form", res, 1e-10))

    res = []  # each running maximum is one np.max, which carries a NaN residual to its check
    for times in CONTEXTS:
        rows = tab[times].rows  # summed one outcome row after another, as normalized
        res += [_max(abs(sum(rows) - 1.0)), _max(np.maximum(-rows, rows - 1.0))]
    results.append(CheckResult("probability-sanity", float(np.max(res)), 1e-12))

    if include_pair_forms:  # each published form once; the oracle walks each context once
        res = []
        for pair in ((1, 2), (2, 3), (1, 3)):
            norm = pair_normalization_reference(alphas, ts, pair)
            ref = pair_numerator_reference(alphas, ts, pair) / norm
            raw = sum(unnormalized_rows(MeasurementContext(preset=pt, measured_times=pair)))
            res += [_max(abs(correlator(tab[pair], pair)[:n] - ref)), _max(abs(raw - norm))]
        results.append(CheckResult("pair-closed-forms", float(np.max(res)), 1e-9))

    return results

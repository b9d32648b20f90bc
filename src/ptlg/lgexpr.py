"""Temporal correlators and the Leggett-Garg expressions built from them.

Each correlator is evaluated in its own minimal measurement context (pairwise
correlators from two-time contexts, single expectations from one-time
contexts, the triple product from the full context).  The *_123 variants
recompute every ingredient from the full three-measurement context instead;
the gap between the two families is what the macrorealism diagnostics
decompose.

Every reduction here and in `macrodiag` reads the seven context distributions
of one parameter point from a `ContextTable`, which computes each on first use
as a product of the preset's one chain (see `protocol`).  The reductions
accept a preset or a table; callers that need several of them at one point
build the table once and pass it to each.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np

from .errors import UsageError
from .protocol import MeasurementContext, OutcomeDistribution, ScenarioPreset, distribution

CONTEXTS = ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3))
EXPRESSIONS = ("L13", "V1", "V2", "V3")
VARIANT_PAIR = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
# each expression as signed correlators, each in its own minimal context
TERMS = {"L13": ((1, (1, 2)), (1, (2, 3)), (-1, (1, 3))),
         **{f"V{k}": ((-1, (1, 2, 3)), (1, VARIANT_PAIR[k]), (1, (k,))) for k in VARIANT_PAIR}}


def correlator(dist: OutcomeDistribution, which: tuple[int, ...]) -> float:
    """Expectation of the product of outcomes at the selected measured times."""
    signs = outcome_signs(dist.context.measured_times, tuple(which), dist.probs.ndim)
    total = sum(signs * dist.rows)  # one outcome row after another, in order
    return total if total.ndim else float(total)


@cache
def outcome_signs(measured: tuple[int, ...], which: tuple[int, ...], ndim: int) -> np.ndarray:
    """The product of the outcomes at `which` on each outcome row of `measured`, shaped
    to multiply rows with ndim - len(measured) stack axes; read-only, as it is shared."""
    if any(j not in measured for j in which):
        raise UsageError(f"times {which} not all measured in context {measured}")
    outcomes = ((1.0, -1.0) if j in which else (1.0, 1.0) for j in measured)  # +1 first
    signs = reduce(np.multiply.outer, outcomes, 1.0).reshape((-1,) + (1,) * (ndim - len(measured)))
    signs.flags.writeable = False
    return signs


class ContextTable:
    """The seven context distributions of one preset, each computed on first use.

    Index with the measured times: ``tab[1, 2, 3]``, ``tab[2, 3]``, ``tab[1]``.
    The table belongs to its caller: the preset keeps its transfer tables, and its chain
    once the oracle reads it, never a distribution; `cached` keeps a reduction with it.
    """

    def __init__(self, preset: ScenarioPreset):
        self.preset = preset
        self._dists: dict[tuple[int, ...], OutcomeDistribution] = {}
        self._reductions: dict = {}

    def __getitem__(self, times) -> OutcomeDistribution:
        times = times if isinstance(times, tuple) else (times,)
        dist = self._dists.get(times)
        if dist is None:
            dist = distribution(MeasurementContext(preset=self.preset, measured_times=times))
            self._dists[times] = dist
        return dist

    def cached(self, reduction):
        """`reduction(self)`, computed on first use and kept with the table."""
        if reduction not in self._reductions:
            self._reductions[reduction] = reduction(self)
        return self._reductions[reduction]

    def correlator(self, *times: int) -> float:
        """Correlator of `times` in its own minimal context."""
        return correlator(self[times], times)


def table(x: ScenarioPreset | ContextTable) -> ContextTable:
    """The table of a preset, or `x` itself when it already is one."""
    return x if isinstance(x, ContextTable) else ContextTable(x)


def l13(x: ScenarioPreset | ContextTable) -> float:
    """c12 + c23 - c13 from pairwise contexts; macrorealism bounds this by 1."""
    return expression("L13", x)


def variant_v(k: int, x: ScenarioPreset | ContextTable) -> float:
    """-<M1 M2 M3> + <Mi Mj> + <Mk> with (i, j) the pair complementary to k."""
    if k not in VARIANT_PAIR:
        raise UsageError(f"k must be 1, 2 or 3, got {k}")
    return expression(f"V{k}", x)


def expression(name: str, x: ScenarioPreset | ContextTable) -> float:
    """The LG expression called `name`, one of EXPRESSIONS: its `TERMS` summed in order."""
    if name not in EXPRESSIONS:
        raise UsageError(f"expression must be one of {EXPRESSIONS}, got {name!r}")
    tab = table(x)
    terms = [sign * tab.correlator(*times) for sign, times in TERMS[name]]
    return sum(terms[1:], terms[0])


def l123_and_beta(x: ScenarioPreset | ContextTable) -> tuple[float, float]:
    """Full-context analogue of l13 and beta = P(+,-,+) + P(-,+,-).

    The identity l123 = 1 - 4 beta holds exactly for any normalized
    distribution, because m1 m2 + m2 m3 - m1 m3 equals 1 on every outcome
    except the two beta outcomes, where it equals -3.
    """
    d = table(x)[1, 2, 3]
    l123 = correlator(d, (1, 2)) + correlator(d, (2, 3)) - correlator(d, (1, 3))
    beta = d[+1, -1, +1] + d[-1, +1, -1]
    return l123, beta


def v123_and_delta(x: ScenarioPreset | ContextTable) -> tuple[float, float]:
    """Full-context analogue of variant_v(1) and delta = P(-,+,-) + P(-,-,+).

    v123 = 1 - 4 delta exactly, by the same per-outcome argument.
    """
    d = table(x)[1, 2, 3]
    v123 = -correlator(d, (1, 2, 3)) + correlator(d, (2, 3)) + correlator(d, (1,))
    delta = d[-1, +1, -1] + d[-1, -1, +1]
    return v123, delta

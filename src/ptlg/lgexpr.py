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

from .errors import UsageError
from .protocol import MeasurementContext, OutcomeDistribution, ScenarioPreset, distribution

CONTEXTS = ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3))
EXPRESSIONS = ("L13", "V1", "V2", "V3")
VARIANT_PAIR = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def correlator(dist: OutcomeDistribution, which: tuple[int, ...]) -> float:
    """Expectation of the product of outcomes at the selected measured times."""
    measured = dist.context.measured_times
    if any(j not in measured for j in which):
        raise UsageError(f"times {which} not all measured in context {measured}")
    pos = [measured.index(j) for j in which]
    total = 0.0
    for oc, p in dist.probs.items():
        sign = 1
        for i in pos:
            sign *= oc[i]
        total += sign * p
    return total


class ContextTable:
    """The seven context distributions of one preset, each computed on first use.

    Index with the measured times: ``tab[1, 2, 3]``, ``tab[2, 3]``, ``tab[1]``.
    The table belongs to its caller: the preset caches its chain's weights and
    transfer tables, never a distribution.  `cached` keeps a reduction with it.
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
    tab = table(x)
    return tab.correlator(1, 2) + tab.correlator(2, 3) - tab.correlator(1, 3)


def variant_v(k: int, x: ScenarioPreset | ContextTable) -> float:
    """-<M1 M2 M3> + <Mi Mj> + <Mk> with (i, j) the pair complementary to k."""
    if k not in VARIANT_PAIR:
        raise UsageError(f"k must be 1, 2 or 3, got {k}")
    tab = table(x)
    return -tab.correlator(1, 2, 3) + tab.correlator(*VARIANT_PAIR[k]) + tab.correlator(k)


def expression(name: str, x: ScenarioPreset | ContextTable) -> float:
    """The LG expression called `name`, one of EXPRESSIONS."""
    if name not in EXPRESSIONS:
        raise UsageError(f"expression must be one of {EXPRESSIONS}, got {name!r}")
    return l13(x) if name == "L13" else variant_v(int(name[1]), x)


def l123_and_beta(x: ScenarioPreset | ContextTable) -> tuple[float, float]:
    """Full-context analogue of l13 and beta = P(+,-,+) + P(-,+,-).

    The identity l123 = 1 - 4 beta holds exactly for any normalized
    distribution, because m1 m2 + m2 m3 - m1 m3 equals 1 on every outcome
    except the two beta outcomes, where it equals -3.
    """
    d = table(x)[1, 2, 3]
    l123 = correlator(d, (1, 2)) + correlator(d, (2, 3)) - correlator(d, (1, 3))
    beta = d.probs[(+1, -1, +1)] + d.probs[(-1, +1, -1)]
    return l123, beta


def v123_and_delta(x: ScenarioPreset | ContextTable) -> tuple[float, float]:
    """Full-context analogue of variant_v(1) and delta = P(-,+,-) + P(-,-,+).

    v123 = 1 - 4 delta exactly, by the same per-outcome argument.
    """
    d = table(x)[1, 2, 3]
    v123 = -correlator(d, (1, 2, 3)) + correlator(d, (2, 3)) + correlator(d, (1,))
    delta = d.probs[(-1, +1, -1)] + d.probs[(-1, -1, +1)]
    return v123, delta

"""Degrees of no-signaling-in-time and arrow-of-time violation, and the
decomposition identities that tie them to the Leggett-Garg expressions.

Each degree is a signed difference between a coarse context's probability and
the matching marginal of a finer context.  Because every context is
independently normalized, each degree table sums to zero over its outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .lgexpr import (EXPRESSIONS, ContextTable, expression, l123_and_beta, l13, table,
                     v123_and_delta, variant_v)
from .protocol import ScenarioPreset

PM = (+1, -1)
VIOLATION_THRESHOLD = 1e-8


@dataclass(frozen=True)
class DegreeReport:
    """All four degree tables for one parameter point.

    d_123[(m2, m3)]  : P(m2, m3) minus the m1-marginal of the full context
    d_1_2_3[(m1, m3)]: P(m1, m3) minus the m2-marginal of the full context
    r_12_3[(m1, m2)] : P(m1, m2) minus the m3-marginal of the full context
    r_1_23[m1]       : P(m1) minus the (m2, m3)-marginal of the full context
    """

    d_123: dict[tuple[int, int], float]
    d_1_2_3: dict[tuple[int, int], float]
    r_12_3: dict[tuple[int, int], float]
    r_1_23: dict[int, float]

    def max_nsit(self) -> float:
        return max(max(abs(v) for v in self.d_123.values()),
                   max(abs(v) for v in self.d_1_2_3.values()))

    def max_aot(self) -> float:
        return max(max(abs(v) for v in self.r_12_3.values()),
                   max(abs(v) for v in self.r_1_23.values()))


def _context_gap(tab: ContextTable, times: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """P(times) minus the matching marginal of the full context, per outcome tuple."""
    coarse = tab[times].probs
    fine = tab[1, 2, 3].marginal(times)
    return {oc: coarse[oc] - fine[oc] for oc in product(PM, repeat=len(times))}


def degree_report(x: ScenarioPreset | ContextTable) -> DegreeReport:
    tab = table(x)
    return DegreeReport(
        d_123=_context_gap(tab, (2, 3)),
        d_1_2_3=_context_gap(tab, (1, 3)),
        r_12_3=_context_gap(tab, (1, 2)),
        r_1_23={m: v for (m,), v in _context_gap(tab, (1,)).items()},
    )


def _signed_sum(degrees: dict[tuple[int, int], float], equal: bool) -> float:
    return sum(v for (a, b), v in degrees.items() if (a == b) == equal)


def decomposition_residual_standard(x: ScenarioPreset | ContextTable) -> float:
    """|{l13 - l123} - {signed degree sums}|; an exact identity up to roundoff.

    l13 - l123 telescopes into per-correlator context differences, each of
    which is a signed sum of one degree table:
        <M2 M3> gap -> d_123 (equal minus unequal outcomes)
        <M1 M2> gap -> r_12_3 (equal minus unequal)
        <M1 M3> gap -> d_1_2_3 (unequal minus equal, from the minus sign)
    """
    tab = table(x)
    rep = degree_report(tab)
    l13_val = l13(tab)
    l123, _ = l123_and_beta(tab)
    decomposition = (
        _signed_sum(rep.d_123, True) - _signed_sum(rep.d_123, False)
        + _signed_sum(rep.r_12_3, True) - _signed_sum(rep.r_12_3, False)
        + _signed_sum(rep.d_1_2_3, False) - _signed_sum(rep.d_1_2_3, True)
    )
    return abs((l13_val - l123) - decomposition)


def decomposition_residual_variant(x: ScenarioPreset | ContextTable) -> float:
    """|{v1 - v123} - {2 * equal-outcome d_123 sum + r_1_23(+1) - r_1_23(-1)}|.

    The triple correlator is common to both expressions, so the gap reduces to
    the <M2 M3> context difference (d_123 terms; the unequal-outcome sum is
    minus the equal-outcome sum because the table sums to zero) plus the <M1>
    context difference written outcome-by-outcome.
    """
    tab = table(x)
    rep = degree_report(tab)
    v1 = variant_v(1, tab)
    v123, _ = v123_and_delta(tab)
    decomposition = (2.0 * _signed_sum(rep.d_123, True)
                     + rep.r_1_23[+1] - rep.r_1_23[-1])
    return abs((v1 - v123) - decomposition)


@dataclass(frozen=True)
class ViolationReport:
    lg_violated: dict[str, bool]
    nsit_violated: bool
    aot_violated: bool
    lg_values: dict[str, float]
    max_nsit_degree: float
    max_aot_degree: float


def violation_classifier(x: ScenarioPreset | ContextTable) -> ViolationReport:
    """Classify which macrorealism conditions fail at this parameter point.

    A degree counts as violated above VIOLATION_THRESHOLD; an LG expression
    counts as violated above 1 + VIOLATION_THRESHOLD.  The threshold separates
    double-precision residuals of exact identities (below 1e-10) from
    structural effects.
    """
    tab = table(x)
    rep = degree_report(tab)
    values = {name: expression(name, tab) for name in EXPRESSIONS}
    return ViolationReport(
        lg_violated={k: v > 1.0 + VIOLATION_THRESHOLD for k, v in values.items()},
        nsit_violated=rep.max_nsit() > VIOLATION_THRESHOLD,
        aot_violated=rep.max_aot() > VIOLATION_THRESHOLD,
        lg_values=values,
        max_nsit_degree=rep.max_nsit(),
        max_aot_degree=rep.max_aot(),
    )

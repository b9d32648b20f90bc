from itertools import product

import numpy as np
import pytest

from ptlg.closedform import unitary_l13, unitary_v3
from ptlg.errors import UsageError
from ptlg.lgexpr import (
    CONTEXTS,
    EXPRESSIONS,
    correlator,
    expression,
    l123_and_beta,
    l13,
    table,
    v123_and_delta,
    variant_v,
)
from ptlg.matcore import SIGMA_Y
from ptlg.protocol import (
    MeasurementContext,
    OutcomeDistribution,
    ScenarioPreset,
    distribution,
    pt_standard,
    pt_variant,
    unitary_standard,
    unitary_variant,
)


def make_dist(preset, times, probs):
    return OutcomeDistribution(
        context=MeasurementContext(preset=preset, measured_times=times), probs=probs)


class TestCorrelator:
    def test_uniform_vanishes(self):
        preset = unitary_standard(0.5)
        probs = np.full((2, 2), 0.25)
        assert correlator(make_dist(preset, (1, 2), probs), (1, 2)) == 0.0

    def test_perfect_correlation(self):
        preset = unitary_standard(0.5)
        probs = np.array([[0.5, 0.0], [0.0, 0.5]])  # row m1, column m2; +1 first
        assert correlator(make_dist(preset, (1, 2), probs), (1, 2)) == 1.0

    def test_unmeasured_index_rejected(self):
        d = distribution(MeasurementContext(preset=unitary_standard(0.5),
                                            measured_times=(1, 2)))
        with pytest.raises(UsageError):
            correlator(d, (1, 3))

    def test_equals_the_loop_over_outcome_tuples(self):
        # the contraction adds sign * p one outcome tuple after another from 0.0, as a
        # loop does; on one point and on a stack, for every subset of every context
        presets = _random_presets(2, 47) + [pt_variant(1.2, (0.3, 0.9, 2.2), 1.1, 0.4)]
        for preset in presets:
            tab = table(preset)
            for times in CONTEXTS:
                d = tab[times]
                for which in product(*[((), (j,)) for j in times]):
                    which = sum(which, ())
                    want = 0.0
                    for oc in product((+1, -1), repeat=len(times)):
                        sign = 1
                        for j in which:
                            sign *= oc[times.index(j)]
                        want = want + sign * d[oc]
                    got = correlator(d, which)
                    assert np.array_equal(got, want), (times, which)
                    assert type(got) is type(want)

    def test_unitary_pair_correlator_is_cos_2t(self):
        t = np.pi / 6
        d = distribution(MeasurementContext(preset=unitary_standard(t),
                                            measured_times=(1, 2)))
        assert correlator(d, (1, 2)) == pytest.approx(0.5, abs=1e-12)


class TestL13:
    def test_luders_point(self):
        assert l13(unitary_standard(np.pi / 6)) == pytest.approx(1.5, abs=1e-12)

    def test_quarter_pi(self):
        assert l13(unitary_standard(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_limit_closed_form(self):
        rng = np.random.default_rng(41)
        for t in rng.uniform(0, np.pi, 100):
            assert abs(l13(pt_standard(0.0, t)) - unitary_l13(t)) < 1e-10


class TestVariantV:
    def test_quoted_optimum(self):
        v = variant_v(3, unitary_variant(0.41, 2.66, np.pi / 2))
        assert v == pytest.approx(1.93, abs=0.005)

    def test_static_limit_is_one(self):
        for theta in (0.3, 1.2, 2.8):
            v = variant_v(3, unitary_variant(0.0, theta, 0.7))
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_random_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            t, theta, phi = rng.uniform(0, np.pi, 3)
            v = variant_v(3, unitary_variant(t, theta, phi))
            assert abs(v - unitary_v3(t, theta, phi)) < 1e-10

    def test_invalid_k(self):
        with pytest.raises(UsageError):
            variant_v(4, unitary_standard(0.5))

    def test_pairings(self):
        # V1 pairs <M2 M3>, V2 pairs <M1 M3>, V3 pairs <M1 M2>
        preset = pt_variant(0.9, 0.6, 1.0, 0.5)
        c = table(preset).correlator
        assert variant_v(1, preset) == pytest.approx(-c(1, 2, 3) + c(2, 3) + c(1), abs=1e-12)
        assert variant_v(2, preset) == pytest.approx(-c(1, 2, 3) + c(1, 3) + c(2), abs=1e-12)
        assert variant_v(3, preset) == pytest.approx(-c(1, 2, 3) + c(1, 2) + c(3), abs=1e-12)


def _random_presets(n, seed):
    rng = np.random.default_rng(seed)
    presets = []
    for _ in range(n):
        alpha = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.01, np.pi)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        presets.extend([
            pt_standard(alpha, t),
            pt_variant(alpha, t, theta, phi),
            unitary_standard(t),
            unitary_variant(t, theta, phi),
        ])
    return presets


class TestFullContextIdentities:
    def test_l123_beta_identity(self):
        for preset in _random_presets(15, 43):
            l123, beta = l123_and_beta(preset)
            assert abs(l123 - (1 - 4 * beta)) < 1e-12
            assert beta >= -1e-12

    def test_v123_delta_identity(self):
        for preset in _random_presets(15, 44):
            v123, delta = v123_and_delta(preset)
            assert abs(v123 - (1 - 4 * delta)) < 1e-12

    def test_concentrated_distribution(self):
        # theta = 0 with sigma_z measurements and t = 0 repeats the same outcome
        preset = unitary_variant(0.0, 0.0, 0.0)
        l123, beta = l123_and_beta(preset)
        v123, delta = v123_and_delta(preset)
        assert beta == pytest.approx(0.0, abs=1e-14)
        assert l123 == pytest.approx(1.0, abs=1e-12)
        assert delta == pytest.approx(0.0, abs=1e-14)
        assert v123 == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eight_outcomes_direct_sum(self):
        preset = unitary_standard(0.5)
        d = make_dist(preset, (1, 2, 3), np.full((2, 2, 2), 0.125))
        v123 = -correlator(d, (1, 2, 3)) + correlator(d, (2, 3)) + correlator(d, (1,))
        delta = d[-1, 1, -1] + d[-1, -1, 1]
        assert v123 == 0.0
        assert delta == 0.25
        assert v123 == pytest.approx(1 - 4 * delta)


class TestBoundsAndSymmetry:
    def test_correlators_bounded(self):
        for preset in _random_presets(8, 45):
            tab = table(preset)
            for times in CONTEXTS:
                assert -1.0 - 1e-12 <= tab.correlator(*times) <= 1.0 + 1e-12

    def test_lg_values_below_algebraic_maximum(self):
        for preset in _random_presets(8, 46):
            tab = table(preset)
            for name in EXPRESSIONS:
                assert expression(name, tab) <= 3.0 + 1e-9

    def test_observable_relabeling_flips_odd_correlators(self):
        base = pt_standard(np.pi / 3, 0.7)
        flipped = ScenarioPreset(label="CUSTOM", initial_state=base.initial_state,
                                 observable=-SIGMA_Y, evolution=base.evolution,
                                 pre_evolution=base.pre_evolution)
        a, b = table(base).correlator, table(flipped).correlator
        assert b(1) == pytest.approx(-a(1), abs=1e-12)
        assert b(1, 2, 3) == pytest.approx(-a(1, 2, 3), abs=1e-12)
        assert b(1, 2) == pytest.approx(a(1, 2), abs=1e-12)
        assert b(1, 3) == pytest.approx(a(1, 3), abs=1e-12)
        assert l13(flipped) == pytest.approx(l13(base), abs=1e-12)
        assert l13(flipped) <= 3.0 + 1e-9

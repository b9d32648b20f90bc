import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlg import lgexpr, sweep
from ptlg.lgexpr import (EXPRESSIONS, expression, l123_and_beta, l13, table, v123_and_delta,
                         variant_v)
from ptlg.macrodiag import (
    decomposition_residual_standard,
    decomposition_residual_variant,
    degree_report,
    violation_classifier,
)
from ptlg.protocol import (
    MeasurementContext,
    distribution,
    pt_standard,
    pt_variant,
    unitary_standard,
    unitary_variant,
)

PM = (+1, -1)
INDEX = {+1: 0, -1: 1}  # an outcome's index on its axis of a probability or degree array


def brute_force_d123(preset, m2, m3):
    p23 = distribution(MeasurementContext(preset=preset, measured_times=(2, 3)))
    full = distribution(MeasurementContext(preset=preset, measured_times=(1, 2, 3)))
    return p23[m2, m3] - sum(full[m1, m2, m3] for m1 in PM)


class TestNSITDegrees:
    def test_unitary_pure_state_violates_nsit(self):
        rep = degree_report(unitary_variant(np.pi / 6, 1.1, 0.7))
        degs = np.abs(rep.d_123).ravel().tolist()
        assert max(degs) > 1e-6

    def test_middle_measurement_disturbance(self):
        rep = degree_report(unitary_standard(np.pi / 6))
        degs = np.abs(rep.d_1_2_3).ravel().tolist()
        assert max(degs) > 1e-6

    def test_no_dynamics_no_disturbance(self):
        rep = degree_report(pt_standard(0.0, 0.0))
        assert np.abs(rep.d_123).max() < 1e-14
        assert np.abs(rep.d_1_2_3).max() < 1e-14

    def test_matches_brute_force_context_difference(self):
        preset = pt_standard(np.pi / 3, 0.7)
        rep = degree_report(preset)
        for m2 in PM:
            for m3 in PM:
                assert rep.d_123[INDEX[m2], INDEX[m3]] == pytest.approx(
                    brute_force_d123(preset, m2, m3), abs=1e-12)

    def test_signed_degrees_sum_to_zero(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            preset = pt_variant(rng.uniform(-1.5, 1.5), rng.uniform(0.01, np.pi),
                                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            rep = degree_report(preset)
            for table in (rep.d_123, rep.d_1_2_3, rep.r_12_3, rep.r_1_23):
                assert abs(sum(table.ravel())) < 1e-12


class TestAOTDegrees:
    def test_unitary_is_exact_on_grid(self):
        for t in np.linspace(0.01, np.pi - 0.01, 64):
            rep = degree_report(unitary_variant(t, 1.1, 0.7))
            assert rep.max_aot() < 1e-12

    def test_nonunitary_violation(self):
        rep = degree_report(pt_standard(np.pi / 3, 0.7))
        r12 = np.abs(rep.r_12_3).ravel().tolist()
        r1 = np.abs(rep.r_1_23).tolist()
        assert max(r12) > 1e-6
        assert max(r1) > 1e-6

    def test_continuity_to_hermitian_limit(self):
        rep = degree_report(pt_standard(1e-6, 0.7))
        assert rep.max_aot() < 1e-5


class TestDecompositions:
    @pytest.mark.parametrize("preset", [
        unitary_standard(np.pi / 6),
        pt_standard(np.pi / 3, 0.785),
        pt_standard(2 * np.pi / 5, 0.9),
        pt_variant(2 * np.pi / 5, 0.9, 5 * np.pi / 6, np.pi / 2),
        pt_standard(0.4, 0.0),
    ], ids=["unitary", "pt-a60", "pt-a72", "pt-variant", "static"])
    def test_residuals_are_roundoff(self, preset):
        assert decomposition_residual_standard(preset) < 1e-10
        assert decomposition_residual_variant(preset) < 1e-10

    def test_residuals_equal_the_outcome_tuple_sums(self):
        # the equal- and unequal-outcome sums, each from 0.0 in outcome order, as a
        # loop over the outcome tuples of each degree table gives them
        for preset in (pt_variant(2 * np.pi / 5, 0.9, 5 * np.pi / 6, np.pi / 2),
                       pt_standard(1.3, (0.2, 0.7, 2.5))):
            tab = table(preset)
            rep = degree_report(tab)

            def pair_sum(d, equal):
                return sum(d[INDEX[a], INDEX[b]] for a in PM for b in PM if (a == b) == equal)

            standard = (pair_sum(rep.d_123, True) - pair_sum(rep.d_123, False)
                        + pair_sum(rep.r_12_3, True) - pair_sum(rep.r_12_3, False)
                        + pair_sum(rep.d_1_2_3, False) - pair_sum(rep.d_1_2_3, True))
            variant = 2.0 * pair_sum(rep.d_123, True) + rep.r_1_23[0] - rep.r_1_23[1]
            assert np.array_equal(decomposition_residual_standard(tab),
                                  abs((l13(tab) - l123_and_beta(tab)[0]) - standard))
            assert np.array_equal(decomposition_residual_variant(tab),
                                  abs((variant_v(1, tab) - v123_and_delta(tab)[0]) - variant))

    def test_unitary_variant_has_zero_aot_terms(self):
        preset = unitary_variant(0.8, 0.9, 0.3)
        rep = degree_report(preset)
        assert rep.max_aot() < 1e-12
        assert decomposition_residual_variant(preset) < 1e-10

    def test_violation_threshold_standard(self):
        # whenever l13 > 1, the signed degree combination must exceed 2 beta
        rng = np.random.default_rng(52)
        seen = 0
        for _ in range(40):
            preset = pt_standard(rng.uniform(-1.5, 1.5), rng.uniform(0.01, np.pi))
            val = l13(preset)
            if val <= 1.0 + 1e-8:
                continue
            seen += 1
            rep = degree_report(preset)
            _, beta = l123_and_beta(preset)
            lhs = (np.trace(rep.d_123) - np.trace(rep.d_1_2_3)  # equal-outcome sums
                   + np.trace(rep.r_12_3))
            assert lhs > 2 * beta - 1e-8
        assert seen > 0

    def test_violation_threshold_variant(self):
        rng = np.random.default_rng(53)
        seen = 0
        for _ in range(60):
            preset = pt_variant(rng.uniform(-1.5, 1.5), rng.uniform(0.01, np.pi),
                                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            val = variant_v(1, preset)
            if val <= 1.0 + 1e-8:
                continue
            seen += 1
            rep = degree_report(preset)
            _, delta = v123_and_delta(preset)
            lhs = (2 * np.trace(rep.d_123)  # the equal-outcome sum
                   + rep.r_1_23[INDEX[+1]] - rep.r_1_23[INDEX[-1]])
            assert lhs >= 4 * delta - 1e-8
        assert seen > 0


class TestClassifier:
    def test_unitary_luders_point(self):
        report = violation_classifier(unitary_variant(np.pi / 6, 1.1, 0.7))
        assert report.lg_violated["L13"]
        assert report.nsit_violated
        assert not report.aot_violated

    def test_static_point_violates_nothing(self):
        report = violation_classifier(pt_standard(0.7, 0.0))
        assert not any(report.lg_violated.values())
        assert not report.nsit_violated
        assert not report.aot_violated

    def test_nonunitary_point_violates_aot(self):
        report = violation_classifier(pt_standard(np.pi / 3, 0.7))
        assert report.aot_violated

    @pytest.mark.parametrize("preset", (pt_standard, lambda a, t: pt_variant(a, t, 1.1, 0.4)))
    def test_t_stack_equals_points_alone(self, preset):
        ts = (0.0, 0.3, 0.7, 1.2, 2.9)
        rep, report = degree_report(preset(1.2, ts)), violation_classifier(preset(1.2, ts))
        for i, t in enumerate(ts):
            alone = degree_report(preset(1.2, t))
            alone_report = violation_classifier(preset(1.2, t))
            assert rep.max_nsit()[i] == alone.max_nsit()
            assert rep.max_aot()[i] == alone.max_aot()
            for field in ("lg_violated", "lg_values"):
                mine = {k: v[i] for k, v in getattr(report, field).items()}
                assert mine == getattr(alone_report, field)
            for field in ("nsit_violated", "aot_violated", "max_nsit_degree", "max_aot_degree"):
                assert getattr(report, field)[i] == getattr(alone_report, field)


def test_diagnostics_bundle():
    tab = table(pt_standard(np.pi / 3, 0.785))
    l123, beta = l123_and_beta(tab)
    v123, delta = v123_and_delta(tab)
    values = {name: expression(name, tab) for name in EXPRESSIONS} | {"L123": l123, "V123": v123}
    assert set(values) == {"L13", "V1", "V2", "V3", "L123", "V123"}
    assert decomposition_residual_standard(tab) < 1e-10
    assert decomposition_residual_variant(tab) < 1e-10
    assert abs(values["L123"] - (1 - 4 * beta)) < 1e-12
    assert abs(values["V123"] - (1 - 4 * delta)) < 1e-12
    c = tab.correlator
    assert values["L13"] == pytest.approx(c(1, 2) + c(2, 3) - c(1, 3), abs=1e-12)
    assert values["V1"] == pytest.approx(-c(1, 2, 3) + c(2, 3) + c(1), abs=1e-12)


def test_diagnostics_computes_each_context_once(distribution_calls):
    violation_classifier(pt_variant(2 * np.pi / 5, 0.9, 5 * np.pi / 6, np.pi / 2))
    assert len(distribution_calls) == 7
    assert sorted(distribution_calls) == sorted(lgexpr.CONTEXTS)


def test_identity_suite_builds_one_degree_report_per_table(monkeypatch, distribution_calls):
    # the suite's one table, over the four preset families stacked, serves both
    # residuals and the AOT check, and makes each of its seven contexts once
    from ptlg import checks, macrodiag

    tables = []
    original = macrodiag.degree_report

    def counting(x):
        tables.append(x)
        return original(x)

    monkeypatch.setattr(macrodiag, "degree_report", counting)
    monkeypatch.setattr(checks, "degree_report", counting)
    checks.run_identity_suite(sample_size=16)
    assert len(tables) == 1
    assert len(distribution_calls) == 7
    assert sorted(distribution_calls) == sorted(lgexpr.CONTEXTS)


def test_reductions_of_one_table_share_its_degree_report(monkeypatch):
    from ptlg import macrodiag

    calls = []
    original = macrodiag.degree_report
    monkeypatch.setattr(macrodiag, "degree_report", lambda x: calls.append(x) or original(x))
    tab = table(pt_variant(2 * np.pi / 5, 0.9, 5 * np.pi / 6, np.pi / 2))
    decomposition_residual_standard(tab)
    decomposition_residual_variant(tab)
    report = violation_classifier(tab)
    assert calls == [tab]
    assert report.max_aot_degree == degree_report(tab).max_aot()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(sweep.KINDS), standard=st.booleans(), pre_evolution=st.booleans(),
       alpha=st.floats(-1.5, 1.5), ts=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=5),
       theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi), stacked=st.booleans())
def test_degree_tables_subtract_the_full_context_marginal(kind, standard, pre_evolution, alpha,
                                                          ts, theta, phi, stacked):
    # `OutcomeDistribution.marginal` is the oracle of the in-order row sums of
    # `degree_report`, bit for bit (numpy's pairwise reductions round differently)
    cfg = sweep.SweepConfig(expression="L13" if standard else "V1", kind=kind,
                            fixed={"t": 0.0} | ({} if kind == "unitary" else {"alpha": alpha}),
                            pre_evolution=pre_evolution or kind == "pt-published")
    params = cfg.fixed | {"t": tuple(ts) if stacked else ts[0], "theta": theta, "phi": phi}
    tab = table(sweep.build_preset(cfg, params))
    rep = degree_report(tab)
    for field, times in (("d_123", (2, 3)), ("d_1_2_3", (1, 3)), ("r_12_3", (1, 2)),
                         ("r_1_23", (1,))):
        want = tab[times].probs - tab[1, 2, 3].marginal(times)
        assert np.array_equal(getattr(rep, field), want)
        assert np.array_equal(np.signbit(getattr(rep, field)), np.signbit(want))


def test_identity_suite_reduces_each_table_once(monkeypatch):
    # the identity checks and both decomposition residuals share the one table's
    # l123_and_beta and v123_and_delta, as they share its degree report
    from ptlg import checks, macrodiag

    calls = []
    for name in ("l123_and_beta", "v123_and_delta"):
        original = getattr(lgexpr, name)

        def counting(x, name=name, original=original):
            calls.append((name, id(x)))
            return original(x)

        for module in (checks, macrodiag):
            monkeypatch.setattr(module, name, counting)
    checks.run_identity_suite(sample_size=16)
    assert len(calls) == len(set(calls)) == 2

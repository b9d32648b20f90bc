import numpy as np
import pytest

from ptlg import lgexpr
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


def brute_force_d123(preset, m2, m3):
    p23 = distribution(MeasurementContext(preset=preset, measured_times=(2, 3)))
    full = distribution(MeasurementContext(preset=preset, measured_times=(1, 2, 3)))
    return p23.probs[(m2, m3)] - sum(full.probs[(m1, m2, m3)] for m1 in PM)


class TestNSITDegrees:
    def test_unitary_pure_state_violates_nsit(self):
        rep = degree_report(unitary_variant(np.pi / 6, 1.1, 0.7))
        degs = [abs(rep.d_123[(m2, m3)]) for m2 in PM for m3 in PM]
        assert max(degs) > 1e-6

    def test_middle_measurement_disturbance(self):
        rep = degree_report(unitary_standard(np.pi / 6))
        degs = [abs(rep.d_1_2_3[(m1, m3)]) for m1 in PM for m3 in PM]
        assert max(degs) > 1e-6

    def test_no_dynamics_no_disturbance(self):
        rep = degree_report(pt_standard(0.0, 0.0))
        for m2 in PM:
            for m3 in PM:
                assert abs(rep.d_123[(m2, m3)]) < 1e-14
                assert abs(rep.d_1_2_3[(m2, m3)]) < 1e-14

    def test_matches_brute_force_context_difference(self):
        preset = pt_standard(np.pi / 3, 0.7)
        rep = degree_report(preset)
        for m2 in PM:
            for m3 in PM:
                assert rep.d_123[(m2, m3)] == pytest.approx(
                    brute_force_d123(preset, m2, m3), abs=1e-12)

    def test_signed_degrees_sum_to_zero(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            preset = pt_variant(rng.uniform(-1.5, 1.5), rng.uniform(0.01, np.pi),
                                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            rep = degree_report(preset)
            for table in (rep.d_123, rep.d_1_2_3, rep.r_12_3):
                assert abs(sum(table.values())) < 1e-12
            assert abs(sum(rep.r_1_23.values())) < 1e-12


class TestAOTDegrees:
    def test_unitary_is_exact_on_grid(self):
        for t in np.linspace(0.01, np.pi - 0.01, 64):
            rep = degree_report(unitary_variant(t, 1.1, 0.7))
            assert rep.max_aot() < 1e-12

    def test_nonunitary_violation(self):
        rep = degree_report(pt_standard(np.pi / 3, 0.7))
        r12 = [abs(rep.r_12_3[(m1, m2)]) for m1 in PM for m2 in PM]
        r1 = [abs(rep.r_1_23[m1]) for m1 in PM]
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
            lhs = (sum(v for (a, b), v in rep.d_123.items() if a == b)
                   - sum(v for (a, b), v in rep.d_1_2_3.items() if a == b)
                   + sum(v for (a, b), v in rep.r_12_3.items() if a == b))
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
            lhs = (2 * sum(v for (a, b), v in rep.d_123.items() if a == b)
                   + rep.r_1_23[+1] - rep.r_1_23[-1])
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


def test_identity_suite_builds_one_degree_report_per_table(monkeypatch):
    # the suite shares 4 stacked tables among both residuals and the AOT check
    from ptlg import checks, macrodiag

    tables = []
    original = macrodiag.degree_report

    def counting(x):
        tables.append(x)
        return original(x)

    monkeypatch.setattr(macrodiag, "degree_report", counting)
    monkeypatch.setattr(checks, "degree_report", counting)
    checks.run_identity_suite(sample_size=16)
    assert len(tables) == 4
    assert len({id(x) for x in tables}) == len(tables)


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

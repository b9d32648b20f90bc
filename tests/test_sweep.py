import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reference import err_bound

from ptlg import sweep, tfit
from ptlg.closedform import unitary_l13
from ptlg.errors import DegenerateWeightError, DomainError, UsageError
from ptlg.lgexpr import EXPRESSIONS, TERMS, expression, l13, table
from ptlg.macrodiag import degree_report
from ptlg.matcore import raise_where
from ptlg.nosignal import signaling_deviation
from ptlg.protocol import MeasurementContext, context_weights, pt_standard, pt_variant
from ptlg.ptdyn import PTParams
from ptlg.sweep import (DEFAULT_ALPHAS, DEFAULT_PHI, DEFAULT_THETA, FigureData, GridSpec,
                        SweepConfig, evaluate_expression, figure_data, grid_columns, refine_max,
                        scan)


def unitary_l13_cfg(count=201, refine=False):
    return SweepConfig(expression="L13", kind="unitary",
                       grids={"t": GridSpec(0.01, np.pi, count)}, refine=refine)


class TestScan:
    def test_unitary_luders_maximum(self):
        res = scan(unitary_l13_cfg(refine=True))
        assert res.argmax_value == pytest.approx(1.5, abs=1e-8)
        assert res.argmax_params["t"] == pytest.approx(np.pi / 6, abs=1e-5)

    def test_escalation_with_alpha(self):
        maxima = []
        for alpha in (0.0, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05):
            cfg = SweepConfig(expression="L13", kind="pt",
                              grids={"t": GridSpec(0.01, np.pi, 161)},
                              fixed={"alpha": alpha}, refine=True)
            maxima.append(scan(cfg).argmax_value)
        assert maxima[0] == pytest.approx(1.5, abs=1e-6)
        assert maxima[0] < maxima[1] < maxima[2] < maxima[3]
        assert all(m > 1.5 for m in maxima[1:])
        assert all(m <= 3.0 + 1e-9 for m in maxima)

    def test_single_point_grid(self):
        cfg = SweepConfig(expression="L13", kind="pt",
                          grids={"t": GridSpec(0.7, 0.7, 1)},
                          fixed={"alpha": np.pi / 3})
        res = scan(cfg)
        assert len(res.rows) == 1
        assert res.rows[0].value == pytest.approx(l13(pt_standard(np.pi / 3, 0.7)),
                                                  abs=1e-14)

    def test_deterministic(self):
        cfg = SweepConfig(expression="V1", kind="pt",
                          grids={"t": GridSpec(0.1, 2.8, 41)},
                          fixed={"alpha": 0.9, "theta": 1.1, "phi": 0.3})
        a, b = scan(cfg), scan(cfg)
        assert [r.value for r in a.rows] == [r.value for r in b.rows]

    def test_all_points_failing_raises(self):
        cfg = SweepConfig(expression="L13", kind="pt",
                          grids={"t": GridSpec(0.1, 1.0, 5)}, fixed={"alpha": 1.6})
        with pytest.raises(DomainError):
            scan(cfg)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SweepConfig(expression="L99", kind="pt")
        with pytest.raises(UsageError):
            SweepConfig(expression="L13", kind="pt", grids={"t": GridSpec(0, 1, 5)})
        with pytest.raises(UsageError):
            SweepConfig(expression="L13", kind="unitary", grids={})
        with pytest.raises(UsageError):
            SweepConfig(expression="L13", kind="pt-published", grids={"t": GridSpec(0, 1, 5)})
        with pytest.raises(UsageError):
            SweepConfig(expression="L13", kind="published", fixed={"t": 0.5, "alpha": 0.3})

    @pytest.mark.parametrize("grids,fixed", [
        ({"t": GridSpec(0, 1, 5)}, {"alpha": 1.2}),
        ({"t": GridSpec(0, 1, 5), "alpha": GridSpec(0.0, 1.2, 3)}, {}),
    ], ids=("fixed-alpha", "gridded-alpha"))
    def test_unitary_kind_refuses_alpha(self, grids, fixed):
        # the unitary presets take no alpha: a (t, alpha) grid would repeat each t's value
        with pytest.raises(UsageError, match="unitary"):
            SweepConfig(expression="V3", kind="unitary", grids=grids, fixed=fixed)

    def test_published_kind_scans_the_published_chain(self):
        cfg = SweepConfig(expression="L13", kind="pt-published",
                          grids={"t": GridSpec(0.2, 1.2, 3)}, fixed={"alpha": 0.9})
        res = scan(cfg)
        for row in res.rows:
            want = l13(pt_standard(0.9, row.params["t"], published=True))
            assert row.value == pytest.approx(want, abs=1e-14)


RIDGE_SCAN = SweepConfig(expression="V3", kind="pt",
                         grids={"t": GridSpec(0.535380872854154, 1.8613102114012474, 6),
                                "theta": GridSpec(0.7755416825702021, 2.6386637072318164, 4),
                                "phi": GridSpec(5.384665640433963, 10.097054620818653, 4)},
                         fixed={"alpha": 1.426860673717}, refine=True)
# a near-EP (t, theta, phi) scan of the optimize benchmark's first pass
WORKLOAD_SCAN = SweepConfig(expression="V3", kind="pt",
                            grids={"t": GridSpec(0.37632741362364797, 2.279014353760962, 6),
                                   "theta": GridSpec(0.35063265123998577, 1.9523416984962731, 4),
                                   "phi": GridSpec(5.974528067986229, 10.686917048370919, 4)},
                            fixed={"alpha": 1.4753338410612633}, refine=True)


class TestRefine:
    def test_never_below_seed(self):
        cfg = unitary_l13_cfg(count=31)
        seed = {"t": 1.2}
        params, value, _ = refine_max(cfg, seed)
        assert value >= l13_from_cfg(cfg, seed) - 1e-15

    def test_variant_optimum(self):
        cfg = SweepConfig(expression="V3", kind="unitary",
                          grids={"t": GridSpec(0.05, 1.5, 64),
                                 "theta": GridSpec(0.05, np.pi, 64)},
                          fixed={"phi": np.pi / 2})
        params, value, _ = refine_max(cfg, {"t": 0.4, "theta": 2.7})
        assert value == pytest.approx(1.93, abs=0.005)
        assert params["t"] == pytest.approx(0.398, abs=0.01)

    def test_constant_objective_returns_seed(self):
        cfg = SweepConfig(expression="L13", kind="unitary", grids={},
                          fixed={"t": 0.6})
        params, value, converged = refine_max(cfg, {"t": 0.6})
        assert params["t"] == 0.6
        assert converged

    def test_one_dim_refinement_call_budget(self, monkeypatch):
        # two stacked engine calls in all: the fit's samples, then the seed, both
        # window ends and the readings of the maxima
        calls = []
        original = sweep.build_preset

        def counting(cfg, params):
            calls.append(params["t"])
            return original(cfg, params)

        monkeypatch.setattr(sweep, "build_preset", counting)
        cfg = unitary_l13_cfg(count=101)
        params, value, converged = refine_max(cfg, {"t": 0.5})
        assert converged
        assert value == pytest.approx(1.5, abs=1e-12)
        assert params["t"] == pytest.approx(np.pi / 6, abs=1e-6)
        assert len(calls) == 2 and all(isinstance(t, tuple) for t in calls)
        samples, candidates = calls
        assert len(samples) == 7  # the sequential chain's fit
        assert candidates[:3] == (0.5, 0.01, np.pi)

    def test_one_dim_refinement_falls_back_when_a_sample_fails(self, monkeypatch):
        def refused(preset, expression):
            raise DegenerateWeightError("pre-evolution weight 0 cannot be renormalized")

        monkeypatch.setattr(tfit, "fit", refused)
        params, value, converged = refine_max(unitary_l13_cfg(count=101), {"t": 0.5})
        assert value == pytest.approx(1.5, abs=1e-12)
        assert params["t"] == pytest.approx(np.pi / 6, abs=1e-6)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
           ts=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=8))
    def test_fit_reproduces_engine(self, expr, kind, pre_evolution, alpha, theta, phi, ts):
        # M = 7 samples (17 on the published chain) determine each term's
        # numerator and total exactly, so the model is the engine at any t.
        # The rows carry roundoff relative to their largest value, which a
        # term's normalization divides by D_c(t): the bound scales
        # err_bound(alpha), the engine's error on a probability, by
        # sum_c max|D_c| / D_c(t), D_c(t) read from the engine, so that a fit
        # with too few samples cannot widen its own bound.
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {"theta": theta, "phi": phi} | ({} if kind == "unitary" else {"alpha": alpha})
        cfg = SweepConfig(expression=expr, kind=kind, grids={"t": GridSpec(0.0, np.pi, 2)},
                          fixed=fixed, pre_evolution=pre_evolution)
        samples = tfit.sample_times(kind == "pt-published")
        fit = tfit.fit(sweep.build_preset(cfg, fixed | {"t": samples}), expr)
        assert fit.shape == (6, 17 if kind == "pt-published" else 7)
        ts = np.array(ts)
        num, den = tfit.trig(fit, 2 * ts)[0].reshape(3, 2, ts.size).transpose(1, 0, 2)
        model = np.array([sign for sign, _ in TERMS[expr]]) @ (num / den)
        at = sweep.build_preset(cfg, fixed | {"t": tuple(ts.tolist())})
        engine = np.asarray(expression(expr, at))
        totals = np.array([context_weights(MeasurementContext(at, times)).sum(0)
                           for _, times in TERMS[expr]]) * at.transfer[2]
        amplification = (abs(fit[1::2]).sum(1)[:, None] / totals).sum(0)
        bound = err_bound(0.0 if kind == "unitary" else alpha) * amplification
        assert np.all(abs(model - engine) <= bound), (abs(model - engine) / bound).max()

    def test_one_dim_refinement_escapes_the_seed_basin(self):
        # the seed's local maximum is -0.7419; the window's is 0.2905 at t = 1.0524
        cfg = SweepConfig(expression="V3", kind="pt", grids={"t": GridSpec(0.3, 1.9, 32)},
                          fixed={"alpha": 1.45, "theta": DEFAULT_THETA, "phi": DEFAULT_PHI})
        params, value, converged = refine_max(cfg, {"t": 0.3 + 1.6 * 2 / 31})
        assert value >= 0.290519 and converged
        assert params["t"] == pytest.approx(1.05236, abs=1e-3)
        assert value == evaluate_expression(cfg, params)

    def test_published_dip_is_read_by_the_engine(self):
        # near t = pi/2 the published chain's full-context total dips to about 1e-12
        # of its scale, where the fit cannot resolve V, and V peaks there
        cfg = SweepConfig(expression="V2", kind="pt-published",
                          grids={"t": GridSpec(0.05, 1.65, 20)}, refine=True,
                          fixed={"alpha": -1.506937014647157, "theta": 1.4866141201638425,
                                 "phi": 1.3604874374011873})
        res = scan(cfg)
        assert res.argmax_value >= 2.99538  # a 20,001-point engine grid reads 2.995380
        assert res.argmax_params["t"] == pytest.approx(1.57025, abs=1e-4)
        assert res.converged is False  # the engine's own search, not a maximum of the fit
        assert res.argmax_value == evaluate_expression(cfg, res.argmax_params)

    def test_window_end_with_outward_slope_converges(self):
        # L13 rises through the whole window [0.01, 0.3] towards its peak at pi/6
        cfg = SweepConfig(expression="L13", kind="unitary", grids={"t": GridSpec(0.01, 0.3, 8)})
        params, value, converged = refine_max(cfg, {"t": 0.2})
        assert params["t"] == 0.3 and converged
        assert value == evaluate_expression(cfg, params)

    def test_scan_reports_convergence(self):
        assert scan(unitary_l13_cfg(count=31, refine=True)).converged is True
        assert scan(unitary_l13_cfg(count=31)).converged is None

    def test_ridge_scan_converges(self):
        # a recorded near-EP scan whose coordinate ascent crept along a ridge in
        # (t, theta) and reached only 0.79677 after 60 cycles
        res = scan(RIDGE_SCAN)
        assert res.converged is True
        assert res.argmax_value >= max(r.value for r in res.rows)
        assert res.argmax_value >= 0.7967740808242361
        assert res.argmax_value == pytest.approx(evaluate_expression(RIDGE_SCAN, res.argmax_params),
                                                 abs=err_bound(RIDGE_SCAN.fixed["alpha"]))

    @pytest.mark.parametrize("cfg, want", [
        (RIDGE_SCAN, ({"alpha": 1.426860673717, "t": 0.535380872854154,
                       "theta": 0.7880697978436287, "phi": 7.85398163397042},
                      2.4615369046977893, True)),
        (WORKLOAD_SCAN, ({"alpha": 1.4753338410612633, "t": 0.5304446866220299,
                          "theta": 0.7864153865115064, "phi": 7.853981633972052},
                         2.464598862490791, False)),
    ])
    def test_multi_dim_refinement_is_unchanged(self, cfg, want):
        # values recorded before t-only sweeps moved to the fit; the coordinate
        # search and Newton phase that (t, theta, phi) scans run stay as they were
        res = scan(cfg)
        assert (res.argmax_params, res.argmax_value, res.converged) == want

    def test_spent_iteration_cap_is_not_convergence(self, monkeypatch):
        monkeypatch.setattr(sweep, "NEWTON_ITERATIONS", 1)
        res = scan(RIDGE_SCAN)
        assert res.converged is False
        assert res.argmax_value >= max(r.value for r in res.rows)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), expr=st.sampled_from(EXPRESSIONS),
           kind=st.sampled_from(sweep.KINDS), alpha=st.floats(-1.4, 1.4),
           lo=st.floats(0.05, 1.5), width=st.floats(0.2, 1.5), count=st.integers(3, 9),
           angle=st.sampled_from([None, "theta", "phi"]))
    def test_refined_optimum_beats_seed_and_grid(self, data, expr, kind, alpha, lo, width,
                                                 count, angle):
        grids = {"t": GridSpec(lo, lo + width, count)}
        if angle is not None:
            grids[angle] = GridSpec(0.2, 2.9, 4)
        fixed = {} if kind == "unitary" else {"alpha": alpha}
        cfg = SweepConfig(expression=expr, kind=kind, grids=grids, fixed=fixed, refine=True)
        seed = {name: data.draw(st.floats(g.lo, g.hi)) for name, g in grids.items()}
        _, value, _ = refine_max(cfg, seed)
        assert value >= evaluate_expression(cfg, fixed | seed)
        res = scan(cfg)
        assert res.argmax_value >= max(r.value for r in res.rows)
        assert all(g.lo <= res.argmax_params[n] <= g.hi for n, g in grids.items())


def l13_from_cfg(cfg, params):
    return evaluate_expression(cfg, dict(cfg.fixed) | params)


def _rows_alone(res):
    """Each scan row's point evaluated alone; NaN where that raises."""
    values = []
    for row in res.rows:
        try:
            values.append(evaluate_expression(res.config, row.params))
        except (DomainError, DegenerateWeightError):
            values.append(float("nan"))
    return values


class TestStackedScan:
    """A scan evaluates its whole grid as one stack.  Rows equal each point
    alone: bit for bit when only t varies, within `err_bound(alpha)` when an
    angle varies."""

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_t_grid_rows_equal_points(self, expr):
        cfg = SweepConfig(expression=expr, kind="pt", grids={"t": GridSpec(0.0, np.pi, 24)},
                          fixed={"alpha": 2 * np.pi / 5, "theta": 1.1, "phi": 0.4})
        res = scan(cfg)
        assert [r.value for r in res.rows] == _rows_alone(res)

    @pytest.mark.parametrize("expr", EXPRESSIONS)
    @pytest.mark.parametrize("kind", ("pt", "pt-published", "unitary"))
    def test_angle_grid_rows_match_points(self, expr, kind):
        alpha = 1.45
        cfg = SweepConfig(expression=expr, kind=kind,
                          grids={"t": GridSpec(0.05, 3.0, 5), "theta": GridSpec(0.1, 3.0, 4),
                                 "phi": GridSpec(0.0, 6.0, 5)},
                          fixed={"alpha": alpha} if kind != "unitary" else {})
        res = scan(cfg)
        assert len(res.rows) == 5 * 4 * 5
        assert [tuple(r.params[n] for n in ("t", "theta", "phi")) for r in res.rows] == list(
            product(*(cfg.grids[n].values() for n in ("t", "theta", "phi"))))
        assert all(r.error is None for r in res.rows)
        np.testing.assert_allclose([r.value for r in res.rows], _rows_alone(res),
                                   rtol=0, atol=err_bound(alpha))

    def test_alpha_grid(self):
        cfg = SweepConfig(expression="V1", kind="pt",
                          grids={"t": GridSpec(0.1, 2.0, 6), "alpha": GridSpec(-1.5, 1.5, 7)},
                          fixed={"theta": 0.9, "phi": 2.2})
        res = scan(cfg)
        assert [(r.params["t"], r.params["alpha"]) for r in res.rows] == list(
            product(cfg.grids["t"].values(), cfg.grids["alpha"].values()))
        np.testing.assert_allclose([r.value for r in res.rows], _rows_alone(res),
                                   rtol=0, atol=err_bound(1.5))
        # the same values as one fixed-alpha scan per angle
        for alpha in cfg.grids["alpha"].values():
            fixed = scan(SweepConfig(expression="V1", kind="pt", grids={"t": cfg.grids["t"]},
                                     fixed={"alpha": alpha, "theta": 0.9, "phi": 2.2}))
            mine = [r.value for r in res.rows if r.params["alpha"] == alpha]
            np.testing.assert_allclose(mine, [r.value for r in fixed.rows],
                                       rtol=0, atol=err_bound(alpha))

    def test_alpha_grid_with_refinement(self):
        cfg = SweepConfig(expression="L13", kind="pt",
                          grids={"t": GridSpec(0.01, np.pi / 2, 41), "alpha": GridSpec(0.0, 1.2, 5)},
                          refine=True)
        res = scan(cfg)
        assert res.converged
        assert res.argmax_value >= max(r.value for r in res.rows)
        assert res.argmax_value == evaluate_expression(cfg, res.argmax_params)

    def test_failing_points_keep_their_reason(self):
        # alpha = 1.6 lies past the exceptional point; every other row keeps
        # the value of its point alone
        cfg = SweepConfig(expression="L13", kind="pt",
                          grids={"t": GridSpec(0.2, 1.2, 3), "alpha": GridSpec(1.2, 1.6, 3)})
        res = scan(cfg)
        failed = [r for r in res.rows if r.error is not None]
        assert [r.params["alpha"] for r in failed] == [1.6] * 3
        assert all("outside the real-spectrum regime" in r.error and np.isnan(r.value)
                   for r in failed)
        kept = [r for r in res.rows if r.error is None]
        assert len(kept) == 6
        assert [r.value for r in kept] == [evaluate_expression(cfg, r.params) for r in kept]
        assert res.argmax_value == max(r.value for r in kept)

    def test_failing_duration_in_stack(self):
        cfg = SweepConfig(expression="V2", kind="pt",
                          grids={"t": GridSpec(-0.2, 1.0, 4), "theta": GridSpec(0.5, 2.5, 3)},
                          fixed={"alpha": 0.8})
        res = scan(cfg)
        assert [r.error is not None for r in res.rows] == [True] * 3 + [False] * 9
        assert all("duration t must be >= 0" in r.error for r in res.rows[:3])
        np.testing.assert_allclose([r.value for r in res.rows[3:]], _rows_alone(res)[3:],
                                   rtol=0, atol=err_bound(0.8))

    def test_grid_columns_drops_named_points(self):
        calls = []

        def f(t, theta):
            calls.append(t)
            t = np.array(t)
            raise_where(t < 0, t, lambda t: DomainError(f"negative duration {t}"))
            return t * np.array(theta), 7.0

        cols, errors = grid_columns(f, {"t": [-1.0, 2.0, -3.0], "theta": [1.0, 2.0, 0.5]}, 2)
        assert errors == ["negative duration -1.0", None, "negative duration -3.0"]
        assert calls == [(-1.0, 2.0, -3.0), (2.0,)]
        assert np.isnan(cols[0][0]) and cols[0][1] == 4.0 and np.isnan(cols[0][2])
        assert np.isnan(cols[1][0]) and cols[1][1] == 7.0 and np.isnan(cols[1][2])
        cols, errors = grid_columns(f, {"t": [1.0, 2.0], "theta": [3.0, 4.0]}, 2)
        assert cols == [[3.0, 8.0], [7.0, 7.0]] and errors == [None, None]

    def test_grid_columns_error_naming_no_point_fails_all(self):
        def f(t):
            raise DomainError("the whole stack fails")

        cols, errors = grid_columns(f, {"t": [1.0, 2.0, 3.0]}, 1)
        assert errors == ["the whole stack fails"] * 3
        assert np.isnan(cols).all()


_T = st.one_of(st.floats(0.0, 3.0), st.floats(-1.0, -1e-9))
_ALPHA = st.one_of(st.floats(-1.5, 1.5), st.floats(np.pi / 2, 2.0), st.floats(-2.0, -np.pi / 2))


def _check_against_points_alone(expr, axes, fixed, exact):
    """Run `axes` through `grid_columns` and compare each point with its
    evaluation alone: the same value (== if `exact`, else within the error
    bound), or NaN with the identical reason.  The stacked calls number at
    most one plus the distinct failing checks."""
    cfg = SweepConfig(expression=expr, kind="pt", fixed=fixed)
    calls = []

    def f(**point):
        calls.append(point)
        return (evaluate_expression(cfg, cfg.fixed | point),)

    (values,), errors = grid_columns(f, axes, 1)
    failing_checks = set()
    for i, (value, error) in enumerate(zip(values, errors)):
        point = cfg.fixed | {name: v[i] for name, v in axes.items()}
        try:
            want = evaluate_expression(cfg, point)
        except (DomainError, DegenerateWeightError) as exc:
            assert error == str(exc) and np.isnan(value), point
            failing_checks.add(re.sub(r"-?\d+\.\d*(e[-+]?\d+)?|nan|inf", "", str(exc)))
            continue
        assert error is None, point
        if exact:
            assert value == want, point
        else:
            assert abs(value - want) <= err_bound(point["alpha"]), point
    assert len(calls) <= 1 + len(failing_checks)


class TestFailingPointsDropOut:
    """A stack with failing points gives each point its own value or reason."""

    @settings(derandomize=True, deadline=None)
    @given(expr=st.sampled_from(EXPRESSIONS), alpha=_ALPHA,
           ts=st.lists(_T, min_size=1, max_size=12))
    def test_t_stack(self, expr, alpha, ts):
        _check_against_points_alone(expr, {"t": ts},
                                    {"alpha": alpha, "t": 0.0, "theta": 0.7, "phi": 2.1},
                                    exact=True)

    @settings(derandomize=True, deadline=None)
    @given(expr=st.sampled_from(EXPRESSIONS),
           points=st.lists(st.tuples(_T, _ALPHA), min_size=1, max_size=12))
    def test_t_alpha_stack(self, expr, points):
        ts, alphas = map(list, zip(*points))
        _check_against_points_alone(expr, {"t": ts, "alpha": alphas},
                                    {"alpha": 0.0, "t": 0.0, "theta": 0.7, "phi": 2.1},
                                    exact=False)


class TestFigureData:
    def test_figure1_hermitian_row_matches_closed_form(self):
        data = figure_data(1, t_steps=64, alphas=(0.0,))
        assert data.columns == ("alpha", "t", "L13")
        for _, t, val in data.rows:
            assert val == pytest.approx(unitary_l13(t), abs=1e-10)

    def test_figure1_bounded_by_algebraic_maximum(self):
        data = figure_data(1, t_steps=128)
        vals = [row[2] for row in data.rows if np.isfinite(row[2])]
        assert max(vals) <= 3.0 + 1e-9

    def test_figure3_hermitian_aot_columns_vanish(self):
        data = figure_data(3, t_steps=48, alphas=(0.0,))
        r_cols = [i for i, c in enumerate(data.columns) if c.startswith("R12_3")]
        for row in data.rows:
            for i in r_cols:
                assert abs(row[i]) < 1e-12

    def test_figure2_and_4_columns(self):
        assert figure_data(2, t_steps=4).columns == ("alpha", "t", "V3", "theta", "phi")
        cols4 = figure_data(4, t_steps=4).columns
        assert cols4[:3] == ("alpha", "t", "V1")
        assert "R1_23_p" in cols4 and "R1_23_m" in cols4 and "D123_pp" in cols4

    def test_figure3_columns(self):
        cols = figure_data(3, t_steps=4).columns
        assert cols[:3] == ("alpha", "t", "L13")
        assert len([c for c in cols if c.startswith("D123_")]) == 4
        assert len([c for c in cols if c.startswith("D1_2_3_")]) == 4
        assert len([c for c in cols if c.startswith("R12_3_")]) == 4

    def test_invalid_figure_index(self):
        with pytest.raises(UsageError):
            figure_data(5)

    def test_row_count(self):
        data: FigureData = figure_data(1, t_steps=16, alphas=(0.0, 0.5))
        assert len(data.rows) == 32

    def test_each_row_computes_each_context_once(self, distribution_calls):
        # figure 3 needs five contexts per row: three pairs for L13, plus {1}
        # and the full context for the degree tables; each context is
        # computed once, as one stack over all 4 rows of the alpha's t-grid
        figure_data(3, t_steps=4, alphas=(0.5,))
        assert len(distribution_calls) == 5


_DEGREE_TABLES = {"D123": "d_123", "D1_2_3": "d_1_2_3", "R12_3": "r_12_3", "R1_23": "r_1_23"}
_INDEX = {"p": 0, "m": 1}  # a column suffix letter's index on its time's outcome axis


def _row_alone(columns, alpha, t, theta, phi, pre_evolution):
    """One figure row from a single-duration preset: the scalar engine."""
    expr = columns[2]
    preset = (pt_standard(alpha, t, pre_evolution) if expr == "L13"
              else pt_variant(alpha, t, theta, phi, pre_evolution))
    tab = table(preset)
    rep = degree_report(tab)
    row = [alpha, t, expression(expr, tab)]
    for c in columns[3:]:
        if c in ("theta", "phi"):
            row.append({"theta": theta, "phi": phi}[c])
            continue
        prefix, suffix = c.rsplit("_", 1)
        row.append(getattr(rep, _DEGREE_TABLES[prefix])[tuple(_INDEX[ch] for ch in suffix)])
    return tuple(row)


def _assert_rows_equal_points(data, theta, phi, pre_evolution):
    """Each row equals its point alone; a point that fails alone is a NaN row.

    Returns the number of NaN rows.
    """
    nan_rows = 0
    for row in data.rows:
        alpha, t = row[:2]
        try:
            want = _row_alone(data.columns, alpha, t, theta, phi, pre_evolution)
        except (DomainError, DegenerateWeightError):
            computed = [v for c, v in zip(data.columns, row)
                        if c not in ("alpha", "t", "theta", "phi")]
            assert np.isnan(computed).all(), (alpha, t)
            nan_rows += 1
            continue
        assert row == want, (alpha, t)
    return nan_rows


class TestStackedGrid:
    """An alpha's t-grid is evaluated as one stack; each row must equal (==,
    not approximately) the same point evaluated alone."""

    @pytest.mark.parametrize("fig", (1, 2, 3, 4))
    @pytest.mark.parametrize("pre_evolution", (True, False))
    def test_figure_rows_equal_points(self, fig, pre_evolution):
        theta, phi = 1.1, 0.4
        data = figure_data(fig, t_steps=16, alphas=DEFAULT_ALPHAS, theta=theta, phi=phi,
                           pre_evolution=pre_evolution)
        assert len(data.rows) == 16 * len(DEFAULT_ALPHAS)
        assert _assert_rows_equal_points(data, theta, phi, pre_evolution) == 0

    def test_nosignal_equals_points(self):
        ts = np.linspace(0.0, np.pi, 16)
        for alpha in DEFAULT_ALPHAS:
            stacked = signaling_deviation(PTParams(alpha, tuple(ts)))
            assert stacked.shape == ts.shape
            assert stacked.tolist() == [signaling_deviation(PTParams(alpha, t)) for t in ts]

    def test_near_ep_grid_has_no_failing_point(self):
        # near the EP this pure state's pre-evolved density once failed the
        # Hermiticity check at t = 1.2912; built from the evolved ket it passes
        theta, phi = 2.3701, 3 * np.pi / 2
        data = figure_data(2, t_steps=6, alphas=(1.488,), theta=theta, phi=phi,
                           t_min=1.2912, t_max=1.6)
        assert _assert_rows_equal_points(data, theta, phi, True) == 0

    def test_grid_with_negative_durations(self):
        data = figure_data(3, t_steps=6, alphas=(0.5,), t_min=-0.3, t_max=1.0)
        assert _assert_rows_equal_points(data, 0.0, 0.0, True) == 2
        assert [np.isnan(row[2]) for row in data.rows] == [True, True] + [False] * 4
        ts = np.linspace(-0.3, 1.0, 6)
        (devs,), _ = grid_columns(lambda t: (signaling_deviation(PTParams(0.5, t)),),
                                  {"t": ts.tolist()}, 1)
        assert np.isnan(devs[:2]).all()
        assert devs[2:] == [signaling_deviation(PTParams(0.5, t)) for t in ts[2:]]

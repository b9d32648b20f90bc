import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_reference import err_bound

from ptlg import protocol, search, sweep, tfit
from ptlg.closedform import unitary_l13
from ptlg.errors import DegenerateWeightError, DomainError, UsageError
from ptlg.lgexpr import EXPRESSIONS, TERMS, expression, l13, table
from ptlg.macrodiag import degree_report, violation_classifier
from ptlg.matcore import raise_where
from ptlg.nosignal import signaling_deviation
from ptlg.protocol import pt_standard, pt_variant
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
        with pytest.raises(UsageError, match="both gridded and fixed"):  # no silent winner
            SweepConfig(expression="L13", kind="pt", grids={"t": GridSpec(0, 1, 5)},
                        fixed={"t": 0.5, "alpha": 0.3})

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
# the optimize smoke's window, refined along t alone
ONE_DIM_SCAN = SweepConfig(expression="V3", kind="pt", grids={"t": GridSpec(0.3, 1.9, 32)},
                           fixed={"alpha": 1.45}, refine=True)

# near-EP (t, theta, phi) scans of the optimize benchmark (seed/pass) whose search once ended
# at the lower of two maxima, each with the best value a 60-start Nelder-Mead search of
# the engine found and where (t, theta, phi)
TWIN_MAXIMA_SCANS = [
    (SweepConfig(expression="V1", kind="pt", refine=True, fixed={"alpha": 1.5260219357614806},
                 grids={"t": GridSpec(0.31318616576176517, 1.832443991338549, 6),
                        "theta": GridSpec(0.6487925010123932, 1.9941346565916407, 4),
                        "phi": GridSpec(3.688973447166718, 8.401362427551408, 4)}),
     1.0242709944, (1.600662, 0.786121, 7.853982)),  # 1011/14
    (SweepConfig(expression="V3", kind="pt", refine=True, fixed={"alpha": 1.5270034894000248},
                 grids={"t": GridSpec(0.319860123672148, 1.50016931590763, 6),
                        "theta": GridSpec(0.7623387024362075, 2.489643340535404, 4),
                        "phi": GridSpec(4.584861851396268, 9.297250831780957, 4)}),
     2.4664129537, (0.530869, 0.785879, 7.853982)),  # 1021/8
    (SweepConfig(expression="V3", kind="pt", refine=True, fixed={"alpha": 1.5316435253929215},
                 grids={"t": GridSpec(0.106246901757274, 1.2940507878773884, 6),
                        "theta": GridSpec(0.15568948013616382, 2.116621591368528, 4),
                        "phi": GridSpec(3.238569340482895, 7.950958320867585, 4)}),
     2.4665100333, (0.530894, 0.785829, 7.853982)),  # 1029/10
    (SweepConfig(expression="V3", kind="pt", refine=True, fixed={"alpha": 1.4371858162516966},
                 grids={"t": GridSpec(0.3498834512765697, 1.5198825357176569, 6),
                        "theta": GridSpec(0.2751528934270352, 1.550831682222276, 4),
                        "phi": GridSpec(3.266930343832405, 7.979319324217094, 4)}),
     2.4623977745, (0.529925, 0.786767, 7.853982)),  # 1007/6
]
# a near-EP V1 scan of the optimize benchmark (1007/1) at whose grid's t the terms of V1
# peak at states where V1 reads 1 within 4e-11
FLAT_TERM_PEAKS_SCAN = SweepConfig(
    expression="V1", kind="pt", refine=True, fixed={"alpha": 1.4794484113552833},
    grids={"t": GridSpec(0.4035024771534925, 1.589226422314287, 6),
           "theta": GridSpec(0.26326159510657965, 1.9654290218191273, 4),
           "phi": GridSpec(4.867878023406172, 9.580267003790862, 4)})


class TestRefine:
    def test_never_below_seed(self):
        cfg = unitary_l13_cfg(count=31)
        seed = {"t": 1.2}
        params, value, _, _ = refine_max(cfg, seed)
        assert value >= l13_from_cfg(cfg, seed) - 1e-15

    def test_variant_optimum(self):
        cfg = SweepConfig(expression="V3", kind="unitary",
                          grids={"t": GridSpec(0.05, 1.5, 64),
                                 "theta": GridSpec(0.05, np.pi, 64)},
                          fixed={"phi": np.pi / 2})
        params, value, _, _ = refine_max(cfg, {"t": 0.4, "theta": 2.7})
        assert value == pytest.approx(1.93, abs=0.005)
        assert params["t"] == pytest.approx(0.398, abs=0.01)

    def test_constant_objective_returns_seed(self):
        cfg = SweepConfig(expression="L13", kind="unitary", grids={},
                          fixed={"t": 0.6})
        params, value, converged, _ = refine_max(cfg, {"t": 0.6})
        assert params["t"] == 0.6
        assert converged

    def test_one_dim_refinement_call_budget(self, monkeypatch):
        # one stacked engine call in all, at the seed, both window ends and the
        # readings of the maxima: the fit needs none
        calls = []
        original = sweep.build_preset

        def counting(cfg, params):
            calls.append(params["t"])
            return original(cfg, params)

        monkeypatch.setattr(sweep, "build_preset", counting)
        cfg = unitary_l13_cfg(count=101)
        params, value, converged, _ = refine_max(cfg, {"t": 0.5})
        assert converged
        assert value == pytest.approx(1.5, abs=1e-12)
        assert params["t"] == pytest.approx(np.pi / 6, abs=1e-6)
        assert len(calls) == 1 and isinstance(calls[0], tuple)
        assert calls[0][:3] == (0.5, 0.01, np.pi)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           alpha=st.floats(-1.45, 1.45), t=st.floats(0.0, 2 * np.pi))
    @example(expr="V1", kind="pt-published", alpha=1.447175058739419, t=1.6471168981451434)
    def test_term_maxima_beat_random_states(self, expr, kind, alpha, t):
        # each signed term Q(b) = (m0 + m.b) / (d0 + d.b) of the state fit at t,
        # read at its `term_maxima` state and at 20,000 random Bloch vectors b.
        # A reading is within 8 u (|m0| + |m.b| + |Q| (d0 + |d.b|)) / D: a 4-term
        # dot product and the features' rounding.  The state is b ~ w = m - Q d
        # at the peak Q, the larger root of qa Q^2 - 2 qb Q + qc; the roundoff
        # of those coefficients moves Q by at most 8 u (S / |2 root| + (|qb| +
        # root) / |qa|), S the root's sum of coefficient magnitudes, and w by |d|
        # times that plus 8 u (|m| + |Q| |d|).  Since |w| - w.b' <= 2 |dw| for b'
        # along w + dw, the peak loses at most 2 min(|dw|, |m| + |Q| |d|) / D.
        # Where a term's total nearly vanishes on the sphere (d0 ~ |d|) that
        # loss reaches 1e-8 (the example: d0 - |d| is 1.2e-9 of d0); elsewhere the
        # bound is a few ulps.
        coef = tfit.fit(kind, 0.0 if kind == "unitary" else alpha, True, expr)
        theta, phi = (a[:, 0] for a in tfit.term_maxima(coef, [t]))
        rows = tfit.trig(coef, 2 * np.array([t]))[0][..., 0]  # (R, 4)
        b = np.random.default_rng(0).standard_normal((3, 20000))
        random = np.vstack([np.ones(b.shape[1]), b / np.sqrt((b * b).sum(0))])
        u = np.finfo(float).eps / 2
        for n, d, th, ph in zip(rows[::2], rows[1::2], theta, phi):
            def read(f):
                q = (n @ f) / (d @ f)
                return q, 8 * u * (abs(n) @ abs(f) + abs(q) * (abs(d) @ abs(f))) / abs(d @ f)

            qs, errs = read(random)
            if np.isnan(th):  # a term that does not move with the state, up to its roundoff
                assert np.ptp(qs) <= 2 * errs.max()
                continue
            q, err = read(tfit.features(th, ph))
            (m0, m), (d0, dv) = (n[0], n[1:]), (d[0], d[1:])
            nm, nd = np.sqrt(m @ m), np.sqrt(dv @ dv)
            qa, qb, qc = nd * nd - d0 * d0, m @ dv - m0 * d0, nm * nm - m0 * m0
            root = np.sqrt(max(qb * qb - qa * qc, 0))
            s = (q * q * (nd * nd + d0 * d0) + 2 * abs(q) * (nm * nd + abs(m0 * d0))
                 + nm * nm + m0 * m0)
            with np.errstate(divide="ignore", invalid="ignore"):
                dq = 8 * u * (s / (2 * root) + (abs(qb) + root) / abs(qa))
                dw = np.fmin(nd * dq + 8 * u * (nm + abs(q) * nd), nm + abs(q) * nd)
            i = qs.argmax()
            assert qs[i] - q <= err + errs[i] + 2 * dw / abs(d @ tfit.features(th, ph)), (qs[i], q)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(roots=st.lists(st.floats(0.05, np.pi - 0.05), min_size=1, max_size=4))
    def test_real_roots_finds_planted_roots(self, roots):
        # prod_j (cos u - cos r_j), cos u = (z + 1/z) / 2, vanishes at u = +-r_j.  The
        # companion matrix's eigenvalues carry a backward error of a modest multiple
        # of eps sum|p| (64 here; 21 is the most seen in 20,000 draws), which a simple
        # root turns into eps sum|p| / |p'(r_j)| in u
        roots = np.sort(roots)
        assume(np.all(np.diff(roots) > 0.05))
        p = np.array([1.0])
        for r in roots:
            p = np.convolve(p, [0.5, -np.cos(r), 0.5])
        slope = [abs(np.sin(r) * np.prod(np.cos(r) - np.cos(np.delete(roots, j))))
                 for j, r in enumerate(roots)]
        want, bound = np.append(roots, -roots), 64 * np.finfo(float).eps * abs(p).sum() / np.tile(
            slope, 2)
        found = tfit.real_roots(p)
        assert found.shape == want.shape
        assert np.all(abs(np.sort(found) - want[np.argsort(want)]) <= bound[np.argsort(want)])

    def test_real_roots_skip_roots_off_the_unit_circle(self):
        # 2 + cos u has no real root: its companion roots are z = -2 +- sqrt(3)
        assert tfit.real_roots(np.array([0.5, 2.0, 0.5])).size == 0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
           ts=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=8))
    def test_fit_reproduces_engine(self, expr, kind, pre_evolution, alpha, theta, phi, ts):
        # the closed form at M = 7 t (17 on the published chain) determines each
        # term's numerator and total exactly, so the model is the engine at any
        # t.  The rows carry roundoff relative to their largest value, which a
        # term's normalization divides by D_c(t): the bound scales
        # err_bound(alpha), the engine's error on a probability, by
        # sum_c max|D_c| / D_c(t)
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {"theta": theta, "phi": phi} | ({} if kind == "unitary" else {"alpha": alpha})
        cfg = SweepConfig(expression=expr, kind=kind, grids={"t": GridSpec(0.0, np.pi, 2)},
                          fixed=fixed, pre_evolution=pre_evolution)
        fit = tfit.fit(kind, fixed.get("alpha", 0.0), pre_evolution, expr, (theta, phi))
        assert fit.shape == (6, 17 if kind == "pt-published" else 7)
        ts = np.array(ts)
        num, den = tfit.trig(fit, 2 * ts)[0].reshape(3, 2, ts.size).transpose(1, 0, 2)
        model = (num / den).sum(0)  # the rows carry their terms' signs
        at = sweep.build_preset(cfg, fixed | {"t": tuple(ts.tolist())})
        engine = np.asarray(expression(expr, at))
        amplification = (abs(fit[1::2]).sum(1)[:, None] / _totals(fit, ts)).sum(0)
        bound = err_bound(0.0 if kind == "unitary" else alpha) * amplification
        assert np.all(abs(model - engine) <= bound), (abs(model - engine) / bound).max()

    @pytest.mark.parametrize("angles", (None, (0.4, 1.3)))
    def test_fit_sampling_formed_once_keeps_the_bits(self, monkeypatch, angles):
        # `fit` reads its sample multiples j t and its DFT matrix from a table formed
        # once per M; the same arrays formed afresh, as every call once did, give
        # the same coefficients bit for bit, and no call changes the table
        want = {}
        for m in (7, 17):
            jt = np.multiply.outer(np.arange(5), np.arange(m) * np.pi / m)[:, None]
            want[m] = jt, np.exp(-2j * np.pi / m * np.outer(np.arange(m), np.arange(m) - m // 2)) / m
        cases = [(kind, expr, pre) for kind in sweep.KINDS for expr in EXPRESSIONS
                 for pre in (True, False)]
        got = [tfit.fit(kind, 0.0 if kind == "unitary" else 1.3, pre, expr, angles)
               for kind, expr, pre in cases]
        for m, (jt, dft) in want.items():
            assert all(map(np.array_equal, tfit._SAMPLING[m], (jt, dft)))
        monkeypatch.setattr(tfit, "_SAMPLING", want)
        for (kind, expr, pre), coef in zip(cases, got):
            assert np.array_equal(tfit.fit(kind, 0.0 if kind == "unitary" else 1.3, pre, expr,
                                           angles), coef), (kind, expr, pre)

    def test_one_dim_refinement_escapes_the_seed_basin(self):
        # the seed's local maximum is -0.7419; the window's is 0.2905 at t = 1.0524
        cfg = SweepConfig(expression="V3", kind="pt", grids={"t": GridSpec(0.3, 1.9, 32)},
                          fixed={"alpha": 1.45, "theta": DEFAULT_THETA, "phi": DEFAULT_PHI})
        params, value, converged, _ = refine_max(cfg, {"t": 0.3 + 1.6 * 2 / 31})
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

    def test_wide_window_reads_its_first_period(self):
        # V has period pi in t, so a 3,000-wide window holds its maximum in its
        # first period; a scan of the whole window at a capped step count reads
        # it 0.055 low, at t = 2939.544
        lo = 0.8011138329902308
        cfg = SweepConfig(expression="V2", kind="pt-published",
                          grids={"t": GridSpec(lo, 3000.8011138329902, 32)}, refine=True,
                          fixed={"alpha": 1.3523297645402659, "theta": 0.3561180404435358,
                                 "phi": 2.575028347135541})
        res = scan(cfg)
        assert res.argmax_value >= 1.521814 and res.converged
        assert lo <= res.argmax_params["t"] <= lo + np.pi
        assert res.argmax_value == evaluate_expression(cfg, res.argmax_params)

    @pytest.mark.parametrize("width, count", [(41.352187983104535, 13), (3.5, 64)])
    def test_twin_peaks_about_a_dip_do_not_depend_on_the_grid(self, width, count):
        # two peaks flank a dip of a total at t = pi / 2, where the fit cannot
        # settle V: 2.99238674538503 at t = 1.5695984 (a 40,001-point engine
        # grid) and 2.99235298 at t = 1.57200; the engine's own search runs
        # about both, so the grid cannot pick the lower one
        lo = 0.8661213373836898
        cfg = SweepConfig(expression="V2", kind="pt-published",
                          grids={"t": GridSpec(lo, lo + width, count)}, refine=True,
                          fixed={"alpha": -1.4611171291133416, "theta": 2.3194217785909443,
                                 "phi": 0.4420981663531076})
        res = scan(cfg)
        assert res.argmax_value >= 2.9923867
        assert res.argmax_value == evaluate_expression(cfg, res.argmax_params)

    @pytest.mark.parametrize("kind", sweep.KINDS)
    def test_one_dim_refinement_does_not_depend_on_the_grid(self, kind):
        # the optimize smoke's window: the fit, not the grid, sets every reading
        # but the seed's, so the grid's step count changes nothing
        fixed = {} if kind == "unitary" else {"alpha": 1.45}
        results = [scan(SweepConfig(expression="V3", kind=kind, fixed=fixed, refine=True,
                                    grids={"t": GridSpec(0.3, 1.9, count)}))
                   for count in (8, 32, 512)]
        first, *rest = [(r.argmax_params, r.argmax_value, r.converged) for r in results]
        assert all(r == first for r in rest)

    def test_window_end_with_outward_slope_converges(self):
        # L13 rises through the whole window [0.01, 0.3] towards its peak at pi/6
        cfg = SweepConfig(expression="L13", kind="unitary", grids={"t": GridSpec(0.01, 0.3, 8)})
        params, value, converged, _ = refine_max(cfg, {"t": 0.2})
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

    @pytest.mark.parametrize("cfg, want, before", [
        (RIDGE_SCAN, ({"alpha": 1.426860673717, "t": 0.535380872854154,
                       "theta": 0.788069799323615, "phi": 7.853981633974483},
                      2.461536904696854, True),
         ({"t": 0.535380872854154, "theta": 0.7880697978436287, "phi": 7.85398163397042},
          2.461536904698611)),
        (WORKLOAD_SCAN, ({"alpha": 1.4753338410612633, "t": 0.5304436014812886,
                          "theta": 0.7864152295162897, "phi": 7.853981633974483},
                         2.46459886248941, True),
         ({"t": 0.5304446866220299, "theta": 0.7864153865115064, "phi": 7.853981633972052},
          2.4645988624875845)),
    ])
    def test_multi_dim_refinement_on_the_state_fit(self, cfg, want, before):
        # the search runs on the (t, state) fit and the engine reads its ends;
        # recorded values, each at least the grid's best and below the old
        # engine route's (`before`: k-sections and Newton steps on the engine) by
        # at most the engine's roundoff, amplified by the terms' totals at that
        # route's argmax
        res = scan(cfg)
        assert (res.argmax_params, res.argmax_value, res.converged) == want
        assert res.argmax_value >= max(r.value for r in res.rows)
        old, value = cfg.fixed | before[0], before[1]
        assert evaluate_expression(cfg, old) == value
        coef = tfit.fit("pt", cfg.fixed["alpha"], True, "V3", (old["theta"], old["phi"]))
        amplification = (tfit.scales(coef)[:, 0] / _totals(coef, old["t"])).sum()
        bound = err_bound(cfg.fixed["alpha"]) * amplification
        assert res.argmax_value >= value - bound

    @pytest.mark.parametrize("cfg, value, where", TWIN_MAXIMA_SCANS,
                             ids=("1011-14", "1021-8", "1029-10", "1007-6"))
    def test_near_ep_scan_reaches_the_higher_maximum(self, cfg, value, where):
        # its floor: the recorded value less the engine's roundoff there,
        # err_bound(alpha) amplified by the terms' totals
        point = cfg.fixed | dict(zip(("t", "theta", "phi"), where))
        coef = tfit.fit("pt", cfg.fixed["alpha"], True, cfg.expression, where[1:])
        amplification = (tfit.scales(coef)[:, 0] / _totals(coef, where[0])).sum()
        res = scan(cfg)
        assert res.argmax_value >= value - err_bound(cfg.fixed["alpha"]) * amplification
        assert res.argmax_value == pytest.approx(evaluate_expression(cfg, res.argmax_params),
                                                 abs=err_bound(cfg.fixed["alpha"]))

    def test_state_fit_k_section_reads_no_engine_round(self, monkeypatch):
        # two engine stacks in all: the grid, and one reading of the seed and the
        # search's ends; no k-section or stencil round
        sizes = []
        original = sweep.build_preset

        def counting(cfg, params):
            sizes.append(len(params["t"]) if isinstance(params["t"], tuple) else 1)
            return original(cfg, params)

        monkeypatch.setattr(sweep, "build_preset", counting)
        res = scan(RIDGE_SCAN)
        assert res.converged
        assert sizes[0] == 6 * 4 * 4 and len(sizes) == 2
        assert 2 <= sizes[1] <= sweep.READS

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           t=st.floats(0.0, 2 * np.pi), theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_state_fit_reproduces_engine(self, expr, kind, pre_evolution, alpha, t, theta, phi):
        # the fit gives each term over (t, theta, phi); each evaluator of it
        # (`values` at a point and on a grid, and `derivatives`) reads the engine
        # at the drawn point within the bound of `test_fit_reproduces_engine`,
        # its scale a sum over the state components
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {} if kind == "unitary" else {"alpha": alpha}
        cfg = SweepConfig(expression=expr, kind=kind, grids={"t": GridSpec(0.0, np.pi, 2)},
                          fixed=fixed, pre_evolution=pre_evolution)
        coef = tfit.fit(kind, fixed.get("alpha", 0.0), pre_evolution, expr)
        assert coef.shape == (6, 4, 17 if kind == "pt-published" else 7)
        point = {"t": t, "theta": theta, "phi": phi}
        at = sweep.build_preset(cfg, fixed | point)
        engine, totals = expression(expr, at), _totals(coef, t, theta, phi)
        scale = tfit.scales(coef)[:, 0]
        bound = err_bound(0.0 if kind == "unitary" else alpha) * (scale / totals).sum()
        x = [np.array([v]) for v in point.values()]
        models = (tfit.values(coef, *x)[0], tfit.values(coef, *np.ix_(*x))[0, 0, 0],
                  tfit.derivatives(coef)(*x)[0][0])
        for name, model in zip(("values", "a grid's values", "derivatives"), models):
            if np.isnan(model):  # a total the fit cannot resolve
                assert (totals <= 2 * tfit.TRIM * scale).any()
            else:
                assert abs(model - engine) <= bound, (name, abs(model - engine) / bound)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           t=st.floats(1e-4, 2 * np.pi), theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_state_fit_derivatives_match_engine_differences(self, expr, kind, pre_evolution,
                                                            alpha, t, theta, phi):
        # the exact gradient and Hessian of the fit against the engine's central
        # differences at step h.  The bound is derived: the engine reads the fit
        # within err_bound(alpha) times the terms' amplification at each stencil
        # point (`test_state_fit_reproduces_engine`), which the difference
        # formula weighs by its coefficients (1 / (2 h), 1 / h^2, 1 / (4 h^2));
        # its truncation term is c h^2, which the fit's own differences at h and
        # 2 h give as their difference over 3
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {} if kind == "unitary" else {"alpha": alpha}
        cfg = SweepConfig(expression=expr, kind=kind, grids={"t": GridSpec(0.0, np.pi, 2)},
                          fixed=fixed, pre_evolution=pre_evolution)
        coef = tfit.fit(kind, fixed.get("alpha", 0.0), pre_evolution, expr)
        x, h, eye = np.array([t, theta, phi]), 1e-5, np.eye(3)
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        offsets = np.array([np.zeros(3)] + [s * eye[i] for i in range(3) for s in (1, -1)] + [
            s * eye[i] + u * eye[j] for i, j in pairs for s in (1, -1) for u in (1, -1)])

        def differences(f, step, sign=-1):  # (gradient, Hessian) from the stencil's values f;
            fp, fm = f[1:7:2], f[2:7:2]      # sign=1 sums |coefficient| * f instead
            hess = np.diag((fp + 2 * sign * f[0] + fm) / step**2)
            for (i, j), quad in zip(pairs, f[7:].reshape(3, 4)):
                hess[i, j] = hess[j, i] = quad @ (1, sign, sign, 1) / (4 * step**2)
            return (fp + sign * fm) / (2 * step), hess

        points = x + h * offsets
        at = sweep.build_preset(cfg, fixed | dict(zip(("t", "theta", "phi"), map(tuple, points.T))))
        try:
            engine, totals = np.asarray(expression(expr, at)), _totals(coef, *points.T)
        except DegenerateWeightError:
            return  # a stencil point where a context weighs nothing
        fit = [tfit.values(coef, *(x + step * offsets).T) for step in (h, 2 * h)]
        _, grad, hess = (a[..., 0] for a in tfit.derivatives(coef)(*x[:, None]))
        if not (np.isfinite(fit).all() and np.isfinite(hess).all()):
            return  # a total the fit cannot resolve
        read = err_bound(0.0 if kind == "unitary" else alpha) * (
            tfit.scales(coef)[:, :1] / totals).sum(0)  # the engine's error at each point
        (g1, h1), (g2, h2) = (differences(f, step) for f, step in zip(fit, (h, 2 * h)))
        grad_bound, hess_bound = differences(read, h, sign=1)
        grad_bound, hess_bound = grad_bound + abs(g2 - g1) / 3, hess_bound + abs(h2 - h1) / 3
        eg, eh = differences(engine, h)
        assert np.all(abs(eg - grad) <= grad_bound), abs(eg - grad) / grad_bound
        assert np.all(abs(eh - hess) <= hess_bound), abs(eh - hess) / hess_bound

    def test_spent_iteration_cap_is_not_convergence(self, monkeypatch):
        monkeypatch.setattr(sweep, "NEWTON_ITERATIONS", 1)
        res = scan(RIDGE_SCAN)
        assert res.converged is False
        assert res.argmax_value >= max(r.value for r in res.rows)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           t=st.floats(0.0, 2 * np.pi), theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_each_term_is_the_engine_correlator(self, expr, kind, pre_evolution, alpha, t,
                                                theta, phi):
        # each row pair of the closed-form fit, sign_c N_c / D_c, is the term's
        # sign times the engine's correlator in the term's context, within
        # err_bound(alpha) amplified by that term's scale over its total
        pre_evolution = pre_evolution or kind == "pt-published"
        alpha = 0.0 if kind == "unitary" else alpha
        cfg = SweepConfig(expression=expr, kind=kind, fixed={"t": t} | (
            {} if kind == "unitary" else {"alpha": alpha}), pre_evolution=pre_evolution)
        coef = tfit.fit(kind, alpha, pre_evolution, expr)
        rows = (tfit.trig(coef, 2 * np.array(t))[0] * tfit.features(theta, phi)).sum(1)
        try:
            tab = table(sweep.build_preset(cfg, cfg.fixed | {"theta": theta, "phi": phi}))
            engine = [sign * tab.correlator(*times) for sign, times in TERMS[expr]]
        except DegenerateWeightError:
            assume(False)  # a point where a context weighs nothing
        bounds = err_bound(alpha) * tfit.scales(coef)[:, 0] / abs(rows[1::2])
        assert np.all(abs(rows[::2] / rows[1::2] - engine) <= bounds)

    def test_roundoff_does_not_pick_the_starts(self):
        # the term peaks at the grid's t all read 1 within 4e-11, so which of
        # them the cap keeps must not follow the fit's last bits: scaled by
        # 1 +- 1e-13, the fit gives the same V up to roundoff and the same
        # starts, at the same t and at angles within 1e-6
        cfg = FLAT_TERM_PEAKS_SCAN
        seed = scan(replace(cfg, refine=False)).argmax_params
        x = np.array([seed[n] for n in sweep.FIT_AXES])
        lo, hi = (np.array([getattr(cfg.grids[n], e) for n in sweep.FIT_AXES])
                  for e in ("lo", "hi"))
        coef = tfit.fit("pt", cfg.fixed["alpha"], True, "V1")
        want = search.starts(coef, x, lo, hi)
        for scale in (1 + 1e-13, 1 - 1e-13):
            got = search.starts(coef * scale, x, lo, hi)
            assert got.shape == want.shape and np.array_equal(got[:, 0], want[:, 0])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_fixed_t_state_scan_forms_the_chain_twice(self, monkeypatch):
        # a (theta, phi) scan at fixed t: once for the grid and once for the
        # reading, whose winning column is the result's preset; each `transfer`
        # forms one start, and its legs in closed form, so the starts count the chains
        chains, start = [], protocol._start
        monkeypatch.setattr(protocol, "_start", lambda *args: chains.append(1) or start(*args))
        res = scan(SweepConfig(expression="V3", kind="pt-published", refine=True,
                               fixed={"alpha": np.pi / 3, "t": 0.785},
                               grids={"theta": GridSpec(0.0, np.pi, 9),
                                      "phi": GridSpec(0.0, 2 * np.pi, 9)}))
        res.preset.transfer  # the winning column's own tables: no chain more
        assert len(chains) == 2 and res.converged

    def test_criterion_04_verdict_through_the_state_fit(self):
        # the README's verdict on criterion 04: at alpha = pi/3, t = 0.785 on
        # the published chain, V3 is 2.858795 at the quoted state, at most
        # 2.9984985 over the sphere, and at least 2.9 on 4.9% of it by area
        # (3.2% of a uniform (theta, phi) grid)
        fixed = {"alpha": np.pi / 3, "t": 0.785}
        cfg = SweepConfig(expression="V3", kind="pt-published", fixed=fixed, refine=True,
                          grids={"theta": GridSpec(0.0, np.pi, 33),
                                 "phi": GridSpec(0.0, 2 * np.pi, 33)})
        coef = tfit.fit("pt-published", np.pi / 3, True, "V3")
        quoted = {"t": 0.785, "theta": 5 * np.pi / 6, "phi": np.pi / 2}
        value = tfit.values(coef, *([v] for v in quoted.values()))[0]
        assert value == pytest.approx(2.858795, abs=5e-7)
        assert value == pytest.approx(evaluate_expression(cfg, fixed | quoted), abs=1e-13)
        res = scan(cfg)  # (pi - theta, phi + pi) is the same state, so (2.35025, pi / 2) too
        assert res.converged and res.argmax_value == pytest.approx(2.9984985, abs=5e-8)
        assert (res.argmax_params["theta"], res.argmax_params["phi"]) in (
            pytest.approx((np.pi - 2.35025, 3 * np.pi / 2), abs=1e-5),
            pytest.approx((2.35025, np.pi / 2), abs=1e-5))
        best = tfit.values(coef, *([res.argmax_params[n]] for n in ("t", "theta", "phi")))
        assert best[0] == pytest.approx(res.argmax_value, abs=1e-13)
        theta = (np.arange(400) + 0.5) * np.pi / 400  # midpoints; 2 theta is the polar angle
        phi = (np.arange(800) + 0.5) * np.pi / 400
        above = tfit.values(coef, *np.ix_([0.785], theta, phi))[0] >= 2.9
        area = abs(np.sin(2 * theta))[:, None]
        assert above.mean() == pytest.approx(0.032, abs=5e-4)
        assert (above * area).sum() / (area.sum() * 800) == pytest.approx(0.0492, abs=5e-4)

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
        _, value, _, _ = refine_max(cfg, seed)
        assert value >= evaluate_expression(cfg, fixed | seed)
        res = scan(cfg)
        assert res.argmax_value >= max(r.value for r in res.rows)
        assert all(g.lo <= res.argmax_params[n] <= g.hi for n, g in grids.items())


def _totals(coef, t, theta=None, phi=None):
    """Each term's total D_c of the fit `coef` at t, or of a (t, state) fit at
    (t, theta, phi): the scale by which the engine's roundoff is read."""
    d = tfit.trig(coef[1::2], 2 * np.asarray(t))[0]
    return d if coef.ndim == 2 else (d * tfit.features(theta, phi)).sum(1)


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


def _assert_t_route_is_refine_max(cfg):
    """A refined scan along t alone, whose grid and fit readings share one stack,
    gives the unrefined scan's rows bit for bit (NaN where a row fails, with the
    same reason), and the point, value and flag that `refine_max` reaches from
    the grid's best row; returns the unrefined scan."""
    plain, res = scan(replace(cfg, refine=False)), scan(cfg)
    assert [r.params for r in res.rows] == [r.params for r in plain.rows]
    assert [r.error for r in res.rows] == [r.error for r in plain.rows]
    bits = [np.array([r.value for r in x.rows]).view(np.uint64) for x in (res, plain)]
    assert np.array_equal(*bits)
    params, value, converged, _ = refine_max(cfg, plain.argmax_params)
    assert (res.argmax_params, res.argmax_value, res.converged) == (params, value, converged)
    return plain


class TestOneStackPerStage:
    """A refined scan at fixed alpha forms the chain once along t alone: its
    grid and the fit's readings ride in one stack; with an angle moving, twice:
    for its grid, and for the final engine stack.  The winning column of the
    last stack is `SweepResult.preset`; the fit reads the closed form.  A
    column is bit for bit the point alone."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.5, 1.5), lo=st.floats(0.0, 2.0),
           width=st.floats(0.05, 4.0), count=st.integers(2, 48),
           theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_t_route_reads_the_grid_and_the_fit_in_one_stack(self, expr, kind, pre_evolution,
                                                              alpha, lo, width, count, theta, phi):
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {"theta": theta, "phi": phi} | ({} if kind == "unitary" else {"alpha": alpha})
        _assert_t_route_is_refine_max(SweepConfig(
            expression=expr, kind=kind, grids={"t": GridSpec(lo, lo + width, count)},
            fixed=fixed, pre_evolution=pre_evolution, refine=True))

    def test_t_route_with_a_failing_row(self):
        # 1e-6 from the EP one row fails at context (3,) (the error of the pure
        # start, ROADMAP item 1): the stack is read again without it, and the
        # winner's preset is its column of that stack
        cfg = SweepConfig(expression="V3", kind="pt", grids={"t": GridSpec(0.0, np.pi, 512)},
                          fixed={"alpha": np.pi / 2 - 1e-6, "theta": DEFAULT_THETA,
                                 "phi": DEFAULT_PHI}, refine=True)
        errors = [r.error for r in _assert_t_route_is_refine_max(cfg).rows if r.error]
        assert len(errors) == 1 and errors[0].startswith("context (3,) carries total weight")

    def test_t_route_with_a_failing_row_before_the_winner(self):
        # the first row fails and the last one wins: its preset is column 510 of
        # the stack read again without row 0, bit for bit the point alone
        t0 = GridSpec(0.0, np.pi, 512).values()[341]  # the failing row above
        cfg = SweepConfig(expression="V3", kind="pt", grids={"t": GridSpec(t0, 2 * np.pi, 512)},
                          fixed={"alpha": np.pi / 2 - 1e-6, "theta": DEFAULT_THETA,
                                 "phi": DEFAULT_PHI}, refine=True)
        res = scan(cfg)
        assert [i for i, r in enumerate(res.rows) if r.error] == [0]
        assert res.argmax_params["t"] == 2 * np.pi and res.converged is True
        alone = sweep.build_preset(cfg, res.argmax_params)
        for got, want in zip(res.preset.transfer, alone.transfer):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_every_grid_point_failing_raises_the_scan_error(self):
        # past the EP the fit refuses alpha too, but the scan's own error stands
        cfg = SweepConfig(expression="V1", kind="pt", grids={"t": GridSpec(0.1, 1.0, 8)},
                          fixed={"alpha": 1.6}, refine=True)
        with pytest.raises(DomainError) as info:
            scan(cfg)
        assert str(info.value) == "every grid point failed; nothing to maximize"

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(expr=st.sampled_from(EXPRESSIONS), kind=st.sampled_from(sweep.KINDS),
           pre_evolution=st.booleans(), alpha=st.floats(-1.45, 1.45),
           points=st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, np.pi),
                                     st.floats(0.0, 2 * np.pi)), min_size=1, max_size=6),
           angles_stacked=st.booleans(), data=st.data())
    def test_column_is_the_point_alone(self, expr, kind, pre_evolution, alpha, points,
                                       angles_stacked, data):
        # with t stacked, column i of a stack's chain is point i's own chain, so
        # the classifier reads the same report, field for field
        pre_evolution = pre_evolution or kind == "pt-published"
        fixed = {} if kind == "unitary" else {"alpha": alpha}
        cfg = SweepConfig(expression=expr, kind=kind, fixed=fixed | {"t": 0.0},
                          pre_evolution=pre_evolution)
        if not angles_stacked:
            points = [(t,) + points[0][1:] for t, _, _ in points]
        ts, thetas, phis = map(tuple, zip(*points))
        stack = sweep.build_preset(cfg, fixed | {"t": ts} | (
            {"theta": thetas, "phi": phis} if angles_stacked else
            {"theta": thetas[0], "phi": phis[0]}))
        i = data.draw(st.integers(0, len(points) - 1))
        alone = sweep.build_preset(cfg, fixed | dict(zip(("t", "theta", "phi"), points[i])))
        try:
            want = violation_classifier(alone)
        except DegenerateWeightError:
            assume(False)  # a point where a context weighs nothing
        column = stack.column(i)
        assert column.initial_state == alone.initial_state and column.evolution == alone.evolution
        assert violation_classifier(column) == want


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

    def test_refined_alpha_grid_past_the_exceptional_point(self):
        # the grid's best is at alpha = 1.4, so the alpha probes span [1.2, 1.6]
        # and reach past pi / 2, where the fixed-alpha refinement fails a check:
        # such a probe counts as -inf, and the scan keeps its rows and an argmax
        cfg = SweepConfig(expression="L13", kind="pt", refine=True,
                          grids={"t": GridSpec(0.2, 1.2, 3), "alpha": GridSpec(1.2, 1.6, 3)})
        past = SweepConfig(expression="L13", kind="pt", grids={"t": cfg.grids["t"]},
                           fixed={"alpha": 1.58})
        with pytest.raises(DomainError):
            refine_max(past, {"t": 0.7})
        res = scan(cfg)
        seed = max((r for r in res.rows if r.error is None), key=lambda r: r.value)
        assert seed.params["alpha"] == 1.4
        assert res.argmax_value >= seed.value
        assert res.argmax_params["alpha"] < np.pi / 2
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
        assert cols.tolist() == [[3.0, 8.0], [7.0, 7.0]] and errors == [None, None]

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


def _rows(data: FigureData) -> list[tuple]:
    """The table's rows, block after block."""
    return [tuple(row) for block in data.blocks for row in block.T.tolist()]


class TestFigureData:
    def test_figure1_hermitian_row_matches_closed_form(self):
        data = figure_data(1, t_steps=64, alphas=(0.0,))
        assert data.columns == ("alpha", "t", "L13")
        for _, t, val in _rows(data):
            assert val == pytest.approx(unitary_l13(t), abs=1e-10)

    def test_figure1_bounded_by_algebraic_maximum(self):
        data = figure_data(1, t_steps=128)
        vals = [row[2] for row in _rows(data) if np.isfinite(row[2])]
        assert max(vals) <= 3.0 + 1e-9

    def test_figure3_hermitian_aot_columns_vanish(self):
        data = figure_data(3, t_steps=48, alphas=(0.0,))
        r_cols = [i for i, c in enumerate(data.columns) if c.startswith("R12_3")]
        for row in _rows(data):
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
        assert len(_rows(data)) == len(data.errors) == 32

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
    for row in _rows(data):
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
        assert len(_rows(data)) == 16 * len(DEFAULT_ALPHAS)
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
        assert [np.isnan(row[2]) for row in _rows(data)] == [True, True] + [False] * 4
        assert [e is not None and "duration t must be >= 0" in e for e in data.errors] == (
            [True, True] + [False] * 4)
        ts = np.linspace(-0.3, 1.0, 6)
        (devs,), _ = grid_columns(lambda t: (signaling_deviation(PTParams(0.5, t)),),
                                  {"t": ts.tolist()}, 1)
        assert np.isnan(devs[:2]).all()
        assert devs[2:].tolist() == [signaling_deviation(PTParams(0.5, t)) for t in ts[2:]]

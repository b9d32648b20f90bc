import numpy as np
import pytest

from ptlg.closedform import unitary_l13
from ptlg.errors import DomainError, UsageError
from ptlg.lgexpr import l13
from ptlg.protocol import pt_standard
from ptlg.sweep import FigureData, GridSpec, SweepConfig, figure_data, refine_max, scan


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


class TestRefine:
    def test_never_below_seed(self):
        cfg = unitary_l13_cfg(count=31)
        seed = {"t": 1.2}
        params, value = refine_max(cfg, seed)
        assert value >= l13_from_cfg(cfg, seed) - 1e-15

    def test_variant_optimum(self):
        cfg = SweepConfig(expression="V3", kind="unitary",
                          grids={"t": GridSpec(0.05, 1.5, 64),
                                 "theta": GridSpec(0.05, np.pi, 64)},
                          fixed={"phi": np.pi / 2})
        params, value = refine_max(cfg, {"t": 0.4, "theta": 2.7})
        assert value == pytest.approx(1.93, abs=0.005)
        assert params["t"] == pytest.approx(0.398, abs=0.01)

    def test_constant_objective_returns_seed(self):
        cfg = SweepConfig(expression="L13", kind="unitary", grids={},
                          fixed={"t": 0.6})
        params, value = refine_max(cfg, {"t": 0.6})
        assert params["t"] == 0.6


def l13_from_cfg(cfg, params):
    from ptlg.sweep import evaluate_expression
    return evaluate_expression(cfg, dict(cfg.fixed) | params)


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
        # and the full context for the degree tables
        figure_data(3, t_steps=4, alphas=(0.5,))
        assert len(distribution_calls) == 20

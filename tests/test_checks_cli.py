import csv
import json

import numpy as np
import pytest

from ptlg import checks
from ptlg.checks import run_identity_suite
from ptlg.cli import main
from ptlg.errors import UsageError
from ptlg.matcore import QubitDensity


class TestIdentitySuite:
    def test_default_run_passes(self):
        results = run_identity_suite(sample_size=8)
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_fault_injection_detected(self):
        results = run_identity_suite(sample_size=4, fault=1e-3)
        failed = {r.name for r in results if not r.passed}
        assert "uu-dagger-closed-form" in failed

    def test_zero_sample_size_rejected(self):
        with pytest.raises(UsageError):
            run_identity_suite(sample_size=0)

    def test_untransposed_partner_state_detected(self, monkeypatch):
        # U^dag U has the right diagonal and |off-diagonal|, but conjugated phases
        original = checks.bob_reduced
        monkeypatch.setattr(checks, "bob_reduced", lambda p: QubitDensity(original(p).mat.T))
        results = run_identity_suite(sample_size=4)
        failed = {r.name for r in results if not r.passed}
        assert failed == {"partner-state-closed-form"}


class TestCheckCommand:
    def test_default_exits_zero(self, capsys):
        assert main(["check", "--sample-size", "6"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_fault_exits_one_and_names_check(self, capsys):
        assert main(["check", "--sample-size", "4", "--inject-fault", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert "uu-dagger-closed-form" in out and "FAIL" in out

    def test_bad_sample_size_is_usage_error(self):
        assert main(["check", "--sample-size", "0"]) == 2


class TestFigureCommand:
    def test_figure1_csv(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["figure", "1", "--alpha", "0", "--t-steps", "8193",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        vals = [float(r["L13"]) for r in rows]
        assert abs(max(vals) - 1.5) < 1e-6

    def test_figure3_hermitian_aot_column(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "3", "--alpha", "0", "--t-steps", "32",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key in row:
                if key.startswith("R12_3"):
                    assert abs(float(row[key])) < 1e-12

    def test_json_csv_round_trip(self, tmp_path):
        a, b = tmp_path / "f.csv", tmp_path / "f.json"
        args = ["figure", "1", "--alpha", "0.9", "--t-steps", "16"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--format", "json", "--out", str(b)]) == 0
        with open(a) as fh:
            csv_rows = list(csv.DictReader(fh))
        with open(b) as fh:
            json_rows = json.load(fh)["rows"]
        assert len(csv_rows) == len(json_rows)
        for cr, jr in zip(csv_rows, json_rows):
            for key, val in cr.items():
                assert float(val) == pytest.approx(jr[key], abs=0)

    def test_unwritable_path_is_io_error(self, tmp_path):
        rc = main(["figure", "1", "--t-steps", "4",
                   "--out", str(tmp_path / "missing" / "f.csv")])
        assert rc == 3


class TestOptimizeCommand:
    def test_unitary_standard(self, capsys):
        rc = main(["optimize", "L13", "--kind", "unitary", "--t-steps", "101",
                   "--t-min", "0.01"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(1.5, abs=1e-6)
        # the curve peaks at pi/6 and again at pi - pi/6
        t_star = report["params"]["t"]
        assert min(abs(t_star - np.pi / 6), abs(t_star - 5 * np.pi / 6)) < 1e-4
        assert report["classifier"]["lg_violated"]["L13"] is True
        assert report["converged"] is True

    def test_unitary_variant_quoted_value(self, capsys):
        rc = main(["optimize", "V3", "--kind", "unitary", "--theta", "2.66",
                   "--phi", str(np.pi / 2), "--t-min", "0.05", "--t-max", "1.5",
                   "--t-steps", "101"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(1.93, abs=0.005)

    def test_pt_requires_alpha(self):
        assert main(["optimize", "L13", "--kind", "pt"]) == 2


class TestNosignalCommand:
    def test_grid_values(self, tmp_path):
        out = tmp_path / "ns.csv"
        assert main(["nosignal", "--t-steps", "9", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [(float(r["alpha"]), float(r["t"]), float(r["deviation"]))
                    for r in csv.DictReader(fh)]
        for alpha, t, dev in rows:
            if alpha == 0.0 or abs(np.sin(t)) < 1e-12:
                assert dev < 1e-12
        assert any(dev > 1e-3 for _, _, dev in rows)

    def test_single_point(self, tmp_path):
        out = tmp_path / "ns1.csv"
        assert main(["nosignal", "--alpha", str(np.pi / 3), "--t-min", "0.7",
                     "--t-max", "0.7", "--t-steps", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["deviation"]) > 1e-3

    @pytest.mark.parametrize("option", [["--theta", "1"], ["--phi", "1"],
                                        ["--pre-evolution", "off"]])
    def test_state_options_rejected(self, tmp_path, option):
        # the partner state depends on alpha and t only
        out = tmp_path / "ns.csv"
        assert main(["nosignal", "--t-steps", "4", "--out", str(out)] + option) == 2
        assert not out.exists()

    def test_state_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1}))
        out = tmp_path / "ns.csv"
        assert main(["nosignal", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_figure_and_optimize_keep_state_options(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "2", "--theta", "1", "--t-steps", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            assert {float(r["theta"]) for r in csv.DictReader(fh)} == {1.0}
        capsys.readouterr()
        assert main(["optimize", "V3", "--alpha", "1.2", "--t-steps", "8", "--phi", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["phi"] == 1.0


class TestConfigFile:
    def test_config_applies_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_steps": 4, "alpha": 0.0}))
        out = tmp_path / "f.csv"
        assert main(["figure", "1", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        out2 = tmp_path / "g.csv"
        assert main(["figure", "1", "--config", str(cfg), "--t-steps", "6",
                     "--out", str(out2)]) == 0
        with open(out2) as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tsteps": 4}))
        assert main(["figure", "1", "--config", str(cfg)]) == 2

    def test_missing_config_is_io_error(self):
        assert main(["figure", "1", "--config", "/nonexistent/cfg.json"]) == 3

    def test_string_value_parsed_like_its_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_steps": "64", "alpha": 0.0}))
        out = tmp_path / "f.csv"
        assert main(["figure", "1", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 64

    def test_positional_key_rejected(self, tmp_path):
        cfg = tmp_path / "cmd.json"
        cfg.write_text(json.dumps({"command": "check"}))
        assert main(["figure", "1", "--config", str(cfg)]) == 2

    def test_bad_choice_rejected(self, tmp_path):
        cfg = tmp_path / "fmt.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        out = tmp_path / "f.out"
        assert main(["figure", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


class TestUsageEdges:
    def test_zero_t_steps_rejected(self, tmp_path):
        assert main(["figure", "1", "--t-steps", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["nosignal", "--t-steps", "-3",
                     "--out", str(tmp_path / "y.csv")]) == 2

    def test_unknown_command_rejected(self):
        assert main(["frobnicate"]) == 2


class TestDomainFailures:
    def test_alpha_past_exceptional_point_exits_one(self, capsys):
        assert main(["optimize", "L13", "--alpha", "1.6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_nan_grid_bound_exits_one(self, capsys):
        assert main(["optimize", "L13", "--alpha", "0.5", "--t-max", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["optimize", "L13", "--alpha", "0.5", "--t-min", "-0.5",
                                       "--t-steps", "8"],
                                      ["optimize", "L13", "--kind", "unitary", "--t-min", "-0.5",
                                       "--t-steps", "8"]])
    def test_optimize_window_outside_domain_exits_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["figure", "2", "--alpha", "2"],
                                      ["figure", "1", "--t-max", "nan"],
                                      ["nosignal", "--t-min", "-0.5"]])
    def test_table_outside_domain_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

import csv
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptlg
from ptlg import checks, closedform, matcore, nosignal, protocol, ptdyn
from ptlg.checks import run_identity_suite
from ptlg.cli import _write_table, main
from ptlg.errors import UsageError
from ptlg.protocol import PT_STANDARD
from ptlg.sweep import DEFAULT_PHI, DEFAULT_THETA, KINDS, GridSpec, SweepConfig, figure_data, scan


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

    def test_vanishing_signaling_fails_its_one_check(self, monkeypatch):
        # a partner state at I/2 for every alpha reads as no signaling where there
        # must be some: the check reads 1.0, and no other check moves
        original = checks.mixed_distance
        monkeypatch.setattr(checks, "mixed_distance", lambda rho: np.zeros_like(original(rho)))
        results = {r.name: r for r in run_identity_suite(sample_size=8)}
        assert {n for n, r in results.items() if not r.passed} == {"signaling-iff-trivial"}
        assert results["signaling-iff-trivial"].residual == 1.0

    def test_untransposed_partner_state_detected(self, monkeypatch):
        # U^dag U has the right diagonal and |off-diagonal|, but conjugated phases; the
        # suite reads the partner state off the PT-standard table's start
        original = protocol.initial_state_at_t1

        def untransposed(preset):
            rho = original(preset)
            return rho.swapaxes(-1, -2) if preset.label == PT_STANDARD else rho

        monkeypatch.setattr(protocol, "initial_state_at_t1", untransposed)
        results = run_identity_suite(sample_size=4)
        failed = {r.name for r in results if not r.passed}
        assert failed == {"partner-state-closed-form"}


# the residuals' float.hex at sample sizes 1, 13 and 64, recorded from a suite that formed
# every chain and propagator afresh for each check and each outcome tuple (sharing them must
# not move a bit), then re-recorded when the tables came to be built from the closed form
# U~ = D R(t) D^-1: the table checks moved by an ulp or two, the rest kept their bits
RECORDED_RESIDUALS = {
    1: ("0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.6a09e667f3bcdp-53",
        "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.8000000000000p-52",
        "0x1.8000000000000p-53", "0x1.0000000000000p-53", "0x1.0000000000000p-53",
        "0x1.0000000000000p-52", "0x1.0000000000000p-51", "0x0.0p+0", "0x1.0000000000000p-52"),
    13: ("0x1.0000000000000p-51", "0x1.0000000000000p-49", "0x1.07e0f66afed07p-51",
         "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.4000000000000p-51",
         "0x1.4000000000000p-51", "0x1.0000000000000p-52", "0x1.8000000000000p-53",
         "0x1.0000000000000p-52", "0x1.0000000000000p-51", "0x1.2000000000000p-51",
         "0x1.0000000000000p-52"),
    64: ("0x1.4000000000000p-49", "0x1.0000000000000p-49", "0x1.01fe03f61bad0p-50",
         "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-50",
         "0x1.9c00000000000p-51", "0x1.8000000000000p-52", "0x1.0000000000000p-52",
         "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-51",
         "0x1.0000000000000p-51"),
}
# with a 1e-3 fault only the uu-dagger residual moves; the pair forms add one residual
RECORDED_FAULT = {1: "0x1.93afa94ab4400p-9", 13: "0x1.23177911ba000p-8",
                  64: "0x1.3912696f8d800p-8"}
RECORDED_PAIR = {1: "0x1.60a6f865cbdf5p+6", 13: "0x1.39f8a7cc9eaecp+9",
                 64: "0x1.17a65a13b7679p+11"}
CHECK_NAMES = ("propagator-composition", "uu-dagger-closed-form", "eigensystem-reconstruction",
               "three-time-beta-identity", "three-time-delta-identity", "decomposition-standard",
               "decomposition-variant", "unitary-aot-exact", "partner-state-closed-form",
               "signaling-iff-trivial", "unitary-standard-closed-form",
               "unitary-variant-closed-form", "probability-sanity")


class TestSuiteFormsEachQuantityOnce:
    @pytest.mark.parametrize("n", sorted(RECORDED_RESIDUALS))
    @pytest.mark.parametrize("form", ("plain", "fault", "pair"))
    def test_residuals_are_the_recorded_bits(self, n, form):
        want = list(zip(CHECK_NAMES, RECORDED_RESIDUALS[n]))
        if form == "fault":
            want[1] = (want[1][0], RECORDED_FAULT[n])
        if form == "pair":
            want.append(("pair-closed-forms", RECORDED_PAIR[n]))
        results = run_identity_suite(n, fault=1e-3 if form == "fault" else 0.0,
                                     include_pair_forms=form == "pair")
        assert [(r.name, float(r.residual).hex()) for r in results] == want

    @pytest.mark.parametrize("pair_forms,starts,chains,propagators",
                             [(False, 5, 0, 1), (True, 5, 1, 2)])
    def test_chain_and_propagator_budget(self, monkeypatch, pair_forms, starts, chains,
                                         propagators):
        # stack by stack: one propagator stack of 6 n points holds the composition check's
        # U(t/2), U(t/3) and U(t/2 + t/3), U(t) of the sample and the two signaling grids;
        # both PT families keep that stack's U(t) slice as their `u`, which serves the
        # U U^dagger and eigensystem checks and both PT starts (one start each),
        # and the unitary families' starts are their bare states (4 starts); the four
        # families' transfer tables are one `chain_tables` call, so no chain of complex legs
        # is formed but the oracle's, whose outcome tuples all read it and which adds U(2 t)
        # alone (a second propagator); the signaling grids' slice is one start (the 5th)
        calls, chain, propagator, start = [], protocol._chain, ptdyn.propagator, protocol._start
        tables = protocol.chain_tables

        def counting(p):
            calls.append("propagator")
            return propagator(p)

        def starting(*args):
            calls.append("start")
            return start(*args)

        monkeypatch.setattr(protocol, "_chain", lambda preset: calls.append("chain")
                            or chain(preset))
        monkeypatch.setattr(protocol, "chain_tables", lambda *args: calls.append("tables")
                            or tables(*args))
        for module in (ptdyn, protocol, nosignal, checks, ptlg):
            monkeypatch.setattr(module, "propagator", counting)
        for module in (protocol, nosignal, checks):
            monkeypatch.setattr(module, "_start", starting)
        run_identity_suite(13, include_pair_forms=pair_forms)
        assert tuple(map(calls.count, ("start", "chain", "propagator", "tables"))) == (
            starts, chains, propagators, 1)

    @pytest.mark.parametrize("n", (1, 13, 64))
    def test_stack_slices_are_each_propagator_alone(self, monkeypatch, n):
        # both PT starts read the suite's U(t) slice, and the signaling start is that of the
        # grids' slice: each the propagator or `bob_reduced` of its parameters alone, bit for bit
        seen, start = [], protocol._start

        def recording(state, u=None):
            seen.append((u, start(state, u)))
            return seen[-1][1]

        for module in (protocol, checks):
            monkeypatch.setattr(module, "_start", recording)
        run_identity_suite(n)
        alphas, ts = checks._sample(n, 2 * np.pi / 5)
        (pt, _), (variant, _), (_, signaling) = [(u, rho) for u, rho in seen if u is not None]
        alone = ptdyn.propagator(ptdyn.PTParams(alphas, ts))
        assert pt.tobytes() == variant.tobytes() == alone.tobytes()
        grids = [nosignal.bob_reduced(ptdyn.PTParams(np.zeros(n), np.abs(ts))),
                 nosignal.bob_reduced(ptdyn.PTParams(alphas, np.full(n, np.pi)))]
        assert signaling.tobytes() == np.concatenate(grids).tobytes()

    def test_pair_op_walks_each_context_once(self, monkeypatch):
        # one pair op: the oracle walks each of the 3 pair contexts' branch trees once, with no
        # walk per outcome tuple, and each published numerator and normalization is evaluated
        # once per pair
        calls = []

        def counting(name, f):
            return lambda *args: calls.append(name) or f(*args)

        names = {"unnormalized_rows": (protocol, checks, ptlg),
                 "unnormalized_chain": (protocol, checks, ptlg),
                 "pair_normalization_reference": (closedform, checks),
                 "pair_numerator_reference": (closedform, checks)}
        for name, modules in names.items():
            f = counting(name, getattr(modules[0], name))
            for module in modules:
                monkeypatch.setattr(module, name, f, raising=False)
        run_identity_suite(13, include_pair_forms=True)
        assert tuple(map(calls.count, names)) == (3, 0, 3, 3)


class TestNaNResidualsFail:
    """A NaN anywhere in a check's inputs reads as a NaN residual, which fails the check."""

    def test_nan_weights_fail_probability_sanity(self, monkeypatch):
        # NaN weights at the stack's first point reach every table check, probability-sanity's
        # included: Python's max would keep its first argument and drop the NaN
        tables = protocol.chain_tables

        def nan_first_point(*args):
            w, t = tables(*args)
            return np.where(np.arange(w.shape[-1]) == 0, np.nan, w), t

        monkeypatch.setattr(protocol, "chain_tables", nan_first_point)
        results = run_identity_suite(4)
        nan = {r.name for r in results if np.isnan(r.residual)}
        assert {r.name for r in results if not r.passed} == nan == {
            "three-time-beta-identity", "three-time-delta-identity", "decomposition-standard",
            "decomposition-variant", "probability-sanity"}

    def test_nan_normalization_fails_pair_forms(self, monkeypatch):
        norm = checks.pair_normalization_reference
        monkeypatch.setattr(checks, "pair_normalization_reference", lambda alpha, t, pair: np.where(
            np.arange(len(t)) == 1, np.nan, norm(alpha, t, pair)))
        result = run_identity_suite(4, include_pair_forms=True)[-1]
        assert result.name == "pair-closed-forms" and np.isnan(result.residual)
        assert not result.passed


class TestCheckCommand:
    def test_default_exits_zero(self, capsys):
        assert main(["check", "--sample-size", "6"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_fault_exits_one_and_names_check(self, capsys):
        assert main(["check", "--sample-size", "4", "--inject-fault", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert "uu-dagger-closed-form" in out and "FAIL" in out

    @pytest.mark.parametrize("fault", ("inf", "-inf", "1e200", "nan"))
    def test_non_finite_product_fails_the_one_check(self, capsys, fault):
        # an infinite fault, or one whose square overflows, reads as a failing residual
        # of the U U^dagger check alone, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--sample-size", "4", "--inject-fault", fault]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAILED")] == [
            "FAILED: uu-dagger-closed-form"]

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

    def test_wrote_line_counts_failed_rows(self, tmp_path, capsys):
        # 3e-8 from the EP the state (i|1> + |0>) / sqrt 2, the EP's eigenvector, keeps
        # a weight of about 1.9e-16 (40 digits) through U(pi/2), below WEIGHT_FLOOR: that
        # row fails by the model, and the line gives the count and the first reason; the
        # file is the value-by-value table, its failed row NaN after (alpha, t)
        out = tmp_path / "f.csv"
        angles = {"theta": np.pi / 4, "phi": np.pi / 2}
        argv = ["figure", "2", "--alpha", "1.5707963", "--theta", repr(angles["theta"]),
                "--phi", repr(angles["phi"]), "--t-steps", "9", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"wrote {out} (9 rows; 1 failed, the first: pre-evolution weight 2.828e-16 "
            "cannot be renormalized)\n")
        data = figure_data(2, t_steps=9, alphas=(1.5707963,), **angles)
        _reference_table(tmp_path / "want", data.columns, data.blocks[0].T.tolist(), "csv",
                         {}, {})
        assert out.read_bytes() == (tmp_path / "want").read_bytes()
        assert out.read_text().splitlines()[5] == (
            "1.5707963,1.57079632679,nan,0.785398163397,1.57079632679")
        for argv in (["figure", "2", "--t-steps", "8"], ["nosignal", "--t-steps", "8"]):
            assert main(argv + ["--format", "json", "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"wrote {out} (32 rows)\n"

    def test_unwritable_path_is_io_error(self, tmp_path):
        rc = main(["figure", "1", "--t-steps", "4",
                   "--out", str(tmp_path / "missing" / "f.csv")])
        assert rc == 3


def _reference_table(path, columns, rows, fmt, config, summary):
    """The table as formatted value by value: f"{v:.12g}" in CSV, and
    json.dump(indent=1) over float(f"{v:.12g}") in JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        else:
            payload = {
                "config": config,
                "rows": [dict(zip(columns, (float(f"{v:.12g}") for v in row))) for row in rows],
                "summary": summary,
            }
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def _assert_same_bytes(columns, blocks, fmt, config, summary, tmp: Path):
    """The writer's bytes for the (len(columns), N) `blocks` against the value-by-value
    reference over their rows, block after block."""
    rows = [row for block in blocks for row in np.asarray(block).T.tolist()]
    _write_table(str(tmp / "got"), columns, blocks, fmt, config, summary)
    _reference_table(tmp / "want", columns, rows, fmt, config, summary)
    assert (tmp / "got").read_bytes() == (tmp / "want").read_bytes()


def _block(*columns) -> np.ndarray:
    return np.array(columns, dtype=float)


# NaN, +-inf, +-0.0 and subnormals come from st.floats(); [1e12, 1e16) is where
# 12 digits print in exponent form but the shortest repr does not
_VALUES = st.one_of(st.floats(), st.floats(1e12, 1e16, exclude_max=True),
                    st.floats(-1e16, -1e12, exclude_min=True),
                    st.floats(-1e-300, 1e-300))
# every kind of value whose 12-digit text is not its JSON text, and some that are
_TOKENS = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -1e-310,
           2.2250738585072014e-308, 3.0, -2.0, 1e10, 123456789012.0, 999999999999.9,
           1e12, -3.5e15, 1e16, 1.5, 1e-5, 0.99999999999996, -2.5e-7)


@pytest.mark.parametrize("fmt", ("csv", "json"))
class TestTableWriter:
    def test_figure_table_with_nan_rows(self, fmt, tmp_path):
        data = figure_data(3, alphas=(2 * np.pi / 5,), t_min=-0.005)
        assert np.isnan(data.blocks[0][2]).any()
        config = {"figure": 3, "alphas": [2 * np.pi / 5], "t_min": -0.005, "t_max": np.pi,
                  "t_steps": 512, "pre_evolution": "on"}
        summary = {"rows": 512, "max_value": 1.25}
        _assert_same_bytes(data.columns, data.blocks, fmt, config, summary, tmp_path)

    def test_empty_rows(self, fmt, tmp_path):
        _assert_same_bytes(("alpha", "t", "L13"), [], fmt, {"figure": 1},
                           {"rows": 0, "max_value": float("nan")}, tmp_path)

    def test_one_row(self, fmt, tmp_path):
        # every column of a one-row block is constant: the row has no `%` value
        _assert_same_bytes(("alpha", "t", "L13"), [_block([0.5], [-0.0], [float("nan")])], fmt,
                           {"figure": 1}, {"rows": 1}, tmp_path)

    def test_config_with_lists_strings_and_bools(self, fmt, tmp_path):
        config = {"alphas": [0.0, 1.2, -0.5], "label": 'say "rows": [] \u00e9',
                  "flags": [True, False], "nested": {"rows": [], "x": None}, "on": True}
        block = _block([0.5, 1e-5], [1.0, 3.0], [-2.5e-7, float("inf")])
        _assert_same_bytes(("a", "b", "c"), [block], fmt, config, {"rows": 2}, tmp_path)

    def test_zero_and_negative_zero_in_one_column(self, fmt, tmp_path):
        # 0.0 == -0.0, but they print as 0 and -0: the column is not constant
        block = _block([0.0, -0.0, 0.0], [0.1, 0.2, 0.3], [-0.0, -0.0, 0.0])
        _assert_same_bytes(("alpha", "t", "x"), [block], fmt, {}, {"rows": 3}, tmp_path)

    def test_constant_columns_of_special_values(self, fmt, tmp_path):
        specials = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e12)
        block = _block([0.1, 0.2, 0.3], *([v] * 3 for v in specials))
        columns = ("t", "nan", "inf", "minus_inf", "minus_zero", "subnormal", "big")
        _assert_same_bytes(columns, [block], fmt, {}, {"rows": 3}, tmp_path)

    def test_tokens_that_are_not_their_json_text(self, fmt, tmp_path):
        n = len(_TOKENS)
        block = _block(_TOKENS, [1.25] * n, _TOKENS[::-1])
        _assert_same_bytes(("x", "c", "y"), [block], fmt, {}, {"rows": n}, tmp_path)

    def test_two_blocks_whose_alpha_changes(self, fmt, tmp_path):
        blocks = [_block([0.5] * 3, [0.0, 1.0, 2.0], [1.5, -0.25, 3.0]),
                  _block([1.0] * 2, [0.0, 1.0], [2.0, float("nan")])]
        _assert_same_bytes(("alpha", "t", "L13"), blocks, fmt, {"alphas": [0.5, 1.0]},
                           {"rows": 5}, tmp_path)

    @settings(derandomize=True, deadline=None)
    @given(blocks=st.lists(st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1,
                                    max_size=6), max_size=3))
    def test_any_float(self, fmt, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_same_bytes(("x", "y", "z"), [_block(*zip(*rows)) for rows in blocks], fmt,
                               {"k": [1.5]}, {"rows": sum(map(len, blocks))}, Path(tmp))

    @settings(derandomize=True, deadline=None)
    @given(blocks=st.lists(st.tuples(_VALUES, st.lists(st.tuples(_VALUES, _VALUES), min_size=1,
                                                       max_size=6)), min_size=1, max_size=3))
    def test_constant_column(self, fmt, blocks):
        # a figure's alpha column: one value over each block, another in the next
        with tempfile.TemporaryDirectory() as tmp:
            _assert_same_bytes(("alpha", "t", "v"),
                               [_block([c] * len(rows), *zip(*rows)) for c, rows in blocks], fmt,
                               {}, {"rows": sum(len(rows) for _, rows in blocks)}, Path(tmp))


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

    def test_published_requires_alpha(self):
        assert main(["optimize", "V3", "--kind", "pt-published"]) == 2

    def test_csv_format_refused(self, tmp_path, capsys):
        # optimize prints one JSON report: --format csv is a usage error that
        # writes nothing, and --format json stays accepted
        out = tmp_path / "o.csv"
        argv = ["optimize", "L13", "--alpha", "0.5", "--t-steps", "8", "--out", str(out)]
        assert main(argv + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_one_t_step_is_a_usage_error(self, capsys):
        assert main(["optimize", "V1", "--alpha", "0.5", "--t-steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: --t-steps must be >= 2 for optimization\n"
        assert captured.out == ""

    def test_out_in_a_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["optimize", "L13", "--alpha", "0.5", "--t-steps", "8",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"io error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not out.parent.exists()

    @pytest.mark.parametrize("alpha", ("1.2", "2.0"))
    def test_unitary_refuses_alpha(self, capsys, alpha):
        # the unitary kind evolves at alpha = 0, so an --alpha would be dropped
        assert main(["optimize", "V3", "--kind", "unitary", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_sequential_smoke_reaches_window_maximum(self, capsys):
        # the grid's best point seeds a local maximum at t = 0.372 (-0.741935);
        # the window's maximum is 0.290526 at t = 1.05236, and a 20,001-point
        # engine grid reads 0.290519 at t = 1.05232
        argv = ["optimize", "V3", "--kind", "pt", "--alpha", "1.45",
                "--t-min", "0.3", "--t-max", "1.9", "--t-steps", "32"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] >= 0.290519
        assert report["params"]["t"] == pytest.approx(1.05236, abs=1e-3)
        assert report["converged"] is True

    def test_published_equals_scan_of_published_chain(self, capsys):
        argv = ["optimize", "V3", "--kind", "pt-published", "--alpha", "1.45",
                "--t-min", "0.3", "--t-max", "1.9", "--t-steps", "32"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        res = scan(SweepConfig(expression="V3", kind="pt-published",
                               grids={"t": GridSpec(0.3, 1.9, 32)},
                               fixed={"alpha": 1.45, "theta": DEFAULT_THETA, "phi": DEFAULT_PHI},
                               refine=True))
        assert report["kind"] == "pt-published"
        assert report["value"] == float(f"{res.argmax_value:.12g}")
        assert report["params"]["t"] == float(f"{res.argmax_params['t']:.12g}")
        assert report["converged"] is res.converged
        # the published chain reaches far above the sequential one here
        assert report["value"] > 2.9


    @pytest.mark.parametrize("kind", ("pt", "pt-published", "unitary"))
    def test_t_only_op_forms_the_chain_once(self, capsys, monkeypatch, kind):
        # the grid and the engine's readings of the fit's maxima ride in one
        # stack, whose winning column the classifier reads; the fit needs no
        # chain.  Each `transfer` forms one start, and its legs in closed form,
        # so the starts count the chains
        chains, start = [], protocol._start
        monkeypatch.setattr(protocol, "_start", lambda *args: chains.append(1) or start(*args))
        alpha = [] if kind == "unitary" else ["--alpha", "1.45"]
        assert main(["optimize", "V3", "--kind", kind, *alpha, "--t-min", "0.3", "--t-max", "1.9",
                     "--t-steps", "32"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(chains) == 1
        assert report["converged"] is True
        assert report["classifier"]["lg_values"]["V3"] == report["value"]

    def test_failed_reading_keeps_the_winner_column(self, capsys, monkeypatch):
        # 1e-6 from the EP one grid row fails (context (3,)): the stack is read again
        # without it, 3 starts in all, and the winner's preset is its column of that
        # last stack (its index less the failures before it), not a fourth start
        starts, start = [], protocol._start
        monkeypatch.setattr(protocol, "_start", lambda *args: starts.append(1) or start(*args))
        assert main(["optimize", "V3", "--kind", "pt", "--alpha", "1.5707953267948966",
                     "--t-min", "0", "--t-max", "3.141592653589793", "--t-steps", "512"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(starts) == 3
        assert report["value"] == 1.0
        assert report["classifier"]["lg_values"]["V3"] == report["value"]

    def test_unsettled_winner_prints_its_recorded_output(self, capsys):
        # the published dip: the winner comes from the engine's own search about
        # an unsettled maximum, so its preset is built afresh; the bytes were
        # recorded with the closed-form fit, whose last bits set where that
        # search starts
        assert main(["optimize", "V2", "--kind", "pt-published", "--t-min", "0.05", "--t-max",
                     "1.65", "--t-steps", "20", "--alpha", "-1.506937014647157", "--theta",
                     "1.4866141201638425", "--phi", "1.3604874374011873"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "expression": "V2", "kind": "pt-published",
            "params": {"alpha": -1.50693701465, "phi": 1.3604874374, "t": 1.57024791654,
                       "theta": 1.48661412016},
            "value": 2.99538199702, "converged": False,
            "classifier": {
                "lg_violated": {"L13": False, "V1": False, "V2": True, "V3": False},
                "nsit_violated": True, "aot_violated": True,
                "lg_values": {"L13": -2.99529354812, "V1": -0.127253475423, "V2": 2.99538199702,
                              "V3": -0.0894804323282},
                "max_nsit_degree": 0.997944005588, "max_aot_degree": 0.997940039968}},
            indent=1) + "\n"

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


class TestEngineValidatesNoDerivedState:
    def test_no_command_builds_a_qubit_density(self, tmp_path, capsys, monkeypatch):
        # starts, partner states and branch states are plain arrays: the density checks run on
        # no value that the engine derives, in any command
        calls, original = [], matcore.QubitDensity.__post_init__
        monkeypatch.setattr(matcore.QubitDensity, "__post_init__",
                            lambda rho: calls.append(rho) or original(rho))
        out = ["--out", str(tmp_path / "out")]
        runs = [(["check", "--sample-size", "4"], 0),
                (["check", "--sample-size", "4", "--pair-closed-forms"], 1),
                (["check", "--sample-size", "4", "--inject-fault", "1e-3"], 1),
                *((["optimize", "V3", "--kind", kind, "--t-steps", "8", *out]
                   + ([] if kind == "unitary" else ["--alpha", "1.45"]), 0) for kind in KINDS),
                *((["figure", n, "--t-steps", "16", *out], 0) for n in "1234"),
                (["nosignal", "--t-steps", "16", *out], 0)]
        assert [main(args) for args, _ in runs] == [code for _, code in runs]
        assert calls == []
        matcore.QubitDensity(matcore.I2 / 2)  # the counter sees a construction
        assert len(calls) == 1


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

    @pytest.mark.parametrize("text,message", [
        ("{bad", "is not valid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)"),
        ("[4]", "config file must hold a JSON object"),
        ('{"pair_closed_forms": "yes"}', "config key 'pair_closed_forms' takes true or false, "
                                         "got 'yes'"),
        ('{"sample_size": [4]}', "config key 'sample_size' takes a string or a number, got [4]"),
    ])
    def test_malformed_config_is_one_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        want = f"config {cfg} {message}" if message.startswith("is not") else message
        assert captured.err == f"usage error: {want}\n" and captured.out == ""

    def test_config_flag_turns_the_pair_forms_on(self, tmp_path, capsys):
        # the published pair forms do not match the sequential chain's table (a known defect)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair_closed_forms": True}))
        assert main(["check", "--sample-size", "4", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if line.startswith("FAILED")] == [
            "FAILED: pair-closed-forms"]
        assert captured.err == ""

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

    @pytest.mark.parametrize("command", [["figure", "1"], ["figure", "4"], ["nosignal"]])
    def test_reversed_t_window_rejected(self, tmp_path, capsys, command):
        # as optimize refuses it: no table with t descending
        out = tmp_path / "table.csv"
        assert main(command + ["--t-min", "2", "--t-max", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: grid bounds reversed: [2.0, 1.0]\n"
        assert not out.exists()

    def test_unknown_command_rejected(self):
        assert main(["frobnicate"]) == 2

    def test_exponent_number_is_a_value(self, tmp_path):
        # argparse alone reads -1e-3 as an option; it is the alpha -0.001
        outs = [tmp_path / "exponent.csv", tmp_path / "decimal.csv"]
        for alpha, out in zip(("-1e-3", "-0.001"), outs):
            assert main(["figure", "1", "--alpha", alpha, "--t-steps", "4",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_negative_infinity_reaches_the_angle_check(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["figure", "4", "--phi", "-inf", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


class TestDomainFailures:
    def test_alpha_past_exceptional_point_exits_one(self, capsys):
        assert main(["optimize", "L13", "--alpha", "1.6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_nan_grid_bound_exits_one(self, capsys):
        for argv in (["optimize", "L13", "--alpha", "0.5", "--t-max", "nan"],
                     ["optimize", "V1", "--alpha", "0.5", "--phi", "inf", "--t-steps", "8"],
                     ["optimize", "V3", "--kind", "unitary", "--theta", "nan"]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
            assert captured.out == ""

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
                                      ["nosignal", "--t-min", "-0.5"],
                                      ["figure", "2", "--alpha", "0.5", "--theta", "nan"],
                                      ["figure", "4", "--phi=-inf"]])
    def test_table_outside_domain_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

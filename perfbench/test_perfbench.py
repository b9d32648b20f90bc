"""Self-tests of the benchmark itself (not of ptlg).

    python3 -m pytest -q perfbench

They show that the verifier catches wrong outputs, that inputs and counters
follow the seed exactly, and that the tracer's self times account for each
op's wall time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import ptlg  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ptlg import nosignal, protocol, ptdyn  # noqa: E402
from tracer import OP_SPAN, Tracer, summarize  # noqa: E402

EXACT = ("protocol.distribution.calls", "protocol.distribution.calls_per_point",
         "protocol.distribution.distinct_ratio", "protocol.initial_state.calls",
         "protocol.oracle.calls", "matcore.projector.calls", "matcore.density.calls",
         "ptdyn.propagator.calls", "macrodiag.degree_report.calls", "sweep.scan.points",
         "sweep.refine.calls", "sweep.refine.evals_per_refine", "cli.write.bytes")


def small_pass(workload: str, seed: int, out_dir, index: int = 0):
    """Pass `index` of a workload, with figure grids cut to 24 t-steps."""
    rng = workloads.pass_rng(workload, seed, index)
    if workload == "figures":
        return workloads.figures_pass(rng, str(out_dir), t_steps=24)
    return workloads.build_pass(workload, rng, str(out_dir))


def one_op(tmp_path, kind: str, **inputs):
    ops = small_pass("optimize" if kind in ("optimize", "scan") else "figures", 3, tmp_path)
    return next(op for op in ops if op.kind == kind
                and all(op.inputs.get(k) == v for k, v in inputs.items()))


def traced(ops):
    tr = Tracer()
    tr.install()
    try:
        records = [run.run_one(op, i, tr) for i, op in enumerate(ops)]
    finally:
        tr.uninstall()
    return tr, records


def test_oracle_matches_unnormalized_chain():
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, t = rng.uniform(-1.53, 1.53), rng.uniform(0.0, math.pi)
        th, ph = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        pairs = ((protocol.pt_standard(a, t), oracle.Point(True, t, a)),
                 (protocol.pt_variant(a, t, th, ph), oracle.Point(False, t, a, th, ph)))
        for preset, point in pairs:
            for times in oracle.CONTEXTS:
                ctx = protocol.MeasurementContext(preset=preset, measured_times=times)
                for oc in product((+1, -1), repeat=len(times)):
                    ref = protocol.unnormalized_chain(ctx, oc)
                    assert abs(point.chain(times, oc) - ref) <= oracle.tolerance(a) * max(1, ref)
        dev = nosignal.signaling_deviation(ptdyn.PTParams(a, t))
        assert abs(oracle.partner_deviation(a, t) - dev) <= oracle.tolerance(a)


def _perturb(path: str, row: int, column: str, delta: float) -> None:
    columns, rows = workloads.read_table(path)
    rows[row][columns.index(column)] += delta
    if path.endswith(".csv"):
        text = ",".join(columns) + "\n" + "".join(",".join(repr(v) for v in r) + "\n"
                                                  for r in rows)
        Path(path).write_text(text, encoding="utf-8")
    else:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        payload["rows"] = [dict(zip(columns, r)) for r in rows]
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("figure,column", [(1, "L13"), (2, "V3"), (3, "L13"), (3, "D123_pp"),
                                           (4, "V1"), (4, "R1_23_m")])
def test_verifier_flags_perturbed_row(tmp_path, figure, column):
    """A wrong value in any one row fails the op, the last row included."""
    op = one_op(tmp_path, "figure", figure=figure, alpha=workloads.REF_ALPHAS[1])
    result = workloads.run_op(op)
    workloads.verify(op, result)
    _perturb(op.out, op.points - 1, column, 1e-6)
    with pytest.raises(workloads.VerifyError):
        workloads.verify(op, result)


@pytest.mark.parametrize("kind,inputs", [
    ("figure", {"figure": 1, "alpha": workloads.REF_ALPHAS[1]}),
    ("figure", {"figure": 4, "alpha": workloads.REF_ALPHAS[3]}),
    ("nosignal", {"alpha": workloads.REF_ALPHAS[2]}),
    ("optimize", {"expression": "V3", "alpha": workloads.REF_ALPHAS[1]}),
    ("scan", {"expression": "V1"}),
])
def test_verifier_flags_perturbed_propagator(tmp_path, monkeypatch, kind, inputs):
    """The same perturbation `check --inject-fault 1e-3` applies, on every binding."""
    op = one_op(tmp_path, kind, **inputs)
    original = ptdyn.propagator

    def faulty(p):
        return original(p) + 1e-3 * np.array([[1.0, 0.0], [0.0, 0.0]])

    for mod in (ptdyn, protocol, nosignal, ptlg):
        monkeypatch.setattr(mod, "propagator", faulty)
    with pytest.raises(workloads.VerifyError):
        workloads.verify(op, workloads.run_op(op))


def test_verifier_flags_wrong_exit_code_and_failing_checks(tmp_path):
    ops = small_pass("check", 3, tmp_path)
    plain = next(op for op in ops if op.inputs["form"] == "plain")
    fault = next(op for op in ops if op.inputs["form"] == "fault")
    with pytest.raises(workloads.VerifyError):
        workloads.verify(plain, (1, ""))
    line = "uu-dagger-closed-form            residual=1.0e+00 tol=1e-10 FAIL\n"
    workloads.verify(fault, (1, line))
    with pytest.raises(workloads.VerifyError):
        workloads.verify(fault, (1, line + line.replace("uu-dagger", "eigensystem")))


def test_same_seed_gives_same_inputs_and_other_seeds_differ(tmp_path):
    for workload in workloads.WORKLOADS:
        first = small_pass(workload, 7, tmp_path)
        assert first == small_pass(workload, 7, tmp_path)
        assert first != small_pass(workload, 8, tmp_path)
        assert first != small_pass(workload, 7, tmp_path, index=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly(tmp_path, workload):
    metrics = []
    for _ in range(2):
        tr, records = traced(small_pass(workload, 11, tmp_path))
        assert all(r["error"] is None for r in records), records
        metrics.append(run.per_layer(tr, records, records))
    for name in EXACT:
        assert metrics[0][name] == metrics[1][name], name
    assert metrics[0]["protocol.distribution.calls"][0] > 0


def test_self_times_add_up_to_op_wall_time(tmp_path):
    tr, records = traced(small_pass("figures", 5, tmp_path)[:6])
    spans = tr.spans()
    ops = spans[spans[:, 1] == tr.names.index(OP_SPAN)]
    op_ns = int(np.sum(ops[:, 5] - ops[:, 4]))
    assert sum(summarize(tr)["layers"].values()) == pytest.approx(op_ns, rel=1e-9)
    assert op_ns / 1e9 == pytest.approx(sum(r["seconds"] for r in records), rel=0.05)
    assert set(np.unique(spans[:, 3])) == set(range(len(records)))


def test_tracer_restores_every_binding():
    before = {(m, k): v for m in (protocol, ptdyn, ptlg) for k, v in vars(m).items()}
    post_init = ptlg.matcore.QubitDensity.__post_init__
    tr = Tracer()
    tr.install()
    assert protocol.distribution is not before[(protocol, "distribution")]
    assert ptlg.lgexpr.distribution is protocol.distribution
    tr.uninstall()
    assert all(vars(m)[k] is v for (m, k), v in before.items())
    assert ptlg.matcore.QubitDensity.__post_init__ is post_init


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The three workloads: how each pass of ops is drawn from the seed, how an op
runs, and how its output is verified against the scalar oracle.

A pass is a fixed list of ops whose inputs come from one seeded generator, so
the same (seed, pass index) always gives the same ops.  Every op is either a
`ptlg.cli.main` call or a library `ptlg.sweep.scan` call, made in-process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

import oracle

REF_ALPHAS = (0.0, math.pi / 3, 2 * math.pi / 5, math.pi / 2.05)
NEAR_EP = (1.40, math.pi / 2.05)
FIGURE_COLUMNS = {
    1: ("alpha", "t", "L13"),
    2: ("alpha", "t", "V3", "theta", "phi"),
    3: ("alpha", "t", "L13")
    + tuple(f"{p}_{s}" for p in ("D123", "D1_2_3", "R12_3") for s in ("pp", "pm", "mp", "mm")),
    4: ("alpha", "t", "V1", "D123_pp", "D123_pm", "D123_mp", "D123_mm", "R1_23_p", "R1_23_m"),
}
TABLES = {"D123": "d_123", "D1_2_3": "d_1_2_3", "R12_3": "r_12_3"}
SUFFIX = dict(zip(("pp", "pm", "mp", "mm"), oracle.OUTCOME_ORDER))
OPTIMIZE_T_STEPS = 32
CHECK_FORMS = {"plain": ([], 0, set()),
               "pair": (["--pair-closed-forms"], 1, {"pair-closed-forms"}),
               "fault": (["--inject-fault", "1e-3"], 1, {"uu-dagger-closed-form"})}


class VerifyError(Exception):
    """An op's output disagrees with what the oracle or its inputs require."""


@dataclass
class Op:
    kind: str                       # figure | nosignal | optimize | scan | check
    points: int                     # input-defined parameter points
    argv: list[str] | None = None   # CLI ops
    inputs: dict = field(default_factory=dict)
    expect_exit: int = 0
    out: str | None = None


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _window(rng, lo_range, width_range) -> tuple[float, float]:
    lo = _u(rng, *lo_range)
    return lo, lo + _u(rng, *width_range)


def figures_pass(rng, out_dir: str, t_steps: int = 512) -> list[Op]:
    """Figures 1-4 and nosignal at each reference alpha, shuffled.

    Each op draws its own t-window ends within 1e-3 of [0, pi], so no two ops
    in a run share a parameter point; the variant figures also draw theta/phi.
    """
    ops = []
    for cmd in ("1", "2", "3", "4", "nosignal"):
        for alpha in REF_ALPHAS:
            t_min, t_max = _u(rng, 0.0, 1e-3), math.pi - _u(rng, 0.0, 1e-3)
            inputs = {"alpha": alpha, "t_min": t_min, "t_max": t_max, "t_steps": t_steps}
            argv = ["--alpha", repr(alpha), "--t-min", repr(t_min), "--t-max", repr(t_max),
                    "--t-steps", str(t_steps)]
            if cmd in ("2", "4"):
                inputs.update(theta=_u(rng, 0.15, math.pi - 0.15), phi=_u(rng, 0.0, 2 * math.pi))
                argv += ["--theta", repr(inputs["theta"]), "--phi", repr(inputs["phi"])]
            if cmd == "nosignal":
                ops.append(Op("nosignal", t_steps, ["nosignal"] + argv, inputs))
            else:
                inputs["figure"] = int(cmd)
                ops.append(Op("figure", t_steps, ["figure", cmd] + argv, inputs))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    for i, op in enumerate(ops):
        fmt = "csv" if i % 2 == 0 else "json"
        op.out = os.path.join(out_dir, f"op{i}.{fmt}")
        op.argv += ["--format", fmt, "--out", op.out]
    return ops


def optimize_pass(rng) -> list[Op]:
    """`optimize` for each expression at each reference alpha, plus library
    scan(refine=True) for V1 and V3 over a (t, theta, phi) grid near the EP."""
    ops = []
    for expr in ("L13", "V1", "V2", "V3"):
        for alpha in REF_ALPHAS:
            lo, hi = _window(rng, (0.05, 0.8), (1.0, 2.2))
            inputs = {"expression": expr, "alpha": alpha, "t_min": lo, "t_max": hi,
                      "t_steps": OPTIMIZE_T_STEPS, "theta": _u(rng, 0.15, math.pi - 0.15),
                      "phi": _u(rng, 0.0, 2 * math.pi)}
            argv = ["optimize", expr, "--alpha", repr(alpha), "--t-min", repr(lo),
                    "--t-max", repr(hi), "--t-steps", str(OPTIMIZE_T_STEPS),
                    "--theta", repr(inputs["theta"]), "--phi", repr(inputs["phi"])]
            ops.append(Op("optimize", OPTIMIZE_T_STEPS, argv, inputs))
    for expr in ("V1", "V3"):
        phi0 = _u(rng, 0.0, 2 * math.pi)
        grids = {"t": (*_window(rng, (0.1, 0.6), (1.0, 2.0)), 6),
                 "theta": (*_window(rng, (0.15, 0.9), (1.2, 2.0)), 4),
                 "phi": (phi0, phi0 + 1.5 * math.pi, 4)}
        inputs = {"expression": expr, "alpha": _u(rng, *NEAR_EP), "grids": grids}
        ops.append(Op("scan", math.prod(g[2] for g in grids.values()), None, inputs))
    return [ops[i] for i in rng.permutation(len(ops))]


def check_pass(rng) -> list[Op]:
    """`check` in its three forms, each at sample sizes drawn from the strata
    {8, 9}, {10, 11} and {12, 13}, so every pass holds the same mix of sizes."""
    ops = []
    for form, (extra, expect, _) in CHECK_FORMS.items():
        for base in (8, 10, 12):
            n = base + int(rng.integers(2))
            ops.append(Op("check", n, ["check", "--sample-size", str(n)] + extra,
                          {"form": form, "sample_size": n}, expect_exit=expect))
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = ("figures", "optimize", "check")


def pass_rng(workload: str, seed: int, index: int):
    return np.random.default_rng([seed % 2**64, WORKLOADS.index(workload), index])


def build_pass(workload: str, rng, out_dir: str) -> list[Op]:
    """The ops of one pass; only `figures` writes files, into `out_dir`."""
    if workload == "figures":
        return figures_pass(rng, out_dir)
    return optimize_pass(rng) if workload == "optimize" else check_pass(rng)


def run_op(op: Op):
    """Run one op; returns (exit code, captured stdout) or a SweepResult."""
    from ptlg import cli, sweep

    if op.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
        return code, buf.getvalue()
    inp = op.inputs
    cfg = sweep.SweepConfig(
        expression=inp["expression"], kind="pt",
        grids={k: sweep.GridSpec(*g) for k, g in inp["grids"].items()},
        fixed={"alpha": inp["alpha"]}, refine=True)
    return sweep.scan(cfg)


# -- verification -----------------------------------------------------------

def verify(op: Op, result) -> float:
    """Raise VerifyError if `result` is wrong; return the largest oracle gap."""
    if op.kind == "scan":
        return _verify_scan(op, result)
    code, text = result
    if code != op.expect_exit:
        raise VerifyError(f"exit code {code}, expected {op.expect_exit}")
    return {"figure": _verify_figure, "nosignal": _verify_nosignal,
            "optimize": _verify_optimize, "check": _verify_check}[op.kind](op, text)


class _Gap:
    """Running max of |engine - oracle|, failing past the tolerance."""

    def __init__(self, alpha: float):
        self.tol, self.max = oracle.tolerance(alpha), 0.0

    def __call__(self, what: str, engine: float, expected: float) -> None:
        gap = abs(engine - expected)
        if not gap <= self.tol:
            raise VerifyError(f"{what}: engine {engine!r} vs oracle {expected!r} "
                              f"(gap {gap:.3e} > tol {self.tol:.1e})")
        self.max = max(self.max, gap)


def read_table(path: str) -> tuple[tuple[str, ...], list[list[float]]]:
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
        return tuple(lines[0]), [[float(v) for v in line] for line in lines[1:]]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = payload["rows"]
    columns = tuple(rows[0]) if rows else ()
    if payload["summary"]["rows"] != len(rows):
        raise VerifyError(f"summary says {payload['summary']['rows']} rows, file has {len(rows)}")
    return columns, [[float(r[c]) for c in columns] for r in rows]


def _check_grid(inp: dict, columns, rows, gap: _Gap) -> np.ndarray:
    """Row count, no NaN, and the alpha and t columns match the requested grid.

    Every context carries positive weight at these inputs (det U = 1 and the
    pre-evolved state is never zero), so an expected-NaN count is zero.
    Returns the exact t grid: the oracle is evaluated there rather than at the
    12-digit t column, whose rounding would add slope * 5e-13 to each gap.
    """
    if len(rows) != inp["t_steps"]:
        raise VerifyError(f"{len(rows)} rows, expected {inp['t_steps']}")
    nan_rows = sum(1 for r in rows if any(math.isnan(v) for v in r))
    if nan_rows:
        raise VerifyError(f"{nan_rows} NaN rows, expected 0")
    ts = np.linspace(inp["t_min"], inp["t_max"], inp["t_steps"])
    for r, t in zip(rows, ts):
        gap("alpha column", r[columns.index("alpha")], inp["alpha"])
        gap("t column", r[columns.index("t")], float(t))
    return ts


def _verify_figure(op: Op, text: str) -> float:
    inp, fig = op.inputs, op.inputs["figure"]
    columns, rows = read_table(op.out)
    if columns != FIGURE_COLUMNS[fig]:
        raise VerifyError(f"columns {columns}, expected {FIGURE_COLUMNS[fig]}")
    gap = _Gap(inp["alpha"])
    ts = _check_grid(inp, columns, rows, gap)
    tables = [[columns.index(c) for c in columns if c.startswith(p + "_")]
              for p in ("D123", "D1_2_3", "R12_3", "R1_23")]
    for r in rows:
        for idx in filter(None, tables):
            gap("degree table sum", math.fsum(r[i] for i in idx), 0.0)
    standard = fig in (1, 3)
    for i, values in enumerate(rows):
        row = dict(zip(columns, values))
        pt = oracle.Point(standard, float(ts[i]), inp["alpha"],
                          inp.get("theta", 0.0), inp.get("phi", 0.0))
        if fig == 2:
            gap("theta column", row["theta"], inp["theta"])
            gap("phi column", row["phi"], inp["phi"])
        value_col = columns[2]
        gap(f"row {i} {value_col}", row[value_col], pt.expression(value_col))
        if fig in (3, 4):
            deg = pt.degrees()
            for c in columns[3:]:
                prefix, suffix = c.rsplit("_", 1)
                if prefix == "R1_23":
                    expected = deg["r_1_23"][(+1,) if suffix == "p" else (-1,)]
                else:
                    expected = deg[TABLES[prefix]][SUFFIX[suffix]]
                gap(f"row {i} {c}", row[c], expected)
    return gap.max


def _verify_nosignal(op: Op, text: str) -> float:
    inp = op.inputs
    columns, rows = read_table(op.out)
    if columns != ("alpha", "t", "deviation"):
        raise VerifyError(f"columns {columns}")
    gap = _Gap(inp["alpha"])
    ts = _check_grid(inp, columns, rows, gap)
    for row, t in zip(rows, ts):
        gap(f"deviation at t={t}", row[2], oracle.partner_deviation(inp["alpha"], float(t)))
    return gap.max


def _verify_optimum(expr: str, point: oracle.Point, value: float, grid_points, gap: _Gap):
    """The reported optimum matches the oracle and beats every grid point."""
    gap(f"{expr} at argmax", value, point.expression(expr))
    best = max(p.expression(expr) for p in grid_points)
    if not value >= best - gap.tol:
        raise VerifyError(f"{expr} optimum {value!r} below best grid value {best!r}")


def _verify_optimize(op: Op, text: str) -> float:
    inp = op.inputs
    report = json.loads(text)
    expr, params = inp["expression"], report["params"]
    gap = _Gap(inp["alpha"])
    for name in ("alpha", "theta", "phi"):
        gap(f"params.{name}", params[name], inp[name])
    slack = 1e-11 * max(1.0, inp["t_max"])  # params carry 12 significant digits
    if not inp["t_min"] - slack <= params["t"] <= inp["t_max"] + slack:
        raise VerifyError(f"argmax t={params['t']} outside [{inp['t_min']}, {inp['t_max']}]")
    standard = expr == "L13"

    def point(t):
        return oracle.Point(standard, t, inp["alpha"], inp["theta"], inp["phi"])

    at = point(params["t"])
    grid = [point(float(t)) for t in np.linspace(inp["t_min"], inp["t_max"], inp["t_steps"])]
    _verify_optimum(expr, at, report["value"], grid, gap)
    cls = report["classifier"]
    for name, value in cls["lg_values"].items():
        gap(f"classifier {name}", value, at.expression(name))
    deg = at.degrees()
    gap("max_nsit_degree", cls["max_nsit_degree"],
        max(abs(v) for k in ("d_123", "d_1_2_3") for v in deg[k].values()))
    gap("max_aot_degree", cls["max_aot_degree"],
        max(abs(v) for k in ("r_12_3", "r_1_23") for v in deg[k].values()))
    return gap.max


def _verify_scan(op: Op, result) -> float:
    inp = op.inputs
    expr, alpha, grids = inp["expression"], inp["alpha"], inp["grids"]
    gap = _Gap(alpha)
    axes = [np.linspace(*grids[name]) for name in ("t", "theta", "phi")]
    grid = [oracle.Point(False, float(t), alpha, float(th), float(ph))
            for t, th, ph in product(*axes)]
    if len(result.rows) != len(grid) or any(r.error for r in result.rows):
        raise VerifyError(f"{len(result.rows)} rows for {len(grid)} grid points, "
                          f"{sum(1 for r in result.rows if r.error)} failed")
    for row, p in zip(result.rows, grid):
        if (row.params["t"], row.params["theta"], row.params["phi"]) != (p.t, p.theta, p.phi):
            raise VerifyError(f"row params {row.params} off the requested grid")
    best = result.argmax_params
    for name, (lo, hi, _) in grids.items():
        if not lo <= best[name] <= hi:
            raise VerifyError(f"argmax {name}={best[name]} outside [{lo}, {hi}]")
    at = oracle.Point(False, best["t"], alpha, best["theta"], best["phi"])
    _verify_optimum(expr, at, result.argmax_value, grid, gap)
    for i, (row, p) in enumerate(zip(result.rows, grid)):
        gap(f"grid row {i}", row.value, p.expression(expr))
    return gap.max


def _verify_check(op: Op, text: str) -> float:
    """The suite reports exactly the expected failing checks."""
    lines = [ln.split() for ln in text.splitlines()]
    status = {ln[0]: ln[-1] for ln in lines if ln and ln[-1] in ("PASS", "FAIL")}
    failed = {name for name, s in status.items() if s == "FAIL"}
    expected = CHECK_FORMS[op.inputs["form"]][2]
    if not status or failed != expected:
        raise VerifyError(f"failing checks {sorted(failed)}, expected {sorted(expected)}")
    return 0.0

"""Benchmark entry point for the ptlg laboratory.

    python3 perfbench/run.py --workload figures|optimize|check --seed N \
        --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it runs whole passes of the
workload's ops (one client, closed loop, one process, no threads) until S
seconds have passed, samples set-up time between ops, verifies every op's
output against the scalar oracle, and prints the end-to-end metrics.  With --trace 1
it runs pass 0 once untraced and once under the span tracer and prints the
per-layer metrics.  The last line of standard output is the result JSON; the
line before it is the run's environment block.  Details go to
.perfbench_out/ (results JSON, and spans for traced runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import workloads
from tracer import FIELDS, Tracer, parent_counts, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
SETUP_CODE = ("import time; t0 = time.perf_counter(); import ptlg.cli; "
              "ptlg.cli._build_parser(); print(time.perf_counter() - t0)")
# Time of the reference kernel at nominal machine speed.  Reported timings are
# wall times scaled by REF_KERNEL_S / (the kernel's time measured around them).
REF_KERNEL_S = 1e-3
# A fresh interpreter's start slows by about the square root of the kernel's
# slowdown (log-log slope 0.50 over 270 samples), so set-up samples are scaled
# by (REF_KERNEL_S / kernel) ** SETUP_ELASTICITY rather than by the full ratio.
SETUP_ELASTICITY = 0.5
_SIGMA_X = numpy.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptlg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(), "loadavg_start": os.getloadavg(),
    }


def _reference_kernel() -> float:
    """Fixed work in the style of the engine: 2x2 complex products in a
    Python loop.  It imports nothing from ptlg, so no change there moves it."""
    m, acc = numpy.eye(2, dtype=complex), 0.0
    for _ in range(120):
        m = (m @ _SIGMA_X) * 0.5 + numpy.eye(2) * 0.25
        acc += float(numpy.trace(m).real)
    return acc


def kernel_time() -> float:
    """The reference kernel's time now, best of 3: the machine's current speed.

    On a shared virtual machine the host's other load slows every process by
    up to ~1.9x, in phases from seconds to minutes.  Scaling each op's wall
    time by REF_KERNEL_S / kernel_time() taken just before and after it
    removes most of that slowdown from the reported numbers.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def setup_sample() -> dict:
    """Fresh-interpreter time to import ptlg.cli and build its parser, as
    wall time (`seconds`) and speed-scaled (`ref_seconds`)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    before = kernel_time()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    wall = float(out.stdout.strip())
    kernel = (before + kernel_time()) / 2
    return {"seconds": wall, "ref_seconds": wall * (REF_KERNEL_S / kernel) ** SETUP_ELASTICITY}


def run_ops(workload: str, seed: int, out_dir: str, seconds: float | None = None,
            passes: int | None = None, tracer=None, between_ops=None) -> list[dict]:
    """Run whole passes until `seconds` have elapsed, or exactly `passes` passes.

    `between_ops(elapsed)` is called before each op, outside its timing.
    """
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        rng = workloads.pass_rng(workload, seed, index)
        for op in workloads.build_pass(workload, rng, out_dir):
            if between_ops is not None:
                between_ops(time.perf_counter() - start)
            records.append(run_one(op, len(records), tracer) | {"pass": index})
        index += 1
        if passes is not None and index >= passes:
            return records
        if passes is None and time.perf_counter() - start >= seconds:
            return records


def run_one(op, number: int, tracer) -> dict:
    rec = {"kind": op.kind, "argv": op.argv, "points": op.points, "error": None,
           "oracle_gap": 0.0, "bytes": 0}
    before = kernel_time()
    if tracer is not None:
        tracer.begin_op(number)
    t0 = time.perf_counter()
    try:
        result = workloads.run_op(op)
    except Exception:  # an op that raises is a failed op; the run goes on
        result, rec["error"] = None, traceback.format_exc(limit=3)
    rec["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    rec["kernel_s"] = (before + kernel_time()) / 2
    rec["ref_seconds"] = rec["seconds"] * REF_KERNEL_S / rec["kernel_s"]
    if rec["error"] is None:
        try:
            rec["oracle_gap"] = workloads.verify(op, result)
        except Exception as exc:  # wrong output and unreadable output both fail the op
            rec["error"] = f"{type(exc).__name__}: {exc}"
    if op.out and os.path.exists(op.out):
        rec["bytes"] = os.path.getsize(op.out)
        os.remove(op.out)
    if rec["error"]:
        print(f"op {number} failed: {' '.join(op.argv or [op.kind])}\n{rec['error']}",
              file=sys.stderr)
    return rec


def points_per_s(records, key: str = "ref_seconds") -> float:
    done = sum(r["points"] for r in records if r["error"] is None)
    return done / sum(r[key] for r in records)


def timings(records, setup: list[dict], key: str) -> dict:
    """points_per_s, op_p50_ms and setup_s from wall (`seconds`) or
    speed-scaled (`ref_seconds`) times.

    points_per_s is the median over passes of pass throughput, which is
    robust to a rare op that costs many times the usual, such as a refinement
    that runs to its cycle cap; per-op times in the results file still show
    such ops.
    """
    passes: dict[int, list[dict]] = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r)
    return {
        "points_per_s": (statistics.median(points_per_s(p, key) for p in passes.values()),
                         "1/s"),
        "op_p50_ms": (statistics.median(r[key] for r in records) * 1e3, "ms"),
        "setup_s": (statistics.median(s[key] for s in setup), "s"),
    }


def end_to_end(records, setup: list[dict]) -> dict:
    failed = sum(1 for r in records if r["error"])
    m = timings(records, setup, "ref_seconds")
    return {
        "points_per_s": m["points_per_s"],
        "op_p50_ms": m["op_p50_ms"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
        "setup_s": m["setup_s"],
    }


def per_layer(tr, records, untraced) -> dict:
    summary = summarize(tr)
    by_name, layers, c = summary["by_name"], summary["layers"], tr.counts
    points = sum(r["points"] for r in records)

    def self_ms(*names):
        return sum(by_name.get(n, (0.0, 0))[0] for n in names) / 1e6

    def mean_self_us(name):
        ns, n = by_name.get(name, (0.0, 0))
        return ns / n / 1e3 if n else 0.0

    dist_calls = c["protocol.distribution"]
    refines = c["sweep.refine_max"]
    m = {
        "protocol.distribution.calls": (dist_calls, "count"),
        "protocol.distribution.calls_per_point": (dist_calls / points, "ratio"),
        "protocol.distribution.distinct_ratio":
            (len(tr.distinct_contexts) / dist_calls if dist_calls else 0.0, "ratio"),
    }
    for k in (1, 2, 3):
        m[f"protocol.distribution.k{k}.self_us"] = (
            mean_self_us(f"protocol.distribution.k{k}"), "us")
    m.update({
        "protocol.initial_state.calls": (c["protocol.initial_state_at_t1"], "count"),
        "protocol.oracle.calls":
            (c["protocol.unnormalized_chain"] + c["protocol.one_time_probability"], "count"),
        "matcore.projector.calls": (c["matcore.projector"], "count"),
        "matcore.density.calls": (c["matcore.QubitDensity.__post_init__"], "count"),
        "matcore.self_ms": (layers.get("matcore", 0.0) / 1e6, "ms"),
        "ptdyn.propagator.calls": (c["ptdyn.propagator"], "count"),
        "ptdyn.propagator.self_us": (mean_self_us("ptdyn.propagator"), "us"),
        "lgexpr.self_ms": (layers.get("lgexpr", 0.0) / 1e6, "ms"),
        "macrodiag.degree_report.calls": (c["macrodiag.degree_report"], "count"),
        "macrodiag.self_ms": (layers.get("macrodiag", 0.0) / 1e6, "ms"),
        "sweep.figure_data.self_ms": (self_ms("sweep.figure_data"), "ms"),
        "sweep.scan.points":
            (parent_counts(tr, "sweep.evaluate_expression", "sweep.scan"), "count"),
        "sweep.scan.self_ms": (self_ms("sweep.scan"), "ms"),
        "sweep.refine.calls": (refines, "count"),
        "sweep.refine.evals_per_refine": (
            parent_counts(tr, "sweep.evaluate_expression", "sweep.refine_max") / refines
            if refines else 0.0, "ratio"),
        "sweep.refine.self_ms": (self_ms("sweep.refine_max"), "ms"),
        "checks.self_ms": (layers.get("checks", 0.0) / 1e6, "ms"),
        "closedform.self_ms": (layers.get("closedform", 0.0) / 1e6, "ms"),
        "nosignal.self_ms": (layers.get("nosignal", 0.0) / 1e6, "ms"),
        "cli.parse.self_ms":
            (self_ms("cli._build_parser", "cli.parse_args", "cli._merge_config_file"), "ms"),
        "cli.write.self_ms": (self_ms("cli._write_table"), "ms"),
        "cli.write.bytes": (sum(r["bytes"] for r in records), "bytes"),
        "verify.oracle_err_max":
            (max(r["oracle_gap"] for r in records + untraced), "abs"),
        "trace.overhead_ratio": (points_per_s(records) / points_per_s(untraced), "ratio"),
    })
    return m


def untraced_run(args, out_dir: str) -> tuple[list[dict], dict, dict]:
    # Set-up samples are spread over the run, so that one slow phase of a
    # shared machine cannot shift them all; the first start, which compiles
    # bytecode, is not timed.
    setup_sample()
    samples: list[dict] = []

    def sample_setup(elapsed: float) -> None:
        due = len(samples) * args.seconds / SETUP_SAMPLES
        if len(samples) < SETUP_SAMPLES and elapsed >= due:
            samples.append(setup_sample())

    records = run_ops(args.workload, args.seed, out_dir, seconds=args.seconds,
                      between_ops=sample_setup)
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample())
    wall = {k: v for k, (v, _) in timings(records, samples, "seconds").items()}
    return records, end_to_end(records, samples), {"wall_clock": wall, "setup": samples}


def traced_run(args, out_dir: str) -> tuple[list[dict], dict, dict]:
    untraced = run_ops(args.workload, args.seed, out_dir, passes=1)
    tr = Tracer()
    tr.install()
    try:
        records = run_ops(args.workload, args.seed, out_dir, passes=1, tracer=tr)
    finally:
        tr.uninstall()
    numpy.savez(OUT / f"{args.workload}-seed{args.seed}.spans.npz",
                fields=numpy.array(FIELDS), names=numpy.array(tr.names), spans=tr.spans())
    extra = {"counts": dict(tr.counts),
             "layer_self_ms": {k: v / 1e6 for k, v in summarize(tr)["layers"].items()}}
    return records, per_layer(tr, records, untraced), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptlg" / "__init__.py").is_file():
        print(f"error: no ptlg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ptlg

    if Path(ptlg.__file__).resolve().parent != SRC / "ptlg":
        print(f"error: imported ptlg from {ptlg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir()
    try:
        records, metrics, extra = (traced_run if args.trace else untraced_run)(args, str(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    kernel_ms = sorted(r["kernel_s"] * 1e3 for r in records)
    env["kernel_ms"] = {"min": kernel_ms[0], "median": statistics.median(kernel_ms),
                        "max": kernel_ms[-1]}
    failed = sum(1 for r in records if r["error"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "ops": records, **extra}, fh, indent=1)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

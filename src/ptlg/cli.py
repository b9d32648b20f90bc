"""Command-line front end: figure data, optimization, identity checks, and the
entangled-pair demo.  Emits CSV or JSON; exit codes are stable: 0 success,
1 check or numerical failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .checks import run_identity_suite
from .errors import DegenerateWeightError, DomainError, UsageError
from .macrodiag import violation_classifier
from .nosignal import signaling_deviation
from .protocol import pure_state
from .ptdyn import PTParams
from .sweep import (
    DEFAULT_ALPHAS,
    DEFAULT_PHI,
    DEFAULT_THETA,
    KINDS,
    FigureData,
    GridSpec,
    SweepConfig,
    build_preset,
    figure_data,
    grid_columns,
    scan,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _round12(v: float) -> float:
    return float("%.12g" % v)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(s: str) -> str:
    """json's text for float(s): its repr, or NaN/Infinity/-Infinity."""
    r = repr(float(s))
    return _JSON_NONFINITE.get(r, r)


def _write_table(path: str, columns, rows, fmt: str, config: dict, summary: dict):
    """Write the rows as CSV, or as the text `json.dump(..., indent=1)` gives for
    {"config", "rows", "summary"} with every value read back as `_round12(v)`.

    Each row is formatted with one `%` template and written on its own.  The
    JSON rows are spliced in where the dumped payload holds `"rows": []`.
    """
    values = ",".join(["%.12g"] * len(columns))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == "csv":
                fh.write(",".join(columns) + "\n")
                line = values + "\n"
                for row in rows:
                    fh.write(line % row)
                return
            text = json.dumps({"config": config, "rows": [], "summary": summary}, indent=1)
            if not rows:
                fh.write(text + "\n")
                return
            head, _, tail = text.partition('\n "rows": []')
            obj = "  {\n" + ",\n".join(f"   {json.dumps(c)}: %s" for c in columns) + "\n  }"
            fh.write(head + '\n "rows": [\n')
            sep = ""
            for row in rows:
                # A decimal of at most 12 significant digits in the normal range
                # is its own shortest repr: a "." and no exponent marks one.
                fh.write(sep + obj % tuple([s if "." in s and "e" not in s else _json_float(s)
                                            for s in (values % row).split(",")]))
                sep = ",\n"
            fh.write("\n ]" + tail + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _merge_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace,
                       argv: list[str]) -> argparse.Namespace:
    """Re-parse with the --config JSON values as options of the same subcommand.

    Each value goes through its flag's own type and choices.  The values are
    placed before the command line's options, so an explicit flag wins.
    """
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest: a for a in commands[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(data) - set(options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in data.items():
        flag = options[key].option_strings[-1]
        if options[key].nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} takes true or false, got {value!r}")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise UsageError(f"config key {key!r} takes a string or a number, got {value!r}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptlg",
        description="Temporal-correlation diagnostics for a qubit under "
                    "PT-symmetric evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        p.add_argument("--alpha", type=float, default=None, help="non-Hermiticity angle (rad)")
        p.add_argument("--t-min", type=float, default=0.0)
        p.add_argument("--t-max", type=float, default=float(np.pi))
        p.add_argument("--t-steps", type=int, default=512)

    def add_state(p):
        p.add_argument("--theta", type=float, default=DEFAULT_THETA)
        p.add_argument("--phi", type=float, default=DEFAULT_PHI)
        p.add_argument("--pre-evolution", choices=("on", "off"), default="on")

    p_fig = sub.add_parser("figure", help="emit curve data for one of the four figures")
    p_fig.add_argument("n", type=int, choices=(1, 2, 3, 4))
    add_grid(p_fig)
    add_state(p_fig)

    p_opt = sub.add_parser("optimize", help="grid scan, then k-section and Newton maximization")
    p_opt.add_argument("expression", choices=("L13", "V1", "V2", "V3"))
    p_opt.add_argument("--kind", choices=KINDS, default="pt")
    add_grid(p_opt)
    add_state(p_opt)

    p_chk = sub.add_parser("check", help="run the identity suite")
    p_chk.add_argument("--sample-size", type=int, default=16)
    p_chk.add_argument("--inject-fault", type=float, default=0.0,
                       help="perturb the propagator to demonstrate detection")
    p_chk.add_argument("--pair-closed-forms", action="store_true",
                       help="also compare the published pairwise closed forms")
    p_chk.add_argument("--config", default=None)

    p_ns = sub.add_parser("nosignal", help="partner-state deviation over a grid")
    add_grid(p_ns)
    return parser


_parser = cache(_build_parser)  # the one parser `main` reuses in a process


def _alpha_t_grid(args) -> tuple[tuple[float, ...], GridSpec, dict]:
    """The alphas and the t-window of a figure or nosignal table, and the grid part
    of its config.  The window must be ordered, with at least one step, and each
    alpha and both window ends must lie in the model's domain."""
    window = GridSpec(args.t_min, args.t_max, args.t_steps)
    alphas = DEFAULT_ALPHAS if args.alpha is None else (args.alpha,)
    for alpha in alphas:
        PTParams(alpha, (args.t_min, args.t_max))
    return alphas, window, {"alphas": list(alphas), "t_min": args.t_min, "t_max": args.t_max,
                            "t_steps": args.t_steps}


def _emit_table(args, default_out: str, columns, rows, config: dict, max_key: str) -> int:
    """Write a table whose third column is summarized by its finite maximum."""
    out = args.out or default_out
    finite = [row[2] for row in rows if np.isfinite(row[2])]
    summary = {"rows": len(rows), max_key: _round12(max(finite)) if finite else float("nan")}
    _write_table(out, columns, rows, args.format, config, summary)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_figure(args) -> int:
    alphas, _, grid = _alpha_t_grid(args)
    if args.n in (2, 4):
        pure_state(args.theta, args.phi)  # the figure's state: finite angles
    data: FigureData = figure_data(
        args.n, t_steps=args.t_steps, alphas=alphas, theta=args.theta, phi=args.phi,
        pre_evolution=args.pre_evolution == "on", t_min=args.t_min, t_max=args.t_max,
    )
    config = {"figure": args.n} | grid | {"theta": args.theta, "phi": args.phi,
                                          "pre_evolution": args.pre_evolution}
    return _emit_table(args, f"ptlg_figure{args.n}.{args.format}", data.columns, data.rows,
                       config, "max_value")


def cmd_optimize(args) -> int:
    if args.t_steps < 2:
        raise UsageError("--t-steps must be >= 2 for optimization")
    fixed: dict[str, float] = {"theta": args.theta, "phi": args.phi}
    if args.alpha is not None:
        fixed["alpha"] = args.alpha  # which SweepConfig refuses for the unitary kind
    elif args.kind != "unitary":
        raise UsageError("optimize over the non-unitary family needs --alpha")
    alpha = 0.0 if args.kind == "unitary" else args.alpha
    PTParams(alpha, (args.t_min, args.t_max))  # the window lies inside the domain
    if args.expression != "L13":
        pure_state(args.theta, args.phi)  # the variant's state: finite angles
    cfg = SweepConfig(
        expression=args.expression,
        kind=args.kind,
        grids={"t": GridSpec(args.t_min, args.t_max, args.t_steps)},
        fixed=fixed,
        pre_evolution=args.pre_evolution == "on",
        refine=True,
    )
    result = scan(cfg)
    classifier = violation_classifier(build_preset(cfg, result.argmax_params))
    report = {
        "expression": args.expression,
        "kind": args.kind,
        "params": {k: _round12(v) for k, v in sorted(result.argmax_params.items())},
        "value": _round12(result.argmax_value),
        "converged": result.converged,
        "classifier": {
            "lg_violated": classifier.lg_violated,
            "nsit_violated": classifier.nsit_violated,
            "aot_violated": classifier.aot_violated,
            "lg_values": {k: _round12(v) for k, v in classifier.lg_values.items()},
            "max_nsit_degree": _round12(classifier.max_nsit_degree),
            "max_aot_degree": _round12(classifier.max_aot_degree),
        },
    }
    text = json.dumps(report, indent=1)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IOError(f"cannot write {args.out}: {exc}") from exc
    print(text)
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_identity_suite(sample_size=args.sample_size, fault=args.inject_fault,
                                 include_pair_forms=args.pair_closed_forms)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:32s} residual={r.residual:.3e} tol={r.tolerance:.0e} {status}")
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_nosignal(args) -> int:
    alphas, window, grid = _alpha_t_grid(args)
    ts = window.values()
    rows = []
    for alpha in alphas:
        (devs,), _ = grid_columns(lambda t: (signaling_deviation(PTParams(alpha, t)),),
                                  {"t": ts}, 1)
        rows += [(alpha, t, dev) for t, dev in zip(ts, devs)]
    return _emit_table(args, f"ptlg_nosignal.{args.format}", ("alpha", "t", "deviation"),
                       rows, grid, "max_deviation")


def main(argv=None) -> int:
    parser = _parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _merge_config_file(parser, parser.parse_args(argv), argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        return {"figure": cmd_figure, "optimize": cmd_optimize, "check": cmd_check,
                "nosignal": cmd_nosignal}[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, DegenerateWeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

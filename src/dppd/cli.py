"""Command-line front end.

Subcommands: ``run <config>``, ``validate <config>``, ``dump-graph
<config>``, ``dualbound <config>``, ``compare <traceA> <traceB> --fstar V``.
The DPPD_OUTPUT_DIR environment variable redirects output files.  Exit
codes: 0 success (diagnostic postcondition failures are flagged in the
report, not fatal), 1 runtime solver error, 2 config parse error.
"""

import argparse
import os
import sys
from dataclasses import replace

from .baseline import run_csp_sg
from .dualbound import compute_dual_radius, find_slater
from .graphs import validate_schedule
from .scenarios import ConfigError, load_scenario
from .solver import rate_fit, run
from .traceio import read_trace, report_compare, write_trace

__all__ = ["main"]


def _out_path(path):
    out_dir = os.environ.get("DPPD_OUTPUT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, os.path.basename(path))
    return path


def _fmt(v):
    return f"{v:.12g}"


def _resolve_u0(scen):
    """The scenario's solver config, with U0 from the dual-radius protocol
    when the scenario asks for it."""
    if scen.u0_source != "dualbound":
        return scen.config
    result = compute_dual_radius(
        scen.problem, scen.schedule, scen.config.stepsize, K=scen.config.K
    )
    return replace(scen.config, U0=result.U0)


def cmd_run(args):
    scen = load_scenario(args.config)
    if scen.solver == "dualbound":
        sys.stdout.write(_dualbound_report(scen))
        return 0
    lines = [f"scenario: {scen.name}", f"solver: {scen.solver}"]
    if scen.solver in ("dppd", "csp_sg"):
        # looked up when called, so a replaced cli.run is the one that runs
        solve = run if scen.solver == "dppd" else run_csp_sg
        cfg = _resolve_u0(scen)
        trace = solve(scen.problem, scen.schedule, cfg)
        path = _out_path(scen.trace_path)
        write_trace(trace, path)
        lines.append(f"trace: {path}")
        lines.append(f"final_cons_x: {_fmt(trace.cons_x[-1])}")
        lines.append(f"final_cons_mu: {_fmt(trace.cons_mu[-1])}")
        if cfg.f_star is not None:
            lines.append(f"f_star: {_fmt(cfg.f_star)}")
            lines.append(f"final_{trace.err_column}: {_fmt(trace.eval_err[-1])}")
            try:
                slope, r2 = rate_fit(trace.k, trace.eval_err, 100, cfg.K)
                lines.append(f"rate_slope: {_fmt(slope)}")
                lines.append(f"rate_r2: {_fmt(r2)}")
            except ValueError:
                lines.append("rate_slope: n/a")
        viol = trace.constr_viol[-1]
        lines.append(f"final_constr_viol: {_fmt(viol)}")
        lines.append(f"flags: {'ok' if trace.cons_x[-1] < 1.0 else 'consensus-weak'}")
    else:
        x_check = find_slater(
            scen.problem, scen.schedule, scen.config.stepsize, scen.config.K
        )
        g = scen.problem.constraint(x_check)
        lines.append(f"x_check: {' '.join(_fmt(v) for v in x_check)}")
        lines.append(f"constraint_sum: {' '.join(_fmt(v) for v in g)}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    summary = _out_path(scen.trace_path + ".summary.txt")
    with open(summary, "w") as fh:
        fh.write(report)
    return 0


def cmd_validate(args):
    scen = load_scenario(args.config)
    horizon = max(args.rounds, scen.schedule.Q)
    rep = validate_schedule(scen.schedule, horizon)
    sys.stdout.write(
        f"horizon: {rep.horizon}\n"
        f"max_row_dev: {rep.max_row_dev:.3e}\n"
        f"max_col_dev: {rep.max_col_dev:.3e}\n"
        f"floor_ok: {rep.floor_ok}\n"
        f"windows_connected: {rep.windows_connected}\n"
        f"ok: {rep.ok}\n"
    )
    return 0


def cmd_dump_graph(args):
    scen = load_scenario(args.config)
    path = _out_path(args.out or f"{scen.name}_graph.csv")
    with open(path, "w") as fh:
        for k in range(args.rounds):
            A = scen.schedule.matrix(k)
            for row in A:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
            fh.write("\n")
    sys.stdout.write(f"wrote {args.rounds} matrices to {path}\n")
    return 0


def _dualbound_report(scen):
    result = compute_dual_radius(
        scen.problem, scen.schedule, scen.config.stepsize, K=scen.config.K
    )
    return (
        f"x_check: {' '.join(_fmt(v) for v in result.x_check)}\n"
        f"z_check: {' '.join(_fmt(v) for v in result.z_check)}\n"
        f"gamma_lower: {_fmt(result.gamma_lower)}\n"
        f"f_max: {_fmt(result.f_max)}\n"
        f"q_min: {_fmt(result.q_min)}\n"
        f"U0: {_fmt(result.U0)}\n"
        f"slater_rounds: {result.slater_rounds}\n"
        f"certify_blocks: {result.certify_blocks}\n"
    )


def cmd_dualbound(args):
    sys.stdout.write(_dualbound_report(load_scenario(args.config)))
    return 0


def cmd_compare(args):
    ta = read_trace(args.trace_a)
    tb = read_trace(args.trace_b)
    ks = tuple(int(k) for k in args.at) if args.at else (100, 1000, 10000)
    rows = report_compare(ta, tb, f_star=args.fstar, ks=ks)
    sys.stdout.write("k,err_a,err_b,ratio\n")
    for k, ea, eb, ratio in rows:
        sys.stdout.write(f"{k},{_fmt(ea)},{_fmt(eb)},{_fmt(ratio)}\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dppd", description="distributed proximal primal-dual toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario and write its trace")
    p.add_argument("config")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("validate", help="validate a scenario's graph schedule")
    p.add_argument("config")
    p.add_argument("--rounds", type=int, default=100)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("dump-graph", help="write schedule matrices as CSV blocks")
    p.add_argument("config")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dump_graph)

    p = sub.add_parser("dualbound", help="run the dual-radius protocol")
    p.add_argument("config")
    p.set_defaults(fn=cmd_dualbound)

    p = sub.add_parser("compare", help="tabulate error-at-k for two traces")
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.add_argument("--fstar", type=float, default=None)
    p.add_argument("--at", nargs="*", type=int, default=None)
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for the experiment harness.

Every subcommand writes CSV files (full %.17g precision) into the output
directory plus a summary.csv describing what was produced.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigurationError
from .harness import (ExperimentConfig, load_config, order_report_rows,
                      run_global_order, run_hamiltonian_drift, run_limits,
                      run_local_order, run_work_precision, write_csv)
from .quadrature import NodeFamily, build_rule, generate_nodes
from .sdc import GuessStrategy, SweeperConfig, integrate
from .stability import ScanKind, scan_domain


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, help="override random seed")
    sub.add_argument("--M", type=int, help="override node count")
    sub.add_argument("--K", type=int, nargs="+", help="override iteration counts")
    sub.add_argument("--nodes", help="override node family (legendre/lobatto/radau)")
    sub.add_argument("--dt", type=float, nargs="+", help="override dt ladder")


def _build_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.M is not None:
        cfg.M = args.M
    if args.K is not None:
        cfg.K_list = tuple(args.K)
    if args.nodes is not None:
        cfg.family = NodeFamily.from_name(args.nodes)
    if args.dt is not None:
        cfg.dt_list = tuple(args.dt)
    cfg.out = args.out
    return cfg


def _summary(out, entries):
    write_csv(os.path.join(out, "summary.csv"), ["experiment", "file"], entries)


def _cmd_nodes(args):
    cfg = _build_config(args)
    rule = build_rule(cfg.family, cfg.M)
    rows = [[m + 1, float(t), float(w)]
            for m, (t, w) in enumerate(zip(rule.nodes, rule.q[1:]))]
    path = os.path.join(cfg.out, "nodes.csv")
    write_csv(path, ["index", "tau", "weight"], rows)
    _summary(cfg.out, [["nodes", path]])


def _scan_command(kind, default_K):
    def run(args):
        cfg = _build_config(args)
        K = args.K[0] if args.K else default_K
        result = scan_domain(kind, build_rule(cfg.family, cfg.M), K, cfg.grid)
        name = kind.value + (f"_K{K}" if K is not None else "")
        path = os.path.join(cfg.out, f"{name}.csv")
        os.makedirs(cfg.out, exist_ok=True)
        result.write_csv(path)
        _summary(cfg.out, [[name, path]])
    return run


def _cmd_limits(args):
    cfg = _build_config(args)
    table = run_limits(cfg)
    rows = [[K, M, sdc, pic] for (K, M), (sdc, pic) in sorted(table.items())]
    path = os.path.join(cfg.out, "stability_limits.csv")
    write_csv(path, ["K", "M", "sdc_limit", "picard_limit"], rows)
    _summary(cfg.out, [["stability-limits", path]])


def _order_command(runner, name):
    def run(args):
        cfg = _build_config(args)
        if not cfg.dt_list:
            cfg.dt_list = tuple(0.05 * 2.0 ** -i for i in range(6))
        report = runner(cfg)
        header, rows = order_report_rows(report)
        path = os.path.join(cfg.out, f"{name}.csv")
        write_csv(path, header, rows)
        slope_rows = [[lbl, report.slopes[lbl], report.predicted[lbl]]
                      for lbl in sorted(report.slopes)]
        spath = os.path.join(cfg.out, f"{name}_slopes.csv")
        write_csv(spath, ["label", "slope", "predicted"], slope_rows)
        _summary(cfg.out, [[name, path], [f"{name}-slopes", spath]])
    return run


def _cmd_work_precision(args):
    cfg = _build_config(args)
    if not cfg.dt_list:
        cfg.dt_list = tuple(0.04 * 2.0 ** -i for i in range(6))
    rows = run_work_precision(cfg)
    path = os.path.join(cfg.out, "work_precision.csv")
    write_csv(path, ["method", "K", "dt", "f_evals", "err1", "err3"],
              [[r["method"], r["K"], r["dt"], r["f_evals"], r["err1"], r["err3"]]
               for r in rows])
    _summary(cfg.out, [["work-precision", path]])


def _cmd_hamiltonian(args):
    cfg = _build_config(args)
    cfg.problem = "oscillator"
    cfg.kappa, cfg.mu = 1.0, 0.0
    if args.K is None:
        cfg.K_list = (2, 3, 4)
    series = run_hamiltonian_drift(cfg)
    entries = []
    for s in series:
        path = os.path.join(cfg.out, f"hamiltonian_{s.label}.csv")
        write_csv(path, ["step", "rel_h_error"],
                  [[int(n), float(e)] for n, e in zip(s.steps, s.rel_error)])
        entries.append([f"hamiltonian-{s.label}", path])
    spath = os.path.join(cfg.out, "hamiltonian_summary.csv")
    write_csv(spath, ["label", "max_rel_error", "trend_slope", "trend_stderr"],
              [[s.label, s.max_rel_error, s.trend_slope, s.trend_stderr]
               for s in series])
    entries.append(["hamiltonian-summary", spath])
    _summary(cfg.out, entries)


def _cmd_integrate(args):
    cfg = _build_config(args)
    problem = cfg.make_problem()
    x0, v0 = cfg.initial_value()
    dt = cfg.dt_list[0] if cfg.dt_list else 0.01
    sw = cfg.sweeper(cfg.K_list[0])
    times, results = integrate(problem, (x0, v0), 0.0, cfg.t_end, dt, sw)
    rows = []
    for t, r in zip(times, results):
        rows.append([float(t)] + [float(c) for c in np.atleast_1d(r.x_end)]
                    + [float(c) for c in np.atleast_1d(r.v_end)]
                    + [r.f_evals, r.final_residual])
    d = problem.d
    header = (["t"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)]
              + ["f_evals", "residual"])
    path = os.path.join(cfg.out, "trajectory.csv")
    write_csv(path, header, rows)
    _summary(cfg.out, [["integrate", path]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vvsdc",
        description="Velocity-Verlet SDC for second-order IVPs: solver and "
                    "benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {
        "nodes": _cmd_nodes,
        "stability-map": _scan_command(ScanKind.SDC_STABILITY, 50),
        "convergence-map": _scan_command(ScanKind.SDC_CONVERGENCE, None),
        "stability-limits": _cmd_limits,
        "local-order": _order_command(run_local_order, "local_order"),
        "global-order": _order_command(run_global_order, "global_order"),
        "work-precision": _cmd_work_precision,
        "hamiltonian": _cmd_hamiltonian,
        "integrate": _cmd_integrate,
    }
    for name in commands:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)
    try:
        commands[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

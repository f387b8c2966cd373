"""Command-line front end for the experiment harness.

Every subcommand writes CSV files (full %.17g precision) into the output
directory plus a summary.csv describing what was produced.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import ConfigurationError
from .harness import (ExperimentConfig, apply_settings, order_report_rows,
                      read_settings, run_global_order, run_hamiltonian_drift,
                      run_limits, run_local_order, run_work_precision,
                      scan_rows, write_csv)
from .quadrature import build_rule
from .sdc import integrate
from .stability import ScanKind, scan_domain

# flag -> the config key it sets
_FLAGS = {"seed": ("sweeper", "seed"), "M": ("rule", "m"),
          "K": ("sweeper", "k_list"), "nodes": ("rule", "family"),
          "dt": ("run", "dt_list")}


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", help="override random seed")
    sub.add_argument("--M", help="override node count")
    sub.add_argument("--K", nargs="+", help="override iteration counts")
    sub.add_argument("--nodes", help="override node family (legendre/lobatto/radau)")
    sub.add_argument("--dt", nargs="+", help="override dt ladder")


def _build_config(defaults: dict, args) -> ExperimentConfig:
    """ExperimentConfig defaults, then the command's, then the file, then the flags."""
    settings = read_settings(args.config) if args.config else {}
    for flag, key in _FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            settings[key] = value if isinstance(value, str) else " ".join(value)
    return apply_settings(replace(ExperimentConfig(), **defaults), settings)


# Each command's tables(cfg) yields (experiment, file name, header, rows).

def _nodes(cfg):
    rule = build_rule(cfg.family, cfg.M)
    yield "nodes", "nodes.csv", ["index", "tau", "weight"], [
        [m + 1, float(t), float(w)] for m, (t, w) in enumerate(zip(rule.nodes, rule.q[1:]))]


def _scan(kind, cfg):
    # the convergence matrix does not depend on K
    K = None if kind is ScanKind.SDC_CONVERGENCE else cfg.K_list[0]
    name = kind.value + (f"_K{K}" if K is not None else "")
    result = scan_domain(kind, build_rule(cfg.family, cfg.M), K, cfg.grid)
    yield (name, f"{name}.csv", *scan_rows(result))


def _limits(cfg):
    table = run_limits(cfg)
    header = ["K", "M", "sdc_limit", "picard_limit"]
    yield "stability-limits", "stability_limits.csv", header, [
        [K, M, sdc, pic] for (K, M), (sdc, pic) in sorted(table.items())]


def _order(runner, name, cfg):
    report = runner(cfg)
    yield (name, f"{name}.csv", *order_report_rows(report))
    yield f"{name}-slopes", f"{name}_slopes.csv", ["label", "slope", "predicted"], [
        [lbl, report.slopes[lbl], report.predicted[lbl]] for lbl in sorted(report.slopes)]


def _work_precision(cfg):
    header = ["method", "K", "dt", "f_evals", "err1", "err3"]
    yield "work-precision", "work_precision.csv", header, [
        [row[c] for c in header] for row in run_work_precision(cfg)]


def _hamiltonian(cfg):
    series = run_hamiltonian_drift(cfg)
    for s in series:
        yield f"hamiltonian-{s.label}", f"hamiltonian_{s.label}.csv", ["step", "rel_h_error"], (
            [int(n), float(e)] for n, e in zip(s.steps, s.rel_error))
    yield "hamiltonian-summary", "hamiltonian_summary.csv", [
        "label", "max_rel_error", "trend_slope", "trend_stderr"], [
        [s.label, s.max_rel_error, s.trend_slope, s.trend_stderr] for s in series]


def _integrate(cfg):
    problem = cfg.make_problem()
    times, results = integrate(problem, cfg.initial_value(), 0.0, cfg.t_end,
                               cfg.dt_list[0], cfg.sweeper(cfg.K_list[0]))
    d = problem.d
    header = (["t"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)]
              + ["f_evals", "residual"])
    yield "integrate", "trajectory.csv", header, [
        [float(t)] + [float(c) for c in np.atleast_1d(r.x_end)]
        + [float(c) for c in np.atleast_1d(r.v_end)] + [r.f_evals, r.final_residual]
        for t, r in zip(times, results)]


def _ladder(dt0):
    return tuple(dt0 * 2.0 ** -i for i in range(6))


# command -> (its ExperimentConfig defaults, tables)
COMMANDS = {
    "nodes": ({}, _nodes),
    "stability-map": ({"K_list": (50,)}, partial(_scan, ScanKind.SDC_STABILITY)),
    "convergence-map": ({}, partial(_scan, ScanKind.SDC_CONVERGENCE)),
    "stability-limits": ({}, _limits),
    "local-order": ({"dt_list": _ladder(0.05)},
                    partial(_order, run_local_order, "local_order")),
    "global-order": ({"dt_list": _ladder(0.05)},
                     partial(_order, run_global_order, "global_order")),
    "work-precision": ({"dt_list": _ladder(0.04)}, _work_precision),
    "hamiltonian": ({"problem": "oscillator", "K_list": (2, 3, 4)}, _hamiltonian),
    "integrate": ({"dt_list": (0.01,)}, _integrate),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vvsdc",
        description="Velocity-Verlet SDC for second-order IVPs: solver and "
                    "benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)
    defaults, tables = COMMANDS[args.command]
    try:
        entries = []
        for experiment, file_name, header, rows in tables(_build_config(defaults, args)):
            path = os.path.join(args.out, file_name)
            write_csv(path, header, rows)
            entries.append([experiment, path])
        write_csv(os.path.join(args.out, "summary.csv"), ["experiment", "file"], entries)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

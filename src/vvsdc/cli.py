"""Command-line front end for the experiment harness.

Every subcommand writes CSV tables, column by column with floats at full
%.17g precision, into the output directory plus a summary.csv of them, which
is removed as a run starts and written last.  A run exits 0 with its tables,
or with one ``error:`` line on stderr: 2 for a bad setting or an ``--out``
that cannot hold the tables, 3 for a divergence or a failed node solve or
stability cell.  A run computes with NumPy's floating-point warnings off, so
it reports an overflow only in its error line or as an inf in a table.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigurationError, DivergenceError, SolverError
from .harness import (ExperimentConfig, apply_settings, read_settings,
                      run_global_order, run_hamiltonian_drift, run_limits,
                      run_local_order, run_work_precision, write_csv)
from .quadrature import build_rule
from .sdc import integrate
from .stability import ScanKind, scan_domain

# flag -> the config key it sets
_FLAGS = {"seed": ("sweeper", "seed"), "M": ("rule", "m"),
          "K": ("sweeper", "k_list"), "nodes": ("rule", "family"),
          "dt": ("run", "dt_list")}


def _add_common(sub, reads):
    """The shared arguments.  A flag the command does not read is parsed, so
    that it can be refused, but left out of the command's help."""
    def shown(flag, text):
        return text if flag in reads else argparse.SUPPRESS
    sub.add_argument("--config", help="experiment config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", help=shown("seed", "override random seed"))
    sub.add_argument("--M", help=shown("M", "override node count"))
    sub.add_argument("--K", nargs="+", help=shown("K", "override iteration counts"))
    sub.add_argument("--nodes", help=shown(
        "nodes", "override node family (legendre/lobatto/radau)"))
    sub.add_argument("--dt", nargs="+", help=shown("dt", "override dt ladder"))


def _build_config(args) -> ExperimentConfig:
    """ExperimentConfig defaults, then the command's, then the file, then the flags.

    A flag the command does not read is an error; a config-file key is not,
    as one file serves every command.
    """
    defaults, reads, _ = COMMANDS[args.command]
    settings = read_settings(args.config) if args.config else {}
    for flag, key in _FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            raise ConfigurationError(f"{args.command} does not read --{flag}")
        settings[key] = value if isinstance(value, str) else " ".join(value)
    return apply_settings(replace(ExperimentConfig(), **defaults), settings)


# Each command's tables(cfg) yields (experiment, file name, header, columns).

def _nodes(cfg):
    rule = build_rule(cfg.family, cfg.M)
    yield "nodes", "nodes.csv", ["index", "tau", "weight"], [
        range(1, rule.M + 1), rule.nodes, rule.q[1:]]


def _scan(kind, cfg):
    # the convergence matrix does not depend on K
    K = None if kind is ScanKind.SDC_CONVERGENCE else cfg.K_list[0]
    name = kind.value + (f"_K{K}" if K is not None else "")
    res = scan_domain(kind, build_rule(cfg.family, cfg.M), K, cfg.grid)
    yield name, f"{name}.csv", ["dt_kappa", "dt_mu", "rho", "stable"], [   # kappa-major
        np.repeat(res.kappa, len(res.mu)), np.tile(res.mu, len(res.kappa)),
        res.rho.ravel(), res.stable_mask().ravel().astype(int)]


def _limits(cfg):
    cells, limits = zip(*sorted(run_limits(cfg).items()))
    yield "stability-limits", "stability_limits.csv", [
        "K", "M", "sdc_limit", "picard_limit"], [*zip(*cells), *zip(*limits)]


def _order(runner, name, cfg):
    report = runner(cfg)
    labels = sorted(report.errors)
    yield name, f"{name}.csv", ["dt", *labels], [
        report.dts, *(report.errors[lbl] for lbl in labels)]
    yield f"{name}-slopes", f"{name}_slopes.csv", ["label", "slope", "predicted"], [
        labels, [report.slopes[lbl] for lbl in labels],
        [report.predicted[lbl] for lbl in labels]]


def _work_precision(cfg):
    header = ["method", "K", "dt", "f_evals", "err1", "err3"]
    rows = run_work_precision(cfg)
    yield "work-precision", "work_precision.csv", header, [
        [row[c] for row in rows] for c in header]


def _hamiltonian(cfg):
    series = run_hamiltonian_drift(cfg)
    for s in series:
        yield (f"hamiltonian-{s.label}", f"hamiltonian_{s.label}.csv",
               ["step", "rel_h_error"], [s.steps, s.rel_error])
    fields = ["label", "max_rel_error", "trend_slope", "trend_stderr"]
    yield "hamiltonian-summary", "hamiltonian_summary.csv", fields, [
        [getattr(s, f) for s in series] for f in fields]


def _integrate(cfg):
    problem = cfg.make_problem()
    times, results = integrate(problem, cfg.initial_value(), 0.0, cfg.t_end,
                               cfg.dt_list[0], cfg.sweeper(cfg.K_list[0]))
    d = problem.d
    header = (["t"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)]
              + ["f_evals", "residual"])
    x = np.array([r.x_end for r in results])   # (steps, d)
    v = np.array([r.v_end for r in results])
    yield "integrate", "trajectory.csv", header, [
        times, *x.T, *v.T, [r.f_evals for r in results],
        [r.final_residual for r in results]]


def _ladder(dt0):
    return tuple(dt0 * 2.0 ** -i for i in range(6))


# command -> (its ExperimentConfig defaults, the flags it reads, tables).
# convergence-map has no K; stability-limits fixes its K and M; hamiltonian
# fixes its M, start and step size; work-precision fixes the copy start.
COMMANDS = {
    "nodes": ({}, {"M", "nodes"}, _nodes),
    "stability-map": ({"K_list": (50,)}, {"M", "K", "nodes"},
                      partial(_scan, ScanKind.SDC_STABILITY)),
    "convergence-map": ({}, {"M", "nodes"}, partial(_scan, ScanKind.SDC_CONVERGENCE)),
    "stability-limits": ({}, {"nodes"}, _limits),
    "local-order": ({"dt_list": _ladder(0.05)}, set(_FLAGS),
                    partial(_order, run_local_order, "local_order")),
    "global-order": ({"dt_list": _ladder(0.05)}, set(_FLAGS),
                     partial(_order, run_global_order, "global_order")),
    "work-precision": ({"dt_list": _ladder(0.04)}, {"M", "K", "nodes", "dt"},
                       _work_precision),
    "hamiltonian": ({"problem": "oscillator", "K_list": (2, 3, 4)}, {"K", "nodes"},
                    _hamiltonian),
    "integrate": ({"dt_list": (0.01,)}, set(_FLAGS), _integrate),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vvsdc",
        description="Velocity-Verlet SDC for second-order IVPs: solver and "
                    "benchmark harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads, _) in COMMANDS.items():
        _add_common(subs.add_parser(name), reads)
    args = parser.parse_args(argv)
    tables = COMMANDS[args.command][2]
    summary = os.path.join(args.out, "summary.csv")
    try:
        # summary.csv is written last, so it is there only if the last run exited 0
        with contextlib.suppress(FileNotFoundError):
            os.remove(summary)
        # a step too large to take overflows: the divergence guard reports it,
        # in the run's error line or as an inf in a table, so NumPy does not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            entries = []
            for experiment, file_name, header, columns in tables(_build_config(args)):
                path = os.path.join(args.out, file_name)
                write_csv(path, header, columns)
                entries.append((experiment, path))
            write_csv(summary, ["experiment", "file"], zip(*entries))
    except (NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: --out {args.out} cannot hold the tables: {exc.strerror}: "
              f"{exc.filename}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, SolverError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

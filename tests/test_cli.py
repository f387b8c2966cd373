import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import read_csv
import vvsdc
from vvsdc import (GuessStrategy, NodeFamily, SweeperConfig, build_rule, harness,
                   integrate, make_oscillator)
from vvsdc.cli import COMMANDS, main

TINY = ("[problem]\nkind = oscillator\n"
        "[run]\ndt_list = 0.1 0.05 0.025 0.0125\nt_end = 0.5\nn_steps = 200\n"
        "kappa_max = 2\nmu_max = 2\nkappa_cells = 3\nmu_cells = 3\n")
STIFF = "[problem]\nkind = oscillator\nkappa = 1e12\n"


def _run(tmp_path, command, ini, *flags):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    code = main([command, "--config", str(cfg), "--out", str(out), *flags])
    return code, out


def _listed(out):
    """Experiment -> file name of every summary.csv row."""
    header, rows = read_csv(str(out / "summary.csv"))
    assert header == ["experiment", "file"]
    return {row[0]: os.path.basename(row[1]) for row in rows}


def test_nodes_command(tmp_path):
    out = tmp_path / "out"
    assert main(["nodes", "--out", str(out), "--M", "3"]) == 0
    header, rows = read_csv(str(out / "nodes.csv"))
    assert header == ["index", "tau", "weight"]
    assert len(rows) == 3
    assert sum(r[2] for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_nodes_family_override(tmp_path):
    out = tmp_path / "out"
    assert main(["nodes", "--out", str(out), "--M", "2", "--nodes",
                 "lobatto"]) == 0
    _, rows = read_csv(str(out / "nodes.csv"))
    assert rows[0][1] == pytest.approx(0.0, abs=1e-14)
    assert rows[-1][1] == pytest.approx(1.0, abs=1e-14)


def test_bad_family_exits_2(tmp_path):
    assert main(["nodes", "--out", str(tmp_path), "--nodes", "chebyshev"]) == 2


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nbogus = 1\n")
    assert main(["nodes", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("out, blocked, reason", [
    ("file", "file/summary.csv", "Not a directory"),
    ("file/sub", "file/sub/summary.csv", "Not a directory"),
    ("dir", "dir/summary.csv", "Is a directory"),
], ids=["file", "below-a-file", "summary-is-a-directory"])
def test_out_that_cannot_hold_the_tables_exits_2(tmp_path, capsys, out, blocked, reason):
    # a bad setting: a file, a path below one, or a directory whose
    # summary.csv is a directory; the file is left as it was
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir" / "summary.csv").mkdir(parents=True)
    assert main(["nodes", "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == (f"error: --out {tmp_path / out} cannot hold the tables: "
                                       f"{reason}: {tmp_path / blocked}\n")
    assert (tmp_path / "file").read_text() == "kept\n"


def test_integrate_command(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[problem]\nkind = oscillator\nkappa = 1.0\n"
                   "[run]\ndt_list = 0.1\nt_end = 0.5\n")
    assert main(["integrate", "--config", str(cfg), "--out", str(out),
                 "--K", "3"]) == 0
    header, rows = read_csv(str(out / "trajectory.csv"))
    assert header[:3] == ["t", "x1", "v1"]
    assert len(rows) == 5
    assert rows[-1][0] == pytest.approx(0.5)
    assert rows[-1][1] == pytest.approx(np.cos(0.5), abs=1e-3)
    # the residual column is each step's final_residual, read at %.17g
    _, results = integrate(make_oscillator(1.0, 0.0), (1.0, 0.0), 0.0, 0.5, 0.1,
                           SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3),
                                         K=3, initial_guess=GuessStrategy.RANDOM,
                                         seed=42))
    assert [row[-1] for row in rows] == [r.final_residual for r in results]


def test_convergence_map_command(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[run]\nkappa_max = 2\nmu_max = 2\n"
                   "kappa_cells = 4\nmu_cells = 4\n")
    assert main(["convergence-map", "--config", str(cfg), "--out",
                 str(out)]) == 0
    header, rows = read_csv(str(out / "sdc-convergence.csv"))
    assert header == ["dt_kappa", "dt_mu", "rho", "stable"]
    assert len(rows) == 16
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)


def test_local_order_command(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[problem]\nkind = oscillator\nkappa = 1.0\n"
                   "[rule]\nm = 2\n[sweeper]\nk_list = 1\n"
                   "[run]\ndt_list = 0.2 0.1 0.05 0.025\n")
    assert main(["local-order", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(str(out / "local_order_slopes.csv"))
    assert header == ["label", "slope", "predicted"]
    assert {r[0] for r in rows} == {"K1_x1", "K1_v1"}
    summary_header, summary_rows = read_csv(str(out / "summary.csv"))
    assert summary_header == ["experiment", "file"]
    assert len(summary_rows) == 2


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_lists_its_files(tmp_path, command):
    code, out = _run(tmp_path, command, TINY)
    assert code == 0
    written = set(os.listdir(out)) - {"summary.csv"}
    assert sorted(_listed(out).values()) == sorted(written)
    assert written


@pytest.mark.parametrize("ini", ["[rule]\nm = abc\n", "[problem]\nx0 = 1 2\n",
                                 "[run]\nout = elsewhere\n"],
                         ids=["m", "x0", "out"])
def test_malformed_config_exits_2(tmp_path, ini):
    assert _run(tmp_path, "nodes", ini)[0] == 2


@pytest.mark.parametrize("value", ["sdc %x", "sdc %(x)s"], ids=["percent", "interpolation"])
def test_percent_in_a_config_value_is_literal(tmp_path, capsys, value):
    # configparser's interpolation read '%' as syntax and left a traceback with
    # exit 1; taken literally, the value fails as an unknown method
    code, out = _run(tmp_path, "work-precision", f"[run]\nmethods = {value}\n")
    assert code == 2 and not out.exists()
    method = value.split()[1]
    assert capsys.readouterr().err == (f"error: [run] methods = {value!r}: "
                                       f"unknown work-precision method {method!r}\n")


def test_unknown_method_exits_2_for_any_command(tmp_path, capsys):
    # the methods are checked when the config is parsed, as every other key
    # is, not only when work-precision starts its runs
    code, out = _run(tmp_path, "nodes", "[run]\nmethods = sdc bogus\n")
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: ") and err.endswith("\n")
    assert "unknown work-precision method 'bogus'" in err


@pytest.mark.parametrize("ini", ["[DEFAULT]\nm = 5\n",
                                 "[DEFAULT]\nm = 5\n[rule]\nfamily = legendre\n"],
                         ids=["alone", "next-to-a-section"])
def test_default_section_exits_2(tmp_path, capsys, ini):
    # configparser copies [DEFAULT]'s keys into every section, or drops them
    # when there is none; either way the file did not say what it meant
    code, out = _run(tmp_path, "nodes", ini)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"


@pytest.mark.parametrize("section, key", [("problem", "alpha"), ("sweeper", "k")])
def test_removed_keys_exit_2(tmp_path, capsys, section, key):
    assert _run(tmp_path, "global-order", f"[{section}]\n{key} = 3\n")[0] == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("ini", [
    TINY.replace("kind = oscillator", "kind = oscillator\nkappa = nan"),
    TINY.replace("kind = oscillator", "kind = oscillator\nmu = inf"),
    "[problem]\nomega_b = inf\n",
    "[problem]\nv0 = 100 nan 100\n",
], ids=["oscillator-kappa-nan", "oscillator-mu-inf", "penning-omega_b-inf", "penning-v0-nan"])
def test_non_finite_physics_exits_2(tmp_path, capsys, ini):
    code, out = _run(tmp_path, "global-order", ini)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error:")


def test_hamiltonian_takes_k_list_from_file(tmp_path):
    code, out = _run(tmp_path, "hamiltonian", TINY + "[sweeper]\nk_list = 2\n")
    assert code == 0
    assert set(_listed(out)) == {"hamiltonian-sdc_M3_K2", "hamiltonian-sdc_M5_K2",
                                 "hamiltonian-rkn4", "hamiltonian-summary"}


def test_hamiltonian_rejects_penning_from_file(tmp_path):
    ini = TINY.replace("kind = oscillator", "kind = penning")
    assert _run(tmp_path, "hamiltonian", ini)[0] == 2


@pytest.mark.parametrize("n_steps", ["0", "-3", "9"])
def test_hamiltonian_too_few_steps_exits_2(tmp_path, capsys, n_steps):
    # 0 and -3 fail the schema; 9 is below the subsample of the series
    code, out = _run(tmp_path, "hamiltonian",
                     TINY.replace("n_steps = 200", f"n_steps = {n_steps}"))
    assert code == 2 and not out.exists()
    assert "n_steps" in capsys.readouterr().err


def test_stability_map_takes_k_from_file(tmp_path):
    code, out = _run(tmp_path, "stability-map", TINY + "[sweeper]\nk_list = 3\n")
    assert code == 0
    assert _listed(out) == {"sdc-stability_K3": "sdc-stability_K3.csv"}


def test_flags_outrank_file(tmp_path):
    code, out = _run(tmp_path, "stability-map", TINY + "[sweeper]\nk_list = 3\n",
                     "--K", "2", "--M", "2")
    assert code == 0
    assert _listed(out) == {"sdc-stability_K2": "sdc-stability_K2.csv"}


@pytest.mark.parametrize("command, ini, flags", [
    ("nodes", "[run]\ndt_list = 0\n", ()),
    ("nodes", "[run]\ndt_list = 0.1 -0.1\n", ()),
    ("nodes", "[run]\ndt_list = nan\n", ()),
    ("integrate", "", ("--dt", "0")),
    ("integrate", "", ("--dt", "-0.1")),
    ("integrate", "", ("--dt", "inf")),
    ("nodes", "[run]\nhamiltonian_dt = 0\n", ()),
    ("nodes", "[run]\nhamiltonian_dt = nan\n", ()),
], ids=["file-zero", "file-negative", "file-nan", "flag-zero", "flag-negative", "flag-inf",
        "hamiltonian-zero", "hamiltonian-nan"])
def test_bad_dt_exits_2(tmp_path, capsys, command, ini, flags):
    # nodes reads the whole config file but never steps, so a parser that
    # lets the bad dt through fails this test instead of hanging it; the
    # flag takes integrate, which reads --dt, and its march refuses such a
    # dt too, so the message shows which check caught it
    assert _run(tmp_path, command, ini, *flags)[0] == 2
    assert "needs a positive finite value" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["0", "-1", "nan", "inf", "1e-13"])
def test_bad_t_end_exits_2(tmp_path, capsys, t_end):
    # 1e-13 is positive but within the end guard of the time march
    assert _run(tmp_path, "integrate", f"[run]\nt_end = {t_end}\n")[0] == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flags", [
    ("stability-map", ("--K", "-1")), ("integrate", ("--K", "-1")),
    ("local-order", ("--K", "2", "-1")), ("local-order", ("--seed", "-1"))],
    ids=["stability-map-K", "integrate-K", "local-order-K", "local-order-seed"])
def test_negative_sweep_count_or_seed_exits_2(tmp_path, capsys, command, flags):
    # unchecked, these give a NaN map, steps without sweeps, predicted
    # orders of -1, or NumPy's traceback for a negative seed
    code, out = _run(tmp_path, command, TINY, *flags)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [
    ("hamiltonian", "--M"), ("hamiltonian", "--dt"), ("stability-limits", "--M"),
    ("stability-limits", "--K"), ("stability-limits", "--seed"), ("stability-limits", "--dt"),
    ("work-precision", "--seed"), ("convergence-map", "--K"), ("nodes", "--dt")])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # such a flag used to be ignored with exit 0: hamiltonian --M 7 wrote its
    # fixed M = 3 and 5 series
    code, out = _run(tmp_path, command, TINY, flag, "2")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {command} does not read {flag}\n"


def test_help_lists_only_the_flags_the_command_reads(capsys):
    with pytest.raises(SystemExit):
        main(["hamiltonian", "--help"])
    text = capsys.readouterr().out
    assert "--K" in text and "--nodes" in text
    assert not {"--M", "--seed", "--dt"} & set(text.split())


def test_config_keys_a_command_does_not_read_are_accepted(tmp_path):
    # one config file serves every command, so a key a command does not read
    # is no error: hamiltonian ignores [rule] m and [sweeper] seed
    ini = TINY + "[rule]\nm = 2\n[sweeper]\nk_list = 2\nseed = 3\n"
    code, out = _run(tmp_path, "hamiltonian", ini)
    assert code == 0
    assert "hamiltonian-sdc_M3_K2" in _listed(out)


def test_nodes_text_is_pinned(tmp_path):
    # an int column and two float columns, each written whole
    out = tmp_path / "out"
    assert main(["nodes", "--out", str(out), "--M", "2"]) == 0
    assert (out / "nodes.csv").read_text() == (
        "index,tau,weight\n1,0.21132486540518713,0.5\n2,0.78867513459481287,0.5\n")
    assert (out / "summary.csv").read_text() == (
        f"experiment,file\nnodes,{os.path.join(str(out), 'nodes.csv')}\n")


@pytest.mark.parametrize("command, ini, flags, key", [
    ("global-order", TINY, ("--K", "1", "1"), "[sweeper] k_list"),
    ("hamiltonian", TINY, ("--K", "2", "2"), "[sweeper] k_list"),
    ("work-precision", TINY + "[sweeper]\nk_list = 2 3 2\n", (), "[sweeper] k_list"),
    ("integrate", TINY, ("--dt", "0.1", "0.10"), "[run] dt_list"),
    ("nodes", "[run]\ndt_list = 0.1 0.2 0.1\n", (), "[run] dt_list"),
    ("work-precision", TINY.replace("[run]\n", "[run]\nmethods = sdc rkn4 sdc\n"), (),
     "[run] methods"),
], ids=["global-order-K", "hamiltonian-K", "k_list", "flag-dt", "dt_list", "methods"])
def test_repeated_run_values_exit_2(tmp_path, capsys, command, ini, flags, key):
    # a repeated K, dt or method used to rerun and overwrite, or list, a run twice
    code, out = _run(tmp_path, command, ini, *flags)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} = ") and err.endswith("needs distinct values\n")


@pytest.mark.parametrize("command, ini, flags, run", [
    ("local-order", "", ("--dt", "4", "2", "1", "0.5"), r"K = 3 at dt = (4\.0|2\.0|1\.0|0\.5)"),
    ("integrate", STIFF, (), r"K = 1 at dt = 0\.01 in the step from t = 0\.0"),
    ("local-order", STIFF, (), r"K = 3 at dt = [0-9.e-]+"),
], ids=["local-order-dt", "integrate-stiff", "local-order-stiff"])
def test_divergence_exits_3(tmp_path, capsys, command, ini, flags, run):
    # a run whose SDC iterate diverges ends in one error line, not a traceback,
    # naming the sweep, K and dt and, in a march, the time the step started
    code, _ = _run(tmp_path, command, ini, *flags)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert re.fullmatch(r"error: SDC iterate exceeded 1e\+08 or is not finite in sweep \d+"
                        rf" of {run}\n", err)


OVERFLOW = "[run]\nt_end = 1e300\ndt_list = 1e300\n"


@pytest.mark.parametrize("python_flags", [(), ("-W", "error")], ids=["default", "W-error"])
@pytest.mark.parametrize("command, ini, flags", [
    ("integrate", OVERFLOW, ()),
    ("local-order", "", ("--dt", "1e300", "1e299", "1e298", "1e297")),
    ("hamiltonian", "[run]\nhamiltonian_dt = 1e300\nn_steps = 100\n", ()),
], ids=["integrate", "local-order", "hamiltonian"])
def test_overflowing_run_prints_its_error_line_alone(tmp_path, command, ini, flags,
                                                     python_flags):
    # these steps overflow before the guard fails the sweep, in forked children
    # too for local-order; a CLI run computes with NumPy's warnings off, so it
    # prints its error line alone even where every warning is an error.  A
    # fresh process has the warning filters a user has, not this one's
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini)
    src = str(Path(vvsdc.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, *python_flags, "-m", "vvsdc.cli", command,
                          "--config", str(cfg), "--out", str(tmp_path / "out"), *flags],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3
    assert run.stderr.startswith("error: SDC iterate exceeded") and run.stderr.count("\n") == 1


def _overflow(x):
    return np.float64(x) * 1e300   # inf, where NumPy warns by default


def _overflowing_table(cfg):
    yield "overflow", "overflow.csv", ["x"], [[_overflow(1e300)]]


def _overflowing_children(cfg):
    yield "overflow", "overflow.csv", ["x"], [
        harness._map(_overflow, [1e300, 1e299], cost=lambda x: 1.0)]


@pytest.mark.parametrize("command, ini, tables, exit_code, rows, forked", [
    ("nodes", "", _overflowing_table, 0, [[np.inf]], 0),
    ("integrate", OVERFLOW, None, 3, None, 0),
    ("nodes", "", _overflowing_children, 0, [[np.inf], [np.inf]], 1),
], ids=["table", "integrate", "forked-child"])
def test_a_run_shows_no_floating_point_warning(tmp_path, monkeypatch, capsys, command, ini,
                                               tables, exit_code, rows, forked):
    # a CLI run reports an overflow only in its error line or as an inf in a
    # table: with every warning an error, none escapes main, from this process
    # or from the child that _map forks on two CPUs
    if tables is not None:
        monkeypatch.setitem(COMMANDS, command, ({}, {"M", "nodes"}, tables))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, command, ini)
    err = capsys.readouterr().err
    assert code == exit_code and len(forks) == forked
    if exit_code:
        assert err.startswith("error: SDC iterate exceeded") and err.count("\n") == 1
    else:
        assert err == "" and read_csv(str(out / "overflow.csv"))[1] == rows


@pytest.mark.parametrize("ini, exit_code", [(STIFF, 3), ("[run]\ndt_list = 0.1 0.1\n", 2)],
                         ids=["divergence", "bad-setting"])
def test_failed_run_leaves_no_summary(tmp_path, capsys, ini, exit_code):
    # summary.csv is written last and removed as a run starts, so it is there
    # only if the last run into the directory exited 0
    code, out = _run(tmp_path, "integrate", TINY)
    assert code == 0 and _listed(out) == {"integrate": "trajectory.csv"}
    code, _ = _run(tmp_path, "integrate", ini)
    assert code == exit_code
    assert not (out / "summary.csv").exists()


def test_repeated_start_components_are_accepted(tmp_path):
    # x0 and v0 are vectors, not lists of runs: a component may repeat
    code, out = _run(tmp_path, "integrate",
                     "[problem]\nx0 = 10 0 0\nv0 = 1 1 1\n[run]\nt_end = 0.02\n")
    assert code == 0
    _, rows = read_csv(str(out / "trajectory.csv"))
    assert len(rows) == 2
    assert rows[0][1:4] == pytest.approx([10.0, 0.0, 0.0], abs=0.05)   # x after 0.01

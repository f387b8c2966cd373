import math
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import read_csv
from vvsdc import (ConfigurationError, DivergenceError, GuessStrategy,
                   NodeFamily, SecondOrderIVP, SolverError, SweeperConfig, build_rule,
                   exact_solution, integrate, make_oscillator, picard_iterate,
                   update_step)
from vvsdc import harness
from vvsdc.baselines import integrate_rkn4, integrate_verlet
from vvsdc.cli import _order
from vvsdc.harness import (CONFIG_KEYS, WORK_PRECISION_METHODS, ExperimentConfig,
                           _drift_from_matrix, _march_linear, _processes, _rkn4_stepper,
                           _step_map, fit_slope, load_config, run_global_order,
                           run_hamiltonian_drift, run_local_order, run_work_precision,
                           write_csv)
from vvsdc.sdc import march

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.problem == "penning"
        assert cfg.M == 3
        assert cfg.initial_guess is GuessStrategy.RANDOM

    def test_load(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[problem]\nkind = oscillator\nkappa = 2.0\n"
            "[rule]\nfamily = lobatto\nm = 4\n"
            "[sweeper]\nk_list = 1 2\ninitial_guess = verlet\nseed = 7\n"
            "[run]\ndt_list = 0.1 0.05\nt_end = 1.5\n")
        cfg = load_config(str(path))
        assert cfg.problem == "oscillator"
        assert cfg.kappa == 2.0
        assert cfg.family is NodeFamily.GAUSS_LOBATTO
        assert cfg.M == 4
        assert cfg.K_list == (1, 2)
        assert cfg.initial_guess is GuessStrategy.VERLET_SWEEP
        assert cfg.seed == 7
        assert cfg.dt_list == (0.1, 0.05)
        assert cfg.t_end == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nnot_a_key = 1\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    @pytest.mark.parametrize("line", [
        "kappa_max = inf", "mu_max = nan", "kappa_cells = 0", "mu_cells = -1"])
    def test_bad_grid_rejected(self, tmp_path, line):
        path = tmp_path / "grid.ini"
        path.write_text(f"[run]\n{line}\n")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/file.ini")

    @pytest.mark.parametrize("text", [
        "[rule]\nm = abc\n", "[run]\ndt_list = 0.1 x\n",
        "[sweeper]\ninitial_guess = bogus\n", "[problem]\nx0 = 1 2\n",
        "[problem]\nv0 = 1 2 3 4\n", "[sweeper]\nk_list =\n", "[run]\nmethods =\n",
        "m = 3\n", "[sweeper]\nk_list = 2 -1\n", "[sweeper]\nseed = -1\n"],
        ids=["m", "dt_list", "initial_guess", "x0", "v0", "empty_k_list", "empty_methods",
             "no_section", "negative_k_list", "negative_seed"])
    def test_malformed_value_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    @pytest.mark.parametrize("line", ["kind = global-order", "out = results"])
    def test_dead_run_keys_rejected(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[run]\n{line}\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(str(path))

    def test_nested_fields_keep_their_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[problem]\nomega_b = 5\n[run]\nmu_cells = 7\n")
        cfg = load_config(str(path))
        default = ExperimentConfig()
        assert cfg.penning == replace(default.penning, omega_b=5.0)
        assert cfg.grid == replace(default.grid, mu_cells=7)

    def test_readme_matches_schema(self, tmp_path):
        text = README.read_text()
        example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = load_config(str(path))
        assert cfg.K_list == (1, 2, 3) and len(cfg.dt_list) == 4
        # the key table: one "| `[section]` | `key` | ..." row per schema key
        documented = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", text, re.M)
        assert documented == list(CONFIG_KEYS)

    def test_readme_quick_start_runs(self, capsys):
        # the python block runs as written, so a changed signature cannot
        # leave it stale; Penning with the copy start costs M K + 1 = 10
        # f-evals per step, over 200 steps
        code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        exec(compile(code, str(README), "exec"), {})
        assert capsys.readouterr().out.split()[-1] == "2000"


class TestFitSlope:
    def test_recovers_exact_power_law(self):
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = 3.0 * dts ** 2.5
        slope, resid, n = fit_slope(dts, errs)
        assert slope == pytest.approx(2.5, abs=1e-10)
        assert n == 4

    def test_excludes_saturated_points(self):
        dts = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
        errs = np.array([1e-2, 1e-4, 1e-6, 1e-14, 1e-15])
        slope, _, n = fit_slope(dts, errs)
        assert n == 3
        assert slope == pytest.approx(np.log(1e-2 / 1e-6) / np.log(4), abs=1e-9)

    def test_too_few_points(self):
        slope, _, n = fit_slope([0.1, 0.05], [1e-14, 1e-15])
        assert np.isnan(slope) and n == 0


class TestOrderRuns:
    def test_local_order_oscillator(self):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, M=2,
                               K_list=(1,), dt_list=(0.2, 0.1, 0.05, 0.025))
        report = run_local_order(cfg)
        assert "K1_x1" in report.slopes and "K1_v1" in report.slopes
        assert np.isfinite(report.slopes["K1_x1"])
        # velocity-independent force: two orders per iteration
        assert report.predicted["K1_v1"] == min(2 * cfg.M, 2 * 1 + 0 + 1)

    def test_global_order_needs_enough_points(self):
        cfg = ExperimentConfig(dt_list=(0.1, 0.05))
        with pytest.raises(ConfigurationError):
            run_global_order(cfg)

    def test_report_rows_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, M=2,
                               K_list=(1,), dt_list=(0.2, 0.1, 0.05, 0.025))
        report = run_local_order(cfg)
        _, _, header, columns = next(_order(lambda cfg: report, "local_order", cfg))
        assert header == ["dt", "K1_v1", "K1_x1"]
        path = tmp_path / "report.csv"
        write_csv(str(path), header, columns)
        header2, rows = read_csv(str(path))
        assert header2 == header
        # every error is read back exactly, one row per dt
        assert np.array_equal(np.array(rows), np.column_stack(
            [report.dts, report.errors["K1_v1"], report.errors["K1_x1"]]))


def test_work_precision_rows():
    cfg = ExperimentConfig(K_list=(2,), dt_list=(0.02, 0.01),
                           methods=("sdc", "picard", "rkn4"), t_end=0.5)
    rows = run_work_precision(cfg)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"method", "K", "dt", "f_evals", "err1", "err3"}
        assert row["f_evals"] > 0
    sdc = [r for r in rows if r["method"] == "sdc"]
    rkn = [r for r in rows if r["method"] == "rkn4"]
    # RK4 on the companion system: exactly 4 evaluations per step
    assert rkn[0]["f_evals"] == 4 * round(0.5 / 0.02)
    assert all(np.isfinite(r["err1"]) for r in sdc)


def test_work_precision_unknown_method():
    cfg = ExperimentConfig(methods=("simpson",), dt_list=(0.01,))
    with pytest.raises(ConfigurationError):
        run_work_precision(cfg)


def test_diverging_verlet_reads_inf():
    # verlet passes the divergence guard at dt 0.5 before t_end = 50, and its
    # row reads inf, as rkn4's does, with the evaluations spent up to there
    cfg = ExperimentConfig(methods=("rkn4", "verlet"), t_end=50.0, dt_list=(0.5, 0.1))
    rows = {(r["method"], r["dt"]): r for r in run_work_precision(cfg)}
    problem = cfg.make_problem()
    with pytest.raises(DivergenceError, match="^Verlet state exceeded"):
        integrate_verlet(problem, cfg.initial_value(), 0.0, cfg.t_end, 0.5)
    assert problem.f_evals < 50.0 / 0.5 + 1
    assert rows["verlet", 0.5] == {"method": "verlet", "K": 0, "dt": 0.5,
                                   "f_evals": problem.f_evals,
                                   "err1": math.inf, "err3": math.inf}
    assert rows["rkn4", 0.5]["err1"] == math.inf
    assert math.isfinite(rows["verlet", 0.1]["err3"])
    assert rows["verlet", 0.1]["f_evals"] == 500 + 1


def _direct_rows(cfg):
    """Work-precision rows of sdc, picard and rkn4, every run stepped directly."""
    rule = build_rule(cfg.family, cfg.M)
    u0 = cfg.initial_value()
    xe, _ = exact_solution(cfg.make_problem(), cfg.t_end, *u0)

    def run(method, K, problem, dt):
        if method == "sdc":
            sw = SweeperConfig(rule=rule, K=K, initial_guess=GuessStrategy.COPY_INITIAL)
            return integrate(problem, u0, 0.0, cfg.t_end, dt, sw)[1][-1].x_end
        if method == "rkn4":
            return integrate_rkn4(problem, u0, 0.0, cfg.t_end, dt)[1][-1]

        def step(u, h):
            state, _, F = picard_iterate(problem, u, h, rule, K=K)
            u = update_step(state, u, h, rule, forces=F)
            return u, u[0]
        return march(step, u0, 0.0, cfg.t_end, dt)[1][-1]

    rows = []
    for method in cfg.methods:
        for K in (0,) if method == "rkn4" else cfg.K_list:
            for dt in cfg.dt_list:
                problem = cfg.make_problem()
                try:
                    x_end = run(method, K, problem, dt)
                except DivergenceError:
                    x_end = np.full(problem.d, math.inf)
                err = np.abs(x_end - xe) / np.abs(xe)
                rows.append({"method": method, "K": K, "dt": dt,
                             "f_evals": problem.f_evals,
                             "err1": float(err[0]), "err3": float(err[-1])})
    return rows, xe


def _assert_rows_match(cfg, rows, direct, xe):
    """f-evals equal; errors equal, or within a round-off bound for finite runs.

    Each step rounds at eps of the state's size, which is about max |u0| in
    the bounded Penning motion and (1 + err) times that in a run that grows,
    so n steps move an end position by about n eps (1 + err) max |u0|.
    """
    assert [(r["method"], r["K"], r["dt"], r["f_evals"]) for r in rows] == \
        [(r["method"], r["K"], r["dt"], r["f_evals"]) for r in direct]
    scale = np.abs(np.concatenate(cfg.initial_value())).max()
    for row, ref in zip(rows, direct):
        if not math.isfinite(ref["err1"]):
            assert row == ref
            continue
        n_steps = math.ceil(cfg.t_end / row["dt"] - 1e-9)
        for key, x in (("err1", xe[0]), ("err3", xe[-1])):
            bound = n_steps * np.finfo(float).eps * (1.0 + ref[key]) * scale / abs(x)
            assert abs(row[key] - ref[key]) <= bound, (row, ref)


class TestWorkPrecisionMap:
    # Picard diverges on all of this ladder and rkn4 at dt 0.2 and 0.4
    DIVERGING = ExperimentConfig(K_list=(1, 2), dt_list=(0.1, 0.2, 0.4),
                                 methods=("sdc", "picard", "rkn4"))

    def test_matches_direct_stepping(self):
        # a short last step (0.5 / 0.04) needs a second probed map
        cfg = ExperimentConfig(K_list=(1, 2), dt_list=(0.04, 0.02, 0.01), t_end=0.5)
        direct, xe = _direct_rows(cfg)
        _assert_rows_match(cfg, run_work_precision(cfg), direct, xe)

    def test_diverged_runs_are_stepped_directly(self):
        # Picard diverges on all of this ladder and rkn4 at dt 0.2 and 0.4;
        # both stop part-way, so their rows (inf, f-evals up to the
        # divergence) are the stepper's only if the run is repeated
        # directly; SDC stays finite here
        cfg = self.DIVERGING
        direct, xe = _direct_rows(cfg)
        diverged = [(r["method"], r["dt"]) for r in direct
                    if not math.isfinite(r["err1"])]
        assert sorted(diverged) == sorted(
            [("picard", dt) for dt in cfg.dt_list] * 2 + [("rkn4", 0.2), ("rkn4", 0.4)])
        for r in direct:
            if r["method"] == "rkn4" and r["dt"] > 0.1:   # stopped part-way
                assert r["f_evals"] < 4 * math.ceil(cfg.t_end / r["dt"] - 1e-9)
        _assert_rows_match(cfg, run_work_precision(cfg), direct, xe)


class TestStepMap:
    def test_needs_linear_parts(self):
        problem = SecondOrderIVP(d=1, force=lambda x, v: -x ** 3,
                                 velocity_dependent=np.array([False]))
        with pytest.raises(ConfigurationError, match="linear parts"):
            _step_map(problem, _rkn4_stepper(problem), 0.1)

    def test_probes_must_spend_the_same(self):
        problem = make_oscillator(1.0, 0.0)

        def step(u, h):   # one extra evaluation when v = 0
            if not u[1].any():
                problem.f(*u)
            return u
        with pytest.raises(ConfigurationError, match="no fixed cost"):
            _step_map(problem, step, 0.1)

    def test_affine_offset(self):
        problem = make_oscillator(1.0, 0.0)
        S, c, evals = _step_map(problem, lambda u, h: (2.0 * u[0] + h, u[1] - u[0]), 0.5)
        assert S.tolist() == [[2.0, 0.0], [-1.0, 1.0]]
        assert c.tolist() == [0.5, 0.0] and evals == 0

    @pytest.mark.parametrize("growth", [2e8, math.inf, math.nan])
    def test_march_guard(self, growth):
        # the first marched state is past the guard or not finite, so the
        # run is stepped directly; this stepper never raises, so its own
        # two steps are what comes back
        problem = make_oscillator(1.0, 0.0)
        calls = []

        def step(u, h):
            calls.append(h)
            return growth * u[0], u[1]
        with np.errstate(invalid="ignore"):
            x_end, f_evals = _march_linear(problem, step, (np.array([1.0]), np.array([0.0])),
                                           1.0, 0.5)
        np.testing.assert_array_equal(x_end, [growth * growth])
        assert f_evals == 0
        assert calls == [0.5] * (3 + 2)   # three probes of the map, two direct steps


def _drift_per_step(S, u0, n_steps):
    """The drift loop that evaluates the energy error at every step: the
    reference of _drift_from_matrix's (steps, rel_error, max_rel_error)."""
    x, v = float(u0[0]), float(u0[1])
    h0 = 0.5 * (x * x + v * v)
    steps, series = [], []
    max_err = 0.0
    (s00, s01), (s10, s11) = S.tolist()
    for n in range(1, n_steps + 1):
        x, v = s00 * x + s01 * v, s10 * x + s11 * v
        err = abs(0.5 * (x * x + v * v) - h0) / h0
        if err > max_err:
            max_err = err
        if n % harness._SUBSAMPLE == 0:
            steps.append(n)
            series.append(err)
    return np.array(steps), np.array(series), max_err


def _default_drift_maps():
    """The one-step maps of `vvsdc hamiltonian` with its defaults."""
    cfg = ExperimentConfig(problem="oscillator", K_list=(2, 3, 4))
    problem = cfg.make_problem()
    steppers = [harness._sdc_stepper(problem, SweeperConfig(
        rule=build_rule(cfg.family, M), K=K, initial_guess=GuessStrategy.VERLET_SWEEP))
        for M in (3, 5) for K in cfg.K_list] + [_rkn4_stepper(problem)]
    return [_step_map(problem, step, cfg.hamiltonian_dt)[0] for step in steppers]


class TestHamiltonianDrift:
    ROTATION = np.array([[math.cos(0.6), math.sin(0.6)], [-math.sin(0.6), math.cos(0.6)]])

    @pytest.mark.parametrize("n_steps", [30, 12345, 100_000])
    @pytest.mark.parametrize("maps", ["rotation", "growing", "decaying", "default"])
    def test_blocked_loop_is_the_per_step_loop(self, maps, n_steps):
        # the growing map reaches inf and then nan, the decaying one underflows
        S_list = {"rotation": lambda: [self.ROTATION], "growing": lambda: [1.5 * self.ROTATION],
                  "decaying": lambda: [0.5 * self.ROTATION], "default": _default_drift_maps}
        for S in S_list[maps]():
            steps, series, max_err = _drift_per_step(S, (1.0, 0.0), n_steps)
            drift = _drift_from_matrix(S, (1.0, 0.0), n_steps, maps)
            assert drift.steps.dtype == steps.dtype and np.array_equal(drift.steps, steps)
            assert np.array_equal(drift.rel_error, series, equal_nan=True)
            assert drift.max_rel_error == max_err
            if maps == "growing" and n_steps > 30:
                assert np.isinf(series).any() and np.isnan(series[-1])
            if maps == "decaying" and n_steps > 30:
                assert series[-1] == 1.0

    def test_requires_undamped_oscillator(self):
        with pytest.raises(ConfigurationError):
            run_hamiltonian_drift(ExperimentConfig(problem="penning"))

    def test_requires_unit_stiffness(self):
        # the energy 0.5 (x^2 + v^2) and the 2 pi / 10 step assume kappa = 1
        with pytest.raises(ConfigurationError):
            run_hamiltonian_drift(ExperimentConfig(problem="oscillator", kappa=2.0))

    def test_short_run_is_bounded(self):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(3,), n_steps=2000)
        series = run_hamiltonian_drift(cfg, M_list=(3,))
        labels = {s.label for s in series}
        assert labels == {"sdc_M3_K3", "rkn4"}
        sdc = next(s for s in series if s.label.startswith("sdc"))
        assert sdc.max_rel_error < 1e-2
        assert len(sdc.steps) == 200

    # the trend is fitted to block maxima of the subsampled series: one
    # point gave a slope with stderr inf, two a slope with stderr 0
    @pytest.mark.parametrize("n_steps", [0, 9, 10, 20, 29])
    def test_needs_three_subsamples_of_steps(self, n_steps):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(3,), n_steps=n_steps)
        with pytest.raises(ConfigurationError, match="n_steps >= 30"):
            run_hamiltonian_drift(cfg, M_list=(3,))

    def test_three_subsamples_fit_a_trend(self):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(3,), n_steps=30)
        for series in run_hamiltonian_drift(cfg, M_list=(3,)):
            assert len(series.steps) == 3
            assert 0.0 < series.trend_stderr < math.inf

    def test_no_K_is_conservative(self):
        # the numbers run_hamiltonian_drift's docstring gives: at M = 3 the
        # one-step map's |lambda| - 1 changes sign with every sweep
        cfg = ExperimentConfig(problem="oscillator")
        for K, growth in ((2, -3.35e-8), (3, 2.18e-10), (4, -1.42e-12)):
            sw = SweeperConfig(rule=build_rule(cfg.family, 3), K=K,
                               initial_guess=GuessStrategy.VERLET_SWEEP)
            problem = cfg.make_problem()
            S = _step_map(problem, harness._sdc_stepper(problem, sw), cfg.hamiltonian_dt)[0]
            assert np.abs(np.linalg.eigvals(S)).max() - 1.0 == pytest.approx(growth, rel=5e-3)

    def test_fast_path_matches_direct_stepping(self):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(2,), n_steps=300)
        fast = run_hamiltonian_drift(cfg, M_list=(3,))
        a = next(s for s in fast if s.label.startswith("sdc"))
        # the same run stepped through the integrator itself
        sw = SweeperConfig(rule=build_rule(cfg.family, 3), K=2,
                           initial_guess=GuessStrategy.VERLET_SWEEP)
        dt = cfg.hamiltonian_dt
        _, results = integrate(cfg.make_problem(), (1.0, 0.0), 0.0,
                               cfg.n_steps * dt, dt, sw)
        assert len(results) == cfg.n_steps
        energy = np.array([0.5 * (r.x_end[0] ** 2 + r.v_end[0] ** 2)
                           for r in results])
        direct = np.abs(energy - 0.5)[a.steps - 1] / 0.5
        assert a.rel_error == pytest.approx(direct, rel=1e-8, abs=1e-12)


class TestMap:
    """``harness._map`` shares runs between the caller and forked children."""

    ORDER = ExperimentConfig(M=2, K_list=(1, 2, 3), t_end=0.2,
                             dt_list=(0.05, 0.025, 0.0125, 0.00625))
    DRIFT = ExperimentConfig(problem="oscillator", K_list=(2, 3), n_steps=300)
    WORK = replace(TestWorkPrecisionMap.DIVERGING, methods=WORK_PRECISION_METHODS)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The calls of os.fork, counted in this process."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(None)
            return fork()
        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def shared_and_serial(self, monkeypatch, forks, run, cfg, n, items):
        self.cpus(monkeypatch, n)
        shared = run(cfg)
        assert len(forks) == min(n, items) - 1
        self.cpus(monkeypatch, 1)
        serial = run(cfg)
        assert len(forks) == min(n, items) - 1
        return shared, serial

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("run", [run_global_order, run_local_order])
    def test_order_report_is_the_serial_one(self, monkeypatch, forks, run, n):
        shared, serial = self.shared_and_serial(monkeypatch, forks, run, self.ORDER, n,
                                                len(self.ORDER.K_list) * 4)
        assert np.array_equal(shared.dts, serial.dts)
        assert shared.errors.keys() == serial.errors.keys()
        for label, errors in serial.errors.items():
            assert np.array_equal(shared.errors[label], errors)
        assert all(math.isfinite(s) for s in serial.slopes.values())
        assert shared.slopes == serial.slopes
        assert shared.predicted == serial.predicted

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_drift_series_are_the_serial_ones(self, monkeypatch, forks, n):
        shared, serial = self.shared_and_serial(monkeypatch, forks, run_hamiltonian_drift,
                                                self.DRIFT, n, 5)
        assert [s.label for s in shared] == [s.label for s in serial]
        for a, b in zip(shared, serial):
            for name, value in vars(b).items():
                assert np.array_equal(getattr(a, name), value), (a.label, name)

    @pytest.mark.parametrize("n", [2, 3])
    def test_work_precision_rows_are_the_serial_ones(self, monkeypatch, forks, n):
        shared, serial = self.shared_and_serial(monkeypatch, forks, run_work_precision,
                                                self.WORK, n, 2 * 2 * 3 + 2 * 3)
        assert shared == serial
        errors = {math.isfinite(row["err1"]) for row in serial}
        assert errors == {True, False}

    def test_unknown_work_precision_method_fails_before_the_fork(self, monkeypatch, forks):
        self.cpus(monkeypatch, 2)
        with pytest.raises(ConfigurationError, match="'bogus'"):
            run_work_precision(replace(self.WORK, methods=("sdc", "bogus")))
        assert forks == []

    @pytest.mark.parametrize("run, cfg, target, calls", [
        (run_hamiltonian_drift, DRIFT, "_step_map", 5),
        (run_local_order, ORDER, "exact_solution", 4),
        (run_work_precision, WORK, "exact_solution", 1),
    ], ids=["hamiltonian", "local-order", "work-precision"])
    def test_lapack_work_runs_before_the_fork(self, monkeypatch, forks, run, cfg, target,
                                              calls):
        # the exact solutions take expm, whose first call imports scipy.linalg:
        # run in the caller before it forks, the import is made once and not
        # again in every child; the step maps are probed there too
        caller, seen = os.getpid(), []
        original = getattr(harness, target)

        def counted(*args):
            if os.getpid() == caller:
                seen.append(len(forks))
            return original(*args)
        monkeypatch.setattr(harness, target, counted)
        self.cpus(monkeypatch, 2)
        run(cfg)
        assert len(forks) == 1 and seen == [0] * calls

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_without_fork_or_affinity(self, monkeypatch, missing):
        monkeypatch.delattr(os, missing)
        assert _processes(10) == 1

    def failing_integrate(self, monkeypatch, where, exc):
        """harness.integrate raising ``exc`` in the caller (``where`` = "caller")
        or in every child, and integrating as before in the others."""
        caller = os.getpid()

        def run(*args):
            if (os.getpid() == caller) == (where == "caller"):
                raise exc
            return integrate(*args)
        monkeypatch.setattr(harness, "integrate", run)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exception_reaches_the_caller(self, monkeypatch, forks):
        self.cpus(monkeypatch, 2)
        self.failing_integrate(monkeypatch, "child", SolverError("no convergence at node 2"))
        with pytest.raises(SolverError) as raised:
            run_global_order(self.ORDER)
        assert type(raised.value) is SolverError
        assert str(raised.value) == "no convergence at node 2"
        assert "in worker process" in str(raised.value.__cause__)
        assert len(forks) == 1
        self.assert_no_child_left()

    @pytest.mark.parametrize("exc", [SolverError("no convergence at node 2"),
                                     KeyboardInterrupt()], ids=["SolverError", "interrupt"])
    def test_caller_exception_leaves_no_child(self, monkeypatch, forks, exc):
        self.cpus(monkeypatch, 2)
        self.failing_integrate(monkeypatch, "caller", exc)
        with pytest.raises(type(exc)):
            run_global_order(self.ORDER)
        assert len(forks) == 1
        self.assert_no_child_left()


def test_csv_full_precision_roundtrip(tmp_path):
    path = tmp_path / "vals.csv"
    write_csv(str(path), ["a", "b", "c"],
              [[np.pi, 1.0 / 3.0, -0.1], np.array([7, 8, 9]), ["x", "label", "y"]])
    _, rows = read_csv(str(path))
    assert [row[0] for row in rows] == [np.pi, 1.0 / 3.0, -0.1]
    assert [row[1] for row in rows] == [7, 8, 9]
    assert [row[2] for row in rows] == ["x", "label", "y"]


def _write_csv_per_cell(path, header, columns):
    """write_csv formatting each cell on its own: the reference of its one ``%``."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    cells = [map("{:.17g}".format if any(isinstance(x, float) for x in c) else str, c)
             for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e308]))
CELLS = {
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "int": st.integers(),
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "bool": st.booleans(),
    "str": st.text(st.characters(blacklist_categories=("Cs",))),
    "int and float": st.one_of(st.integers(-2 ** 64, 2 ** 64), st.booleans(), FLOATS),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4)):
        cells = draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        if kind in ("float", "np.int64") and draw(st.booleans()):
            cells = np.array(cells, dtype=float if kind == "float" else np.int64)
        columns.append(cells)
    return columns


def _assert_per_cell_bytes(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = os.path.join(tmp, "one.csv"), os.path.join(tmp, "ref.csv")
        write_csv(path, header, columns)
        _write_csv_per_cell(reference, header, columns)
        assert Path(path).read_bytes() == Path(reference).read_bytes()


class TestWriteCsv:
    @settings(deadline=None, max_examples=300)
    @given(columns=_tables(), chunk=st.integers(1, 5))
    def test_one_format_writes_the_per_cell_bytes(self, columns, chunk):
        # tables of up to 12 rows in chunks of up to 5: none, one, several,
        # with a full or a partial last chunk
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_CSV_ROWS", chunk)
            _assert_per_cell_bytes(columns)

    @pytest.mark.parametrize("chunks", [2, 2.5])
    def test_tables_of_several_chunks_write_the_per_cell_bytes(self, chunks):
        rng = np.random.default_rng(7)
        n_rows = int(chunks * harness._CSV_ROWS)
        _assert_per_cell_bytes([np.arange(n_rows), rng.normal(size=n_rows),
                                [str(x) for x in rng.integers(-9, 9, n_rows)],
                                [(0.5, 1, True)[i] for i in rng.integers(0, 3, n_rows)]])

    def test_columns_are_written_whole(self, tmp_path):
        # floats at %.17g, ints and strings as str; an array is taken as its values
        path = tmp_path / "cols.csv"
        floats = np.array([np.pi, 1e-300, np.nan, np.inf])
        write_csv(str(path), ["f", "i", "s"], [floats, range(4), ("a", "b", "c", "d")])
        assert path.read_text() == ("f,i,s\n3.1415926535897931,0,a\n1e-300,1,b\n"
                                    "nan,2,c\ninf,3,d\n")
        _, rows = read_csv(str(path))
        assert np.array_equal(np.array([row[0] for row in rows]), floats, equal_nan=True)

    def test_a_column_with_a_float_is_written_at_full_precision(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_csv(str(path), ["x", "n"], [[1, 0.1], np.array([5, 6], dtype=np.int64)])
        assert path.read_text() == "x,n\n1,5\n0.10000000000000001,6\n"

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [[1.0, 2.0], [3]]),
        (["a", "b"], [[1.0, 2.0]]),
        (["a"], [[1.0], [2.0]]),
    ], ids=["unequal-lengths", "too-few-columns", "too-many-columns"])
    def test_bad_shape_is_value_error_and_no_file(self, tmp_path, header, columns):
        path = tmp_path / "sub" / "bad.csv"
        with pytest.raises(ValueError, match="header"):
            write_csv(str(path), header, columns)
        assert not path.parent.exists()

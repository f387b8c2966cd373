import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vvsdc import (ConfigurationError, DivergenceError, GuessStrategy,
                   NodeFamily, SecondOrderIVP, SweeperConfig, build_rule,
                   exact_solution, integrate, make_oscillator, picard_iterate,
                   update_step)
from vvsdc.baselines import integrate_rkn4
from vvsdc.harness import (CONFIG_KEYS, ExperimentConfig, _march_map,
                           _rkn4_stepper, _step_map, fit_slope, load_config,
                           order_report_rows, read_csv, run_global_order,
                           run_hamiltonian_drift, run_local_order,
                           run_work_precision, write_csv)
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
        "m = 3\n"],
        ids=["m", "dt_list", "initial_guess", "x0", "v0", "empty_k_list", "empty_methods",
             "no_section"])
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

    def test_k_list_wins_over_k(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[sweeper]\nk_list = 2 4\nk = 3\n")
        assert load_config(str(path)).K_list == (2, 4)

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
        header, rows = order_report_rows(report)
        assert header[0] == "dt"
        assert len(rows) == 4
        path = tmp_path / "report.csv"
        write_csv(str(path), header, rows)
        header2, rows2 = read_csv(str(path))
        assert header2 == header
        assert np.allclose(np.array(rows2, float), np.array(rows, float))


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
        cfg = ExperimentConfig(K_list=(1, 2), dt_list=(0.1, 0.2, 0.4),
                               methods=("sdc", "picard", "rkn4"))
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
        problem = make_oscillator(1.0, 0.0)
        with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
            _march_map(problem, lambda u, h: (growth * u[0], u[1]),
                       (np.array([1.0]), np.array([0.0])), 1.0, 0.5)


class TestHamiltonianDrift:
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

    @pytest.mark.parametrize("n_steps", [0, 9])
    def test_needs_one_subsample_of_steps(self, n_steps):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(3,), n_steps=n_steps)
        with pytest.raises(ConfigurationError, match="n_steps"):
            run_hamiltonian_drift(cfg, M_list=(3,))

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


def test_csv_full_precision_roundtrip(tmp_path):
    path = tmp_path / "vals.csv"
    values = [[np.pi, 1.0 / 3.0, 1e-300], [7, "label", -0.1]]
    write_csv(str(path), ["a", "b", "c"], values)
    _, rows = read_csv(str(path))
    assert rows[0][0] == np.pi
    assert rows[0][1] == 1.0 / 3.0
    assert rows[1][1] == "label"

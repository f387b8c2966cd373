import numpy as np
import pytest

from vvsdc import (ConfigurationError, GuessStrategy, NodeFamily,
                   SweeperConfig, build_rule, integrate)
from vvsdc.harness import (ExperimentConfig, fit_slope, load_config,
                           order_report_rows, read_csv, run_global_order,
                           run_hamiltonian_drift, run_local_order,
                           run_work_precision, write_csv)


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


class TestHamiltonianDrift:
    def test_requires_undamped_oscillator(self):
        with pytest.raises(ConfigurationError):
            run_hamiltonian_drift(ExperimentConfig(problem="penning"))

    def test_short_run_is_bounded(self):
        cfg = ExperimentConfig(problem="oscillator", kappa=1.0, mu=0.0,
                               K_list=(3,), n_steps=2000)
        series = run_hamiltonian_drift(cfg, M_list=(3,))
        labels = {s.label for s in series}
        assert labels == {"sdc_M3_K3", "rkn4"}
        sdc = next(s for s in series if s.label.startswith("sdc"))
        assert sdc.max_rel_error < 1e-2
        assert len(sdc.steps) == 200

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

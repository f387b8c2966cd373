import numpy as np
import pytest

from vvsdc import (AnalysisError, GridSpec, GuessStrategy, NodeFamily, ScanKind,
                   SweeperConfig, build_K_picard, build_K_sdc, build_P_picard,
                   build_P_sdc, build_rule, make_oscillator, rkn4_amplification,
                   scan_domain, sdc_step, spectral_radius, stability_function,
                   stability_limit)
from vvsdc.baselines import rkn4_step
from vvsdc.collocation import solve_collocation_linear
from vvsdc.harness import scan_rows, write_csv

RULE3 = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(np.triu(np.ones((4, 4)), 1)) == pytest.approx(
            0.0, abs=1e-12)

    def test_rotation(self):
        assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == \
            pytest.approx(1.0)


class TestIterationMatrices:
    def test_zero_at_origin(self):
        assert np.all(build_K_sdc(0.0, 0.0, RULE3) == 0)
        assert np.all(build_K_picard(0.0, 0.0, RULE3) == 0)

    def test_node0_rows_stay_zero(self):
        # node-0 values are fixed by the initial condition, so the
        # iteration never writes to them
        Mp1 = RULE3.M + 1
        for builder in (build_K_sdc, build_K_picard):
            K = builder(1.3, 0.4, RULE3)
            assert np.max(np.abs(K[0])) < 1e-14
            assert np.max(np.abs(K[Mp1])) < 1e-14

    def test_contraction_inside_domain(self):
        assert spectral_radius(build_K_sdc(1.0, 0.0, RULE3)) < 1.0

    def test_picard_radius_on_axis(self):
        # Q_vv = 0 makes the iteration matrix block triangular, so on the
        # mu = 0 axis the radius is kappa * rho(QQ)
        for kappa in (1.0, 5.0, 12.0):
            expected = kappa * spectral_radius(RULE3.QQ)
            assert spectral_radius(build_K_picard(kappa, 0.0, RULE3)) == \
                pytest.approx(expected, rel=1e-10)


class TestPropagator:
    def test_K0_is_identity(self):
        P = build_P_sdc(1.0, 0.5, RULE3, 0)
        assert P == pytest.approx(np.eye(2 * (RULE3.M + 1)), abs=1e-13)

    def test_free_flight_at_origin(self):
        Mp1 = RULE3.M + 1
        P = build_P_sdc(0.0, 0.0, RULE3, 3)
        x0, v0 = 2.0, -1.0
        u = P @ np.concatenate([x0 * np.ones(Mp1), v0 * np.ones(Mp1)])
        tau = np.concatenate(([0.0], RULE3.nodes))
        assert u[:Mp1] == pytest.approx(x0 + tau * v0, abs=1e-13)
        assert u[Mp1:] == pytest.approx(v0 * np.ones(Mp1), abs=1e-13)

    def test_converges_to_collocation(self):
        kappa, mu = 1.0, 0.3
        Mp1 = RULE3.M + 1
        P = build_P_sdc(kappa, mu, RULE3, 200)
        x0, v0 = 1.0, 0.0
        u = P @ np.concatenate([x0 * np.ones(Mp1), v0 * np.ones(Mp1)])
        problem = make_oscillator(kappa, mu)
        ref = solve_collocation_linear(problem, (np.array([x0]), np.array([v0])),
                                       1.0, RULE3)
        assert u[:Mp1] == pytest.approx(ref.X[:, 0], abs=1e-8)
        assert u[Mp1:] == pytest.approx(ref.V[:, 0], abs=1e-8)

    def test_picard_propagator_at_origin(self):
        Mp1 = RULE3.M + 1
        P = build_P_picard(0.0, 0.0, RULE3, 5)
        u = P @ np.concatenate([np.ones(Mp1), np.zeros(Mp1)])
        assert u[:Mp1] == pytest.approx(np.ones(Mp1), abs=1e-13)


class TestStabilityFunction:
    def test_free_flight(self):
        R = stability_function(0.0, 0.0, RULE3, 50)
        assert R == pytest.approx(np.array([[1.0, 1.0], [0.0, 1.0]]), abs=1e-13)

    def test_interior_point_stable(self):
        R = stability_function(1.0, 1.0, RULE3, 50)
        assert spectral_radius(R) < 1.0

    def test_unstable_beyond_axis_limit(self):
        R = stability_function(17.0, 0.0, RULE3, 50)
        assert spectral_radius(R) > 1.0

    def test_matches_empirical_one_step_matrix(self):
        # the analytic 2x2 function must equal the map the actual stepper
        # realizes on the linear oscillator at dt = 1
        kappa, mu, K = 0.8, 0.3, 3
        cfg = SweeperConfig(rule=RULE3, K=K,
                            initial_guess=GuessStrategy.COPY_INITIAL)
        S = np.empty((2, 2))
        problem = make_oscillator(kappa, mu)
        for j, (x0, v0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            res = sdc_step(problem, (np.array([x0]), np.array([v0])), 1.0, cfg)
            S[0, j], S[1, j] = res.x_end[0], res.v_end[0]
        R = stability_function(kappa, mu, RULE3, K)
        assert R == pytest.approx(S, abs=1e-12)

    def test_rkn4_matches_empirical(self):
        kappa, mu = 1.7, 0.6
        problem = make_oscillator(kappa, mu)
        S = np.empty((2, 2))
        for j, (x0, v0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            x1, v1 = rkn4_step(problem, np.array([x0]), np.array([v0]), 1.0)
            S[0, j], S[1, j] = x1[0], v1[0]
        assert rkn4_amplification(kappa, mu) == pytest.approx(S, abs=1e-13)


def _cell_matrix(kind, rule, K, dt_kappa, dt_mu):
    """The public one-cell function behind each scan kind."""
    if kind is ScanKind.SDC_CONVERGENCE:
        return build_K_sdc(dt_kappa, dt_mu, rule)
    if kind is ScanKind.PICARD_CONVERGENCE:
        return build_K_picard(dt_kappa, dt_mu, rule)
    if kind is ScanKind.RKN4:
        return rkn4_amplification(dt_kappa, dt_mu)
    return stability_function(dt_kappa, dt_mu, rule, K, kind=kind)


class TestScansAndLimits:
    @pytest.mark.parametrize("kind", list(ScanKind), ids=lambda k: k.value)
    def test_scan_small_grid(self, kind):
        # every stacked cell equals the public one-cell function, exactly
        grid = GridSpec(kappa_max=2.0, mu_max=2.0, kappa_cells=5, mu_cells=4)
        res = scan_domain(kind, RULE3, 3, grid)
        assert res.rho.shape == (5, 4)
        assert np.all(np.isfinite(res.rho)) and res.failures == []
        for i, ka in enumerate(res.kappa):
            for j, m in enumerate(res.mu):
                cell = _cell_matrix(kind, RULE3, 3, ka, m)
                assert res.rho[i, j] == spectral_radius(cell)
        if kind is ScanKind.SDC_CONVERGENCE:
            assert res.rho[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert res.stable_mask().all()

    def test_scan_fallback_on_failed_cells(self):
        # the 1e300 row overflows; the stacked call falls back to one cell at
        # a time, so only that row is NaN and listed as failed
        grid = GridSpec(kappa_max=1e300, mu_max=1.0, kappa_cells=2, mu_cells=3)
        res = scan_domain(ScanKind.SDC_STABILITY, RULE3, 50, grid)
        assert np.all(np.isfinite(res.rho[0]))
        assert np.all(np.isnan(res.rho[1]))
        assert res.failures == [(1e300, m) for m in res.mu]

    def test_scan_csv_roundtrip(self, tmp_path):
        grid = GridSpec(kappa_max=1.0, mu_max=1.0, kappa_cells=3, mu_cells=3)
        res = scan_domain(ScanKind.SDC_STABILITY, RULE3, 2, grid)
        path = tmp_path / "scan.csv"
        write_csv(str(path), *scan_rows(res))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dt_kappa,dt_mu,rho,stable"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(res.rho[0, 0])

    def test_rkn4_axis_limit(self):
        # RK4 on the companion system loses |R| <= 1 at dt*kappa = 8
        # (|lambda dt| = 2 sqrt(2) on the imaginary axis)
        limit = stability_limit(ScanKind.RKN4, RULE3, 0)
        assert limit == pytest.approx(8.0, abs=0.05)

    @pytest.mark.parametrize("kind, M, K", [(ScanKind.SDC_STABILITY, 5, 3),
                                            (ScanKind.PICARD_STABILITY, 2, 2),
                                            (ScanKind.RKN4, 3, 0)])
    def test_limit_matches_cell_by_cell_ladder(self, kind, M, K):
        # reference: the coarse ladder and the bisection one public cell at a
        # time; these limits lie past the first stack of coarse rungs
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)

        def stable(ka):
            try:
                rho = spectral_radius(_cell_matrix(kind, rule, K, ka, 0.0))
            except AnalysisError:
                return False
            return rho <= 1.0 + 1.5e-11
        lo, ka = 0.0, 0.1
        while stable(ka):
            lo, ka = ka, ka + 0.1
        assert lo > 6.4
        hi = ka
        while hi - lo > 0.01:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if stable(mid) else (lo, mid)
        assert stability_limit(kind, rule, K) == 0.5 * (lo + hi)

    def test_limit_zero_when_immediately_unstable(self):
        rule2 = build_rule(NodeFamily.GAUSS_LEGENDRE, 2)
        assert stability_limit(ScanKind.SDC_STABILITY, rule2, 2) == 0.0

import numpy as np
import pytest

from vvsdc import stability
from vvsdc import (AnalysisError, ConfigurationError, GridSpec, GuessStrategy,
                   NodeFamily, NodeState, ScanKind, SweeperConfig, build_K_sdc,
                   build_P_sdc, build_rule, make_oscillator, picard_iterate,
                   scan_domain, spectral_radius, stability_function,
                   stability_limit, update_step)
from vvsdc.collocation import solve_collocation_linear
from vvsdc.harness import (_rkn4_stepper, _sdc_stepper, _step_map, scan_rows,
                           write_csv)

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


def _K_picard(dt_kappa, dt_mu, rule):
    return stability_function(dt_kappa, dt_mu, rule, None, ScanKind.PICARD_CONVERGENCE)


class TestIterationMatrices:
    def test_zero_at_origin(self):
        assert np.all(build_K_sdc(0.0, 0.0, RULE3) == 0)
        assert np.all(_K_picard(0.0, 0.0, RULE3) == 0)

    def test_build_K_sdc_is_stability_function(self):
        K = stability_function(1.3, 0.4, RULE3, None, ScanKind.SDC_CONVERGENCE)
        assert np.array_equal(build_K_sdc(1.3, 0.4, RULE3), K)

    def test_node0_rows_stay_zero(self):
        # node-0 values are fixed by the initial condition, so the
        # iteration never writes to them
        Mp1 = RULE3.M + 1
        for builder in (build_K_sdc, _K_picard):
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
            assert spectral_radius(_K_picard(kappa, 0.0, RULE3)) == \
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
        F = stability._force_operator(np.zeros(1), np.zeros(1), Mp1)
        P = stability._propagator(ScanKind.PICARD_STABILITY, RULE3, 5, F)[0]
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

    # the closed-form 2x2 matrices must equal the map the actual stepper
    # realizes on the linear oscillator at dt = 1, probed by the harness
    def test_matches_empirical_one_step_matrix(self):
        for kappa, mu, K in ((0.8, 0.3, 3), (2.5, 0.0, 2), (4.0, 1.5, 4)):
            cfg = SweeperConfig(rule=RULE3, K=K,
                                initial_guess=GuessStrategy.COPY_INITIAL)
            problem = make_oscillator(kappa, mu)
            S, c, _ = _step_map(problem, _sdc_stepper(problem, cfg), 1.0)
            assert np.all(c == 0.0)
            assert stability_function(kappa, mu, RULE3, K) == pytest.approx(S, abs=1e-12)

    def test_picard_matches_empirical(self):
        # the Picard stability function starts from the replicated U_0
        Mp1 = RULE3.M + 1
        for kappa, mu, K in ((0.5, 0.2, 2), (1.0, 0.0, 3), (2.0, 1.0, 5)):
            problem = make_oscillator(kappa, mu)

            def step(u, h):
                start = NodeState(*(np.repeat(w[None], Mp1, axis=0) for w in u))
                state, _, F = picard_iterate(problem, u, h, RULE3, K=K, initial=start)
                return update_step(state, u, h, RULE3, forces=F)
            S = _step_map(problem, step, 1.0)[0]
            R = stability_function(kappa, mu, RULE3, K, kind=ScanKind.PICARD_STABILITY)
            assert R == pytest.approx(S, abs=1e-12)

    def test_rkn4_matches_empirical(self):
        for kappa, mu in ((1.7, 0.6), (0.3, 0.0), (6.0, 2.5)):
            problem = make_oscillator(kappa, mu)
            S = _step_map(problem, _rkn4_stepper(problem), 1.0)[0]
            R = stability_function(kappa, mu, RULE3, None, kind=ScanKind.RKN4)
            assert R == pytest.approx(S, abs=1e-12)

    @pytest.mark.parametrize("kind", [ScanKind.SDC_STABILITY, ScanKind.PICARD_STABILITY])
    @pytest.mark.parametrize("K", [None, -1, 2.0])
    def test_stability_kinds_need_a_sweep_count(self, kind, K):
        # a negative K would invert the singular iteration matrix, and None
        # or a float has no matrix power
        with pytest.raises(ConfigurationError, match="K must be an integer >= 0"):
            stability_function(1.0, 0.5, RULE3, K, kind=kind)
        with pytest.raises(ConfigurationError, match="K must be an integer >= 0"):
            build_P_sdc(1.0, 0.5, RULE3, K)
        grid = GridSpec(kappa_max=1.0, mu_max=1.0, kappa_cells=2, mu_cells=2)
        with pytest.raises(ConfigurationError, match="K must be an integer >= 0"):
            scan_domain(kind, RULE3, K, grid)


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
                cell = stability_function(ka, m, RULE3, 3, kind=kind)
                assert res.rho[i, j] == spectral_radius(cell)
        if kind is ScanKind.SDC_CONVERGENCE:
            assert res.rho[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert res.stable_mask().all()

    @pytest.mark.parametrize("bounds", [{"mu_min": -1e308, "mu_max": 1e308},
                                        {"kappa_min": -1e308, "kappa_max": 1e308}],
                             ids=["mu", "kappa"])
    def test_grid_span_overflow_is_configuration_error(self, bounds):
        # finite bounds whose span overflows would put NaN and inf on the axis
        with pytest.raises(ConfigurationError, match="spans"):
            GridSpec(mu_cells=9, kappa_cells=9, **bounds)

    def test_scan_fallback_on_failed_cells(self):
        # the 1e300 row overflows; the stack is redone in halves down to single
        # cells, so only that row is NaN and listed as failed
        grid = GridSpec(kappa_max=1e300, mu_max=1.0, kappa_cells=2, mu_cells=3)
        res = scan_domain(ScanKind.SDC_STABILITY, RULE3, 50, grid)
        assert np.all(np.isfinite(res.rho[0]))
        assert np.all(np.isnan(res.rho[1]))
        assert res.failures == [(1e300, m) for m in res.mu]

    @pytest.mark.parametrize("M", [3, 5])
    @pytest.mark.parametrize("kind", list(ScanKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("grid, overflowing", [
        # more than one stack, ending in a partial one that splits a kappa row
        (GridSpec(kappa_cells=23, mu_cells=13), ()),
        # the rows at dt*kappa = 5e299 and 1e300 overflow from cell 100 of the first stack
        (GridSpec(kappa_max=1e300, mu_max=2.0, kappa_cells=3, mu_cells=100),
         ("sdc-stability", "sdc-convergence", "picard-stability", "rkn4")),
        # every other cell (dt*mu = 1e300) overflows, all through the first stack
        (GridSpec(kappa_max=2.0, mu_max=1e300, kappa_cells=150, mu_cells=2),
         ("picard-stability", "rkn4")),
    ], ids=["finite", "kappa-overflow", "mu-overflow"])
    def test_stacked_scan_equals_row_by_row(self, grid, overflowing, kind, M):
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        cells = grid.kappa_cells * grid.mu_cells
        assert cells > stability._STACK and cells % stability._STACK
        with np.errstate(all="ignore"):
            res = scan_domain(kind, rule, 3, grid)
            ref = np.stack([stability._rho(kind, rule, 3, np.full_like(res.mu, ka), res.mu)
                            for ka in res.kappa])
        assert res.rho.dtype == ref.dtype and res.rho.shape == ref.shape
        assert np.array_equal(res.rho, ref, equal_nan=True)
        nan_cells = np.argwhere(np.isnan(ref))
        assert res.failures == [(res.kappa[i], res.mu[j]) for i, j in nan_cells]
        first = np.isnan(ref.ravel()[:stability._STACK])
        assert (first.any() and not first.all()) == (kind.value in overflowing)

    def test_one_failed_cell_halves_its_stack(self, monkeypatch):
        # one non-finite cell in the middle of a full stack: the stack and then
        # the failing half at each level are redone, not every cell alone
        grid = GridSpec(kappa_max=2.0, mu_max=2.0, kappa_cells=stability._STACK // 16,
                        mu_cells=16)
        clean = scan_domain(ScanKind.SDC_STABILITY, RULE3, 3, grid)
        bad = (clean.kappa[len(clean.kappa) // 2], clean.mu[9])
        matrix, sizes = stability._matrix, []

        def poisoned(kind, rule, K, kappa, mu):
            sizes.append(len(kappa))
            out = matrix(kind, rule, K, kappa, mu)
            out[(kappa == bad[0]) & (mu == bad[1])] = np.nan
            return out
        monkeypatch.setattr(stability, "_matrix", poisoned)
        res = scan_domain(ScanKind.SDC_STABILITY, RULE3, 3, grid)
        assert res.failures == [bad]
        assert np.array_equal(np.isnan(res.rho), clean.rho != res.rho)
        levels = int(np.ceil(np.log2(stability._STACK)))
        assert sizes[0] == stability._STACK and len(sizes) == 1 + 2 * levels

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
                rho = spectral_radius(stability_function(ka, 0.0, rule, K, kind=kind))
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

import math
import warnings

import numpy as np
import pytest

from conftest import read_csv
from vvsdc import stability
from vvsdc import (AnalysisError, ConfigurationError, GridSpec, GuessStrategy,
                   NodeFamily, NodeState, PenningParams, ScanKind, SweeperConfig,
                   build_K_sdc, build_P_sdc, build_preconditioner, build_rule,
                   make_oscillator, make_penning, picard_iterate, scan_domain,
                   spectral_radius, stability_function, stability_limit, update_step)
from vvsdc.cli import _scan
from vvsdc.collocation import solve_collocation_linear
from vvsdc.harness import ExperimentConfig, _sdc_stepper, _step_map, run_limits, write_csv

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


def _dense(kind, rule, dt_kappa, dt_mu):
    """Dense one-cell oracle on stacked (X, V): the iteration matrix
    (I - Q_pre F)^(-1) (Q_coll - Q_pre) F, M^(-1) C_coll with M = I - Q_pre F, and F."""
    Mp1 = rule.M + 1
    eye, O = np.eye(Mp1), np.zeros((Mp1, Mp1))
    row = np.hstack([-dt_kappa * eye, -dt_mu * eye])
    F = np.vstack([row, row])
    Qcoll = np.block([[rule.QQ, O], [O, rule.Q]])
    if kind in (ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE):
        pre = build_preconditioner(rule)
        Qpre = np.block([[pre.Qx, O], [O, pre.QT]])
    else:
        Qpre = 0 * Qcoll
    Minv = np.linalg.inv(np.eye(2 * Mp1) - Qpre @ F)
    return Minv @ (Qcoll - Qpre) @ F, Minv @ np.block([[eye, rule.Q], [O, eye]]), F


def _dense_propagator(kind, rule, K, dt_kappa, dt_mu):
    """Dense map from U_0 to U^K, in the closed form
    K^K + (I - K^K) (I - K)^(-1) M^(-1) C_coll."""
    Kmat, Minv_C, _ = _dense(kind, rule, dt_kappa, dt_mu)
    eye, Kpow = np.eye(len(Kmat)), np.linalg.matrix_power(Kmat, K)
    return Kpow + (eye - Kpow) @ np.linalg.solve(eye - Kmat, Minv_C)


def _dense_matrix(kind, rule, K, dt_kappa, dt_mu):
    """Dense counterpart of what a scan of ``kind`` takes the spectral radius of."""
    if kind in (ScanKind.SDC_CONVERGENCE, ScanKind.PICARD_CONVERGENCE):
        return _dense(kind, rule, dt_kappa, dt_mu)[0]
    F, zero = _dense(kind, rule, dt_kappa, dt_mu)[2], np.zeros_like(rule.q)
    update = np.block([[rule.qQ, zero], [zero, rule.q]])
    ones_bar = np.kron(np.eye(2), np.ones((rule.M + 1, 1)))   # (x0, v0) -> U_0
    P = _dense_propagator(kind, rule, K, dt_kappa, dt_mu)
    return np.array([[1.0, 1.0], [0.0, 1.0]]) + update @ F @ P @ ones_bar


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestIterationMatrices:
    def test_zero_at_origin(self):
        assert np.all(build_K_sdc(0.0, 0.0, RULE3) == 0)
        assert np.all(_K_picard(0.0, 0.0, RULE3) == 0)

    def test_build_K_sdc_is_stability_function(self):
        # the convergence kind's M x M matrix is A[1:, 1:]; by the push-through
        # identity its eigenvalues are the nonzero ones of the full-size K_sdc
        K = build_K_sdc(1.3, 0.4, RULE3)
        A = stability_function(1.3, 0.4, RULE3, None, ScanKind.SDC_CONVERGENCE)
        assert A.shape == (RULE3.M, RULE3.M)
        for lam in np.linalg.eigvals(A):
            assert abs(lam) > 1e-3
            assert np.linalg.svd(K - lam * np.eye(len(K)), compute_uv=False)[-1] < 1e-13
        assert spectral_radius(A) == pytest.approx(spectral_radius(K), rel=1e-12)

    def test_node0_rows_stay_zero(self):
        # node-0 values are fixed by the initial condition, so the
        # iteration never writes to them; the scan's M x M matrices leave
        # node 0 out altogether
        Mp1 = RULE3.M + 1
        picard = _dense(ScanKind.PICARD_CONVERGENCE, RULE3, 1.3, 0.4)[0]
        for K in (build_K_sdc(1.3, 0.4, RULE3), picard):
            assert np.max(np.abs(K[0])) < 1e-14
            assert np.max(np.abs(K[Mp1])) < 1e-14
        assert _K_picard(1.3, 0.4, RULE3).shape == (RULE3.M, RULE3.M)

    def test_contraction_inside_domain(self):
        assert spectral_radius(build_K_sdc(1.0, 0.0, RULE3)) < 1.0

    def test_picard_radius_on_axis(self):
        # Q_vv = 0 makes the iteration matrix block triangular, so on the
        # mu = 0 axis the radius is kappa * rho(QQ)
        for kappa in (1.0, 5.0, 12.0):
            expected = kappa * spectral_radius(RULE3.QQ)
            assert spectral_radius(_K_picard(kappa, 0.0, RULE3)) == \
                pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("M", [2, 3, 5, 6])
    def test_builders_match_dense_oracle(self, M):
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        rng = np.random.default_rng(M)
        for dt_kappa, dt_mu in rng.uniform(0.0, [20.0, 10.0], size=(20, 2)):
            K = _dense(ScanKind.SDC_STABILITY, rule, dt_kappa, dt_mu)[0]
            assert _rel(build_K_sdc(dt_kappa, dt_mu, rule), K) < 1e-13
            for sweeps in range(4):
                P = _dense_propagator(ScanKind.SDC_STABILITY, rule, sweeps, dt_kappa, dt_mu)
                assert _rel(build_P_sdc(dt_kappa, dt_mu, rule, sweeps), P) < 1e-13

    @staticmethod
    def _check_scan_against_dense(kind, rule):
        grid = GridSpec(kappa_min=0.3, kappa_max=4.0, mu_max=2.0, kappa_cells=4, mu_cells=3)
        res = scan_domain(kind, rule, 3, grid)
        for i, ka in enumerate(res.kappa):
            for j, m in enumerate(res.mu):
                rho = spectral_radius(_dense_matrix(kind, rule, 3, ka, m))
                assert abs(res.rho[i, j] - rho) <= 1e-12 * max(1.0, rho)

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", list(ScanKind), ids=lambda k: k.value)
    def test_scan_matches_dense_spectra(self, kind, M):
        self._check_scan_against_dense(kind, build_rule(NodeFamily.GAUSS_LEGENDRE, M))

    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("family", [NodeFamily.GAUSS_RADAU, NodeFamily.GAUSS_LOBATTO],
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("kind", list(ScanKind), ids=lambda k: k.value)
    def test_scan_matches_dense_spectra_with_endpoint_nodes(self, kind, family, M):
        # a node at tau = 1 (and, for Lobatto, at tau = 0) gives the Verlet
        # preconditioner other rows than Legendre's interior nodes do
        self._check_scan_against_dense(kind, build_rule(family, M))


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
        # no force: Picard from (x0, v0) = (1, 0) stays at x = 1
        R = stability_function(0.0, 0.0, RULE3, 5, ScanKind.PICARD_STABILITY)
        assert R[:, 0] == pytest.approx([1.0, 0.0], abs=1e-13)


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

    @pytest.mark.parametrize("M, dt_kappa, dt_mu, rtol", [
        (2, 12.0, 0.0, 1e-8),      # a near-defective step: rho is sqrt-sensitive to S
        (3, 17.39, 9.95, 1e-10),   # three cells where the SDC iteration diverges
        (3, 18.79, 10.15, 1e-10),
        (3, 19.70, 10.25, 1e-10)])
    def test_rho_matches_stepper_at_K50(self, M, dt_kappa, dt_mu, rtol):
        # K = 50 sweeps applied as sdc_step applies them keep rho at the
        # stepper's; a closed form through (I - K)^(-1) read 1.00256 at (12, 0)
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        cfg = SweeperConfig(rule=rule, K=50, initial_guess=GuessStrategy.COPY_INITIAL)
        problem = make_oscillator(dt_kappa, dt_mu)
        rho = spectral_radius(_step_map(problem, _sdc_stepper(problem, cfg), 1.0)[0])
        scan = spectral_radius(stability_function(dt_kappa, dt_mu, rule, 50))
        assert abs(scan - rho) <= rtol * max(1.0, rho)

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

    @pytest.mark.parametrize("M, K", [(3, 3), (3, 2), (5, 3), (5, 4)])
    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.2])
    def test_penning_step_map_is_three_test_equations(self, M, K, dt):
        # in z = x + iy the in-plane Penning motion is the test equation
        # z'' = -kappa z - mu z' with kappa = eps*omega_E^2 and mu = i*omega_B,
        # its conjugate has mu = -i*omega_B, and the axial motion has
        # kappa = -2*eps*omega_E^2 and mu = 0: the six eigenvalues of the
        # copy-start step map are those of the three cells' 2x2 matrices
        p = PenningParams()
        problem = make_penning(p)
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        cfg = SweeperConfig(rule=rule, K=K, initial_guess=GuessStrategy.COPY_INITIAL)
        probed = list(np.linalg.eigvals(_step_map(problem, _sdc_stepper(problem, cfg), dt)[0]))
        kappa = p.epsilon * p.omega_e**2 * dt**2
        cells = ((kappa, 1j * p.omega_b * dt), (kappa, -1j * p.omega_b * dt), (-2 * kappa, 0.0))
        for lam in np.concatenate([np.linalg.eigvals(stability_function(k, m, rule, K))
                                   for k, m in cells]):
            nearest = probed.pop(int(np.argmin(np.abs(np.array(probed) - lam))))
            assert abs(nearest - lam) <= 1e-13 * max(1.0, abs(lam))

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

    @pytest.mark.parametrize("M", [2, 5])
    @pytest.mark.parametrize("kind", list(ScanKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("grid, poison", [
        (GridSpec(kappa_max=4.0, mu_max=3.0, kappa_cells=7, mu_cells=6), None),
        (GridSpec(kappa_max=4.0, mu_max=3.0, kappa_cells=7, mu_cells=6), (3, 2)),
        (GridSpec(kappa_max=1e300, mu_max=1.0, kappa_cells=2, mu_cells=3), None),
    ], ids=["finite", "one-failed-cell", "overflow-row"])
    def test_scan_equals_one_cell_function(self, grid, poison, kind, M, monkeypatch):
        # both paths of a stack, all cells finite and some masked, give each
        # cell exactly the radius of its one-cell matrix; a failed cell reads
        # NaN in the scan and is an AnalysisError on its own
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        if poison is not None:
            bad = grid.kappa_axis()[poison[0]], grid.mu_axis()[poison[1]]
            matrix = stability._matrix

            def poisoned(kind, rule, K, kappa, mu):
                out = matrix(kind, rule, K, kappa, mu)
                out[(kappa == bad[0]) & (mu == bad[1])] = np.nan
                return out
            monkeypatch.setattr(stability, "_matrix", poisoned)
        res = scan_domain(kind, rule, 3, grid)
        for i, ka in enumerate(res.kappa):
            for j, m in enumerate(res.mu):
                if np.isnan(res.rho[i, j]):
                    with pytest.raises(AnalysisError, match="not finite"):
                        stability_function(ka, m, rule, 3, kind=kind)
                else:
                    assert res.rho[i, j] == spectral_radius(
                        stability_function(ka, m, rule, 3, kind=kind))
        if poison is not None:
            assert res.failures == [bad]
        elif grid.kappa_max < 1e300:
            assert res.failures == []

    @pytest.mark.parametrize("bounds", [{"mu_min": -1e308, "mu_max": 1e308},
                                        {"kappa_min": -1e308, "kappa_max": 1e308}],
                             ids=["mu", "kappa"])
    def test_grid_span_overflow_is_configuration_error(self, bounds):
        # finite bounds whose span overflows would put NaN and inf on the axis
        with pytest.raises(ConfigurationError, match="spans"):
            GridSpec(mu_cells=9, kappa_cells=9, **bounds)

    def test_scan_fallback_on_failed_cells(self):
        # the 1e300 row overflows; its cells' matrices are not finite and are
        # masked in the one pass over the stack, so only that row is NaN and failed
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
         ("sdc-stability", "sdc-convergence", "picard-stability")),
        # every other cell (dt*mu = 1e300) overflows, all through the first stack
        (GridSpec(kappa_max=2.0, mu_max=1e300, kappa_cells=150, mu_cells=2),
         ("picard-stability",)),
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
        if grid.mu_max == 1e300 and kind.value.startswith("sdc"):
            # a closed-form 2x2 radius on unscaled entries reads inf here
            assert np.all(np.isfinite(res.rho))

    def test_one_failed_cell_is_masked_in_one_pass(self, monkeypatch):
        # one non-finite cell in the middle of a full stack: the stack is
        # evaluated once, with no redo, and only that cell reads NaN
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
        assert sizes == [stability._STACK]

    @pytest.mark.parametrize("kind", [ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE])
    @pytest.mark.parametrize("family, M", [(NodeFamily.GAUSS_LEGENDRE, 1),
                                           (NodeFamily.GAUSS_RADAU, 1),
                                           (NodeFamily.GAUSS_LOBATTO, 3)])
    def test_zero_pivot_cell_is_a_failure(self, family, M, kind):
        # at dt*mu = -1/QT[j, j] node j's pivot 1 + dt*mu*QT[j, j] of the
        # Verlet system is exactly zero: that cell reads NaN, its neighbours not
        rule = build_rule(family, M)
        q = build_preconditioner(rule).QT[M, M]
        assert 1.0 + (-1.0 / q) * q == 0.0
        grid = GridSpec(kappa_max=1.0, kappa_cells=2, mu_min=-1.0 / q, mu_max=0.0, mu_cells=2)
        with np.errstate(all="ignore"):
            res = scan_domain(kind, rule, 3, grid)
        assert res.failures == [(0.0, -1.0 / q), (1.0, -1.0 / q)]
        assert np.all(np.isfinite(res.rho[:, 1]))
        with np.errstate(all="ignore"), pytest.raises(AnalysisError, match="not finite"):
            stability_function(0.0, -1.0 / q, rule, 3, kind)

    def test_scan_csv_roundtrip(self, tmp_path):
        # one row per cell, kappa-major, read back exactly; a NaN cell is unstable
        grid = GridSpec(kappa_max=1e300, mu_max=1.0, kappa_cells=3, mu_cells=2)
        cfg = ExperimentConfig(K_list=(2,), grid=grid)
        res = scan_domain(ScanKind.SDC_STABILITY, RULE3, 2, grid)
        _, _, header, columns = next(_scan(ScanKind.SDC_STABILITY, cfg))
        path = tmp_path / "scan.csv"
        write_csv(str(path), header, columns)
        header2, rows = read_csv(str(path))
        assert header2 == ["dt_kappa", "dt_mu", "rho", "stable"]
        cells = [(ka, m, r, s) for ka, rho_row, stable_row
                 in zip(res.kappa, res.rho, res.stable_mask())
                 for m, r, s in zip(res.mu, rho_row, stable_row)]
        assert len(rows) == len(cells) == 6
        for row, (ka, m, r, s) in zip(rows, cells):
            assert row[:2] == [ka, m] and row[3] == int(s)
            assert row[2] == r or (math.isnan(row[2]) and math.isnan(r))
        assert "1\n" in path.read_text() and ",nan,0\n" in path.read_text()

    def test_failed_cells_raise_no_warning(self):
        # the non-finite and zero-pivot grids of the tests above: their failed
        # cells read NaN and are listed in failures, and are not warned about
        pivots = []   # (rule, grid with a zero Verlet pivot)
        for family, M in [(NodeFamily.GAUSS_LEGENDRE, 1), (NodeFamily.GAUSS_RADAU, 1),
                          (NodeFamily.GAUSS_LOBATTO, 3)]:
            rule = build_rule(family, M)
            q = build_preconditioner(rule).QT[M, M]
            pivots.append((rule, GridSpec(kappa_max=1.0, kappa_cells=2, mu_min=-1.0 / q,
                                          mu_max=0.0, mu_cells=2)))
        overflows = [GridSpec(kappa_max=1e300, mu_max=2.0, kappa_cells=3, mu_cells=100),
                     GridSpec(kappa_max=2.0, mu_max=1e300, kappa_cells=150, mu_cells=2)]
        cases = [(ScanKind.SDC_STABILITY, RULE3, 50,
                  GridSpec(kappa_max=1e300, mu_max=1.0, kappa_cells=2, mu_cells=3))]
        cases += [(kind, build_rule(NodeFamily.GAUSS_LEGENDRE, M), 3, grid)
                  for kind in ScanKind for M in (3, 5) for grid in overflows]
        cases += [(kind, rule, 3, grid) for rule, grid in pivots
                  for kind in (ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE)]
        failed = 0
        for kind, rule, K, grid in cases:
            with np.errstate(all="ignore"):
                ref = scan_domain(kind, rule, K, grid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = scan_domain(kind, rule, K, grid)
            assert np.array_equal(res.rho, ref.rho, equal_nan=True)
            assert res.failures == ref.failures
            failed += len(res.failures)
        assert failed > 0
        # a failed cell on its own is an AnalysisError, and no warning
        rule, grid = pivots[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cell in [lambda: stability_function(0.0, grid.mu_min, rule, 3),
                         lambda: build_P_sdc(0.0, grid.mu_min, rule, 3),
                         lambda: stability_function(1e300, 0.0, RULE3, 50)]:
                with pytest.raises(AnalysisError, match="not finite"):
                    cell()

    @pytest.mark.parametrize("kind, M, K", [(ScanKind.SDC_STABILITY, 5, 3),
                                            (ScanKind.SDC_STABILITY, 3, 3),
                                            (ScanKind.PICARD_STABILITY, 2, 2),
                                            (ScanKind.PICARD_STABILITY, 3, 3)])
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

    def test_limit_table_matches_sequential_bisection(self, monkeypatch):
        # every limit of the CLI's table equals a bisection that evaluates one
        # cell per _rho call, bit for bit; each limit bisects in one call
        table = run_limits(ExperimentConfig())
        assert len(table) == 20
        rho, sizes = stability._rho, []

        def counted(kind, rule, K, kappa, mu):
            sizes.append(len(kappa))
            return rho(kind, rule, K, kappa, mu)
        monkeypatch.setattr(stability, "_rho", counted)
        bisected = 0
        for (K, M), limits in table.items():
            rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
            for kind, limit in zip((ScanKind.SDC_STABILITY, ScanKind.PICARD_STABILITY), limits):
                def stable(ka):
                    return rho(kind, rule, K, ka, np.zeros_like(ka)) <= 1.0 + 1.5e-11
                ladder = np.cumsum(np.full(1001, 0.1))
                first = int(np.argmin(stable(ladder)))
                assert not stable(ladder[first:first + 1])[0] and first < 1000
                sizes.clear()
                assert stability_limit(kind, rule, K) == limit
                if first == 0:
                    assert limit == 0.0 and sizes == [64]
                    continue
                lo, hi = float(ladder[first - 1]), float(ladder[first])
                while hi - lo > 0.01:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if stable(np.array([mid]))[0] else (lo, mid)
                assert limit == 0.5 * (lo + hi)
                # the coarse stacks up to the first unstable rung, then one stack
                # of the bracket's 15 candidate midpoints
                assert sizes == [64] * (first // 64 + 1) + [15]
                bisected += 1
        assert bisected == 29   # the other 11 of the 40 are unstable from the first rung

    def test_limit_zero_when_immediately_unstable(self):
        rule2 = build_rule(NodeFamily.GAUSS_LEGENDRE, 2)
        assert stability_limit(ScanKind.SDC_STABILITY, rule2, 2) == 0.0


class TestKernels:
    @pytest.mark.parametrize("family, M", [(f, M) for f in NodeFamily for M in range(1, 7)
                                           if (f, M) != (NodeFamily.GAUSS_LOBATTO, 1)])
    def test_forward_matches_lu_solve(self, family, M):
        # the Verlet system I + kappa Qx + mu QT, solved row by row
        pre = build_preconditioner(build_rule(family, M))
        rng = np.random.default_rng(M)
        kappa, mu = rng.uniform(0.0, 100.0, size=(2, 50))
        L = np.eye(M + 1) + kappa[:, None, None] * pre.Qx + mu[:, None, None] * pre.QT
        R = rng.standard_normal((50, M + 1, M + 3))
        X, ref = stability._forward(L, R), np.linalg.solve(L, R)
        for x, r in zip(X, ref):
            assert _rel(x, r) < 1e-13

    def _check_against_eigvals(self, S, rtol):
        ref = np.abs(np.linalg.eigvals(S)).max(axis=-1)
        rho = stability._radius(S)
        assert np.all(np.abs(rho - ref) <= rtol * ref)
        return rho

    def test_radius_random(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((1000, 2, 2)) * 10.0 ** rng.uniform(-5, 5, size=(1000, 1, 1))
        self._check_against_eigvals(S, 1e-14)

    def test_radius_complex_pairs(self):
        # r times a rotation by t, under a basis change of condition number at most 4
        rng = np.random.default_rng(1)
        r, t, u = rng.uniform(0.1, 10.0, 500), rng.uniform(0.1, 3.0, 500), rng.uniform(0, 7, 500)

        def rotation(angle):
            return np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                            axis=-1).reshape(-1, 2, 2)
        P = rotation(u) * np.stack([np.ones(500), rng.uniform(0.25, 1.0, 500)], axis=-1)[:, None]
        S = P @ (r[:, None, None] * rotation(t)) @ np.linalg.inv(P)
        rho = self._check_against_eigvals(S, 1e-13)
        assert np.all(np.abs(rho - r) <= 1e-12 * r)

    def test_radius_triangular(self):
        # upper-triangular: the larger diagonal entry, and exactly 1 on the
        # kappa = 0 axis, where the step matrix is [[1, b], [0, d]] with |d| <= 1
        rng = np.random.default_rng(2)
        a, b, d = rng.uniform(-3, 3, (3, 500))
        S = np.stack([a, b, 0 * a, d], axis=-1).reshape(-1, 2, 2)
        rho = self._check_against_eigvals(S, 1e-15)
        assert rho == pytest.approx(np.maximum(abs(a), abs(d)), rel=1e-15, abs=0)
        for dt_mu in np.linspace(0.0, 20.0, 41):
            R = stability_function(0.0, dt_mu, RULE3, 3)
            assert R[1, 0] == 0.0 and abs(R[1, 1]) <= 1.0
            assert spectral_radius(R) == 1.0

    def test_radius_near_defective(self):
        # [[1, 1], [delta, 1]] has eigenvalues 1 +- sqrt(delta)
        for delta in (1e-10, 1e-20, 1e-30, 0.0):
            S = np.array([[1.0, 1.0], [delta, 1.0]])
            assert stability._radius(S) == pytest.approx(1.0 + np.sqrt(delta), rel=1e-15)
            assert spectral_radius(S) == stability._radius(S)

    def test_radius_zero_and_huge(self):
        assert stability._radius(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]
        rng = np.random.default_rng(3)
        S = rng.standard_normal((100, 2, 2))
        for scale in (1e300, 1e-300):
            # h^2 and b c overflow or underflow unscaled: the result scales exactly
            rho = stability._radius(scale * S)
            assert np.all(np.isfinite(rho)) and np.all(rho > 0)
            assert np.allclose(rho / scale, stability._radius(S), rtol=1e-14, atol=0)

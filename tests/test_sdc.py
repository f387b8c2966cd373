import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from vvsdc import (ConfigurationError, DivergenceError, GuessStrategy, NodeFamily, NodeState,
                   SecondOrderIVP, SweeperConfig, build_preconditioner,
                   build_rule, collocation_residual, free_flight, initial_guess,
                   integrate, make_oscillator, make_penning, picard_iterate,
                   sdc_step, sdc_sweep, solve_collocation_linear, update_step)
from vvsdc.baselines import integrate_rkn4, integrate_verlet, verlet_step
from vvsdc.collocation import _as_u0
from vvsdc.problems import _linear_problem
from vvsdc import sdc as sdc_module
from vvsdc.sdc import march

RULE3 = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)


def _start(strategy, rule=RULE3, seed=0):
    return SweeperConfig(rule=rule, initial_guess=strategy, seed=seed)


COPY3, VERLET3 = _start(GuessStrategy.COPY_INITIAL), _start(GuessStrategy.VERLET_SWEEP)


class TestInitialGuess:
    def test_copy_initial(self):
        problem = make_oscillator(1.0, 0.0)
        state, _ = initial_guess((np.array([1.0]), np.array([2.0])),
                                 problem, 0.5, COPY3)
        assert state.X == pytest.approx(np.ones((4, 1)))
        assert state.V == pytest.approx(2.0 * np.ones((4, 1)))

    def test_verlet_free_flight(self):
        problem = make_oscillator(0.0, 0.0)
        u0 = (np.array([1.0]), np.array([2.0]))
        state, _ = initial_guess(u0, problem, 0.5, VERLET3)
        ff = free_flight(u0, 0.5, RULE3, 1)
        assert state.X == pytest.approx(ff.X, abs=1e-14)
        assert state.V == pytest.approx(ff.V, abs=1e-14)

    @pytest.mark.parametrize("family", list(NodeFamily), ids=lambda f: f.value)
    def test_verlet_start_position_correction(self, family):
        # the Verlet start's sweep from the copy start corrects positions by
        # dt^2 (QQ - Qx) f0, which is 0 only where QQ integrates a linear
        # function exactly: every rule with M <= 8 but the one-node Legendre
        # and Radau rules (0.125 and 0.5 at node 1)
        for M in range(2 if family is NodeFamily.GAUSS_LOBATTO else 1, 9):
            rule = build_rule(family, M)
            gap = np.abs(build_preconditioner(rule).QQ_Qx @ np.ones(M + 1)).max()
            assert gap > 0.1 if M == 1 else gap < 1e-12

    def test_random_deterministic(self):
        problem = make_oscillator(1.0, 0.0)
        u0 = (np.array([1.0]), np.array([2.0]))
        a, _ = initial_guess(u0, problem, 0.5, _start(GuessStrategy.RANDOM, seed=42))
        b, _ = initial_guess(u0, problem, 0.5, _start(GuessStrategy.RANDOM, seed=42))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V)
        assert a.X[0, 0] == 1.0 and a.V[0, 0] == 2.0
        assert np.all(np.abs(a.X[1:]) <= 1.0)
        # the draws are made once per seed, so a stateful seed is refused
        with pytest.raises(TypeError):
            initial_guess(u0, problem, 0.5, _start(GuessStrategy.RANDOM,
                                                   seed=np.random.default_rng(42)))

    @pytest.mark.parametrize("seed, Mp1, d", [(42, 4, 1), (42, 4, 3), (7, 4, 3),
                                              (42, 6, 3)])
    def test_random_draws_are_fresh_copies(self, seed, Mp1, d):
        problem = make_penning() if d == 3 else make_oscillator(1.0, 0.0)
        u0 = (np.full(d, 0.5), np.full(d, -0.5))
        cfg = _start(GuessStrategy.RANDOM, build_rule(NodeFamily.GAUSS_LEGENDRE, Mp1 - 1),
                     seed)
        a, _ = initial_guess(u0, problem, 0.1, cfg)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(Mp1, d))
        V = rng.uniform(-1.0, 1.0, size=(Mp1, d))
        assert np.array_equal(a.X[1:], X[1:]) and np.array_equal(a.V[1:], V[1:])
        a.X[:] = 9.0
        a.V[:] = 9.0
        b, _ = initial_guess(u0, problem, 0.1, cfg)
        assert np.array_equal(b.X[1:], X[1:]) and np.array_equal(b.V[1:], V[1:])
        assert np.array_equal(b.X[0], u0[0]) and np.array_equal(b.V[0], u0[1])
        # the seed, M and d each change the draws (V starts at draw (M+1) d)
        base, _ = initial_guess((np.zeros(3), np.zeros(3)), make_penning(), 0.1,
                                _start(GuessStrategy.RANDOM, seed=42))
        assert np.array_equal(b.V[1:4, :1], base.V[1:4, :1]) == (
            (seed, Mp1, d) == (42, 4, 3))

    def test_k0_property(self):
        cfg = SweeperConfig(rule=RULE3, initial_guess=GuessStrategy.VERLET_SWEEP)
        assert cfg.k0 == 2
        assert SweeperConfig(rule=RULE3).k0 == 0


class TestSweep:
    def test_fixed_point(self):
        problem = make_oscillator(1.0, 0.5)
        u0 = (np.array([1.0]), np.array([0.0]))
        dt = 0.4
        cfg = SweeperConfig(rule=RULE3)
        state = solve_collocation_linear(problem, u0, dt, RULE3)
        after, _ = sdc_sweep(problem, state, u0, dt, cfg)
        assert after.X == pytest.approx(state.X, abs=1e-12)
        assert after.V == pytest.approx(state.V, abs=1e-12)

    def test_defining_equation_on_random_linear_problems(self):
        # (I - dt Q_vv F) U^{k+1} = dt (Q_coll - Q_vv) F(U^k) + C_coll U_0
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            M = int(rng.integers(1, 6))
            rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
            pre = build_preconditioner(rule)
            cfg = SweeperConfig(rule=rule)
            problem = _linear_problem(rng.normal(size=(d, d)),
                                      rng.normal(size=(d, d)))
            A_x, A_v = problem.linear_parts
            dt = float(rng.uniform(0.05, 0.5))
            u0 = (rng.normal(size=d), rng.normal(size=d))
            prev = NodeState(rng.normal(size=(M + 1, d)),
                             rng.normal(size=(M + 1, d)))
            prev.X[0], prev.V[0] = u0
            new, _ = sdc_sweep(problem, prev, u0, dt, cfg)
            Fk = prev.X @ A_x.T + prev.V @ A_v.T
            Fk1 = new.X @ A_x.T + new.V @ A_v.T
            ff = free_flight(u0, dt, rule, d)
            lhs_x = new.X - dt * dt * (pre.Qx @ Fk1)
            rhs_x = ff.X + dt * dt * ((rule.QQ - pre.Qx) @ Fk)
            lhs_v = new.V - dt * (pre.QT @ Fk1)
            rhs_v = ff.V + dt * ((rule.Q - pre.QT) @ Fk)
            assert lhs_x == pytest.approx(rhs_x, abs=1e-10)
            assert lhs_v == pytest.approx(rhs_v, abs=1e-10)

    def test_explicit_when_velocity_independent(self):
        # f independent of v: no implicit solve, so the per-sweep eval
        # count is exactly M (one per node past node 0)
        problem = make_oscillator(2.0, 0.0)
        u0 = (np.array([1.0]), np.array([0.0]))
        cfg = SweeperConfig(rule=RULE3)
        state, F = initial_guess(u0, problem, 0.1, COPY3)
        before = problem.f_evals
        sdc_sweep(problem, state, u0, 0.1, cfg, prev_forces=F)
        assert problem.f_evals - before == RULE3.M


class TestStep:
    def test_K0_verlet_guess_is_plain_verlet(self):
        problem = make_penning()
        u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
        dt = 0.02
        cfg = SweeperConfig(rule=RULE3, K=0,
                            initial_guess=GuessStrategy.VERLET_SWEEP)
        res = sdc_step(problem, u0, dt, cfg)
        # reference: velocity-Verlet over the node sub-steps, then the
        # quadrature update from those node values
        x, v = u0
        X = [x]
        V = [v]
        ref = make_penning()
        for sub in np.diff(RULE3.tau) * dt:
            x, v, f = verlet_step(ref, x, v, sub)
            X.append(x)
            V.append(v)
        state = NodeState(np.array(X), np.array(V))
        x_end, v_end = update_step(state, u0, dt, RULE3,
                                   forces=ref.f_nodes(state.X, state.V))
        assert res.x_end == pytest.approx(x_end, abs=1e-10)
        assert res.v_end == pytest.approx(v_end, abs=1e-10)

    def test_free_flight_any_K(self):
        problem = make_oscillator(0.0, 0.0)
        u0 = (np.array([1.0]), np.array([2.0]))
        for K in (0, 1, 5):
            cfg = SweeperConfig(rule=RULE3, K=K,
                                initial_guess=GuessStrategy.VERLET_SWEEP)
            res = sdc_step(problem, u0, 0.5, cfg)
            assert res.x_end[0] == pytest.approx(2.0, abs=1e-14)
            assert res.v_end[0] == pytest.approx(2.0, abs=1e-14)

    def test_large_K_matches_collocation(self):
        problem = make_penning()
        u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 5)
        dt = 0.01
        cfg = SweeperConfig(rule=rule, K=20)
        res = sdc_step(problem, u0, dt, cfg)
        ref_problem = make_penning()
        state, _, F = picard_iterate(ref_problem, u0, dt, rule, K=80)
        x_ref, v_ref = update_step(state, u0, dt, rule, forces=F)
        assert res.x_end == pytest.approx(x_ref, abs=1e-10)
        assert res.v_end == pytest.approx(v_ref, abs=1e-10)

    def test_f_eval_accounting_verlet_guess(self):
        # linear-in-v closed-form node solves: M (K + 1) + 1 evals per step
        for K in (0, 1, 3):
            problem = make_penning()
            u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
            cfg = SweeperConfig(rule=RULE3, K=K,
                                initial_guess=GuessStrategy.VERLET_SWEEP)
            res = sdc_step(problem, u0, 0.01, cfg)
            assert res.f_evals == RULE3.M * (K + 1) + 1

    def test_f_eval_accounting_copy_guess(self):
        for K in (1, 3):
            problem = make_penning()
            u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
            cfg = SweeperConfig(rule=RULE3, K=K)
            res = sdc_step(problem, u0, 0.01, cfg)
            assert res.f_evals == RULE3.M * K + 1

    def test_divergence_guard(self):
        problem = make_oscillator(30.0, 0.0)
        u0 = (np.array([1.0]), np.array([0.0]))
        cfg = SweeperConfig(rule=RULE3, K=400)
        with pytest.raises(DivergenceError):
            sdc_step(problem, u0, 1.0, cfg)

    @pytest.mark.parametrize("run", [
        lambda problem, u0: sdc_step(problem, u0, 0.1, SweeperConfig(rule=RULE3, K=3)),
        lambda problem, u0: picard_iterate(problem, u0, 0.1, RULE3, K=3),
    ], ids=["sdc_step", "picard_iterate"])
    def test_nan_iterate_is_divergence(self, run):
        # sqrt(x - 2) is NaN at x0 = 1, and NaN compares false with any bound
        problem = SecondOrderIVP(d=1, force=lambda x, v: np.sqrt(x - 2.0),
                                 velocity_dependent=np.zeros(1, dtype=bool))
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            run(problem, (np.array([1.0]), np.array([0.0])))

    @pytest.mark.parametrize("K", [-1, 2.5, None, "3"])
    def test_sweep_count_is_an_integer_at_least_0(self, K):
        # K = -1 would run no sweep at all and report the start's residual
        with pytest.raises(ConfigurationError, match="K must be an integer >= 0"):
            SweeperConfig(rule=RULE3, K=K)
        assert SweeperConfig(rule=RULE3, K=np.int64(0)).K == 0


def _mirror_like():
    """A nonlinear force that depends on the velocity: v x B(x) with a
    position-dependent field, so node solves take the fixed-point branch."""
    def force(x, v):
        return np.cross(v, np.array([-0.1 * x[0] * x[2], -0.1 * x[1] * x[2],
                                     2.0 + 0.1 * x[2] * x[2]]))
    return SecondOrderIVP(d=3, force=force, velocity_dependent=np.ones(3, dtype=bool))


class TestBitIdentity:
    """sdc_step is exactly its documented composition; no step may round
    differently from initial_guess -> sdc_sweep x K -> update_step."""

    @pytest.mark.parametrize("strategy", list(GuessStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("make", [make_penning, _mirror_like], ids=["penning", "mirror"])
    def test_step_is_its_composition(self, make, strategy):
        u0 = (np.array([1.0, 2.0, -1.0]), np.array([3.0, -2.0, 5.0]))
        dt = 0.02
        cfg = SweeperConfig(rule=RULE3, K=3, initial_guess=strategy, seed=7)
        res = sdc_step(make(), u0, dt, cfg)
        problem = make()
        state, F = initial_guess(u0, problem, dt, cfg)
        for _ in range(cfg.K):
            state, F = sdc_sweep(problem, state, u0, dt, cfg, prev_forces=F)
        x_end, v_end = update_step(state, u0, dt, RULE3, forces=F)
        assert np.array_equal(res.x_end, x_end) and np.array_equal(res.v_end, v_end)
        assert res.final_residual == collocation_residual(problem, state, u0, dt,
                                                          RULE3, forces=F)
        assert res.f_evals == problem.f_evals

    @pytest.mark.parametrize("make", [make_penning, _mirror_like], ids=["penning", "mirror"])
    def test_final_residual_is_computed_on_first_read(self, monkeypatch, make):
        # the step keeps its last iterate and forces; the residual costs no
        # f-evals and is computed once, when it is first read
        calls = []
        monkeypatch.setattr(sdc_module, "collocation_residual",
                            lambda *a, **k: calls.append(a) or collocation_residual(*a, **k))
        u0 = (np.array([1.0, 2.0, -1.0]), np.array([3.0, -2.0, 5.0]))
        problem = make()
        res = sdc_step(problem, u0, 0.02, COPY3)
        evals = problem.f_evals
        assert calls == []
        first = res.final_residual
        assert res.final_residual == first and len(calls) == 1
        assert problem.f_evals == evals and res.f_evals == evals
        assert 0.0 < first < 1e-6

    @pytest.mark.parametrize("M, K", [(3, 2), (5, 4), (3, 3)])
    @pytest.mark.parametrize("make", [make_penning, lambda: make_oscillator(1.0, 0.0),
                                      _mirror_like], ids=["penning", "oscillator", "mirror"])
    def test_verlet_start_is_copy_start_plus_one_sweep(self, make, M, K):
        # the copy start's force is constant, and Q_coll and Q_vv integrate
        # a constant alike, so its first sweep is the velocity-Verlet pass
        d = make().d
        u0 = (np.linspace(1.0, -1.0, d), np.linspace(3.0, 5.0, d))
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
        verlet, copy = (
            integrate(make(), u0, 0.0, 0.2, 0.02,
                      SweeperConfig(rule=rule, K=k, initial_guess=start))[1]
            for k, start in ((K, GuessStrategy.VERLET_SWEEP),
                             (K + 1, GuessStrategy.COPY_INITIAL)))
        assert len(verlet) == len(copy) == 10
        for a, b in zip(verlet, copy):
            assert a.f_evals == b.f_evals
            for p, q in ((a.x_end, b.x_end), (a.v_end, b.v_end)):
                if make is _mirror_like:
                    assert np.max(np.abs(p - q)) <= 1e-14 * np.max(np.abs(q))
                else:
                    assert np.array_equal(p, q)

    @pytest.mark.parametrize("strategy", list(GuessStrategy), ids=lambda g: g.value)
    def test_step_builds_free_flight_once(self, monkeypatch, strategy):
        # the Verlet start's sweep takes the step's free-flight nodes
        calls = []
        monkeypatch.setattr(sdc_module, "free_flight",
                            lambda *args: calls.append(args) or free_flight(*args))
        sdc_step(make_penning(), (np.ones(3), np.ones(3)), 0.1, _start(strategy))
        assert len(calls) == 1

    def test_sweep_from_converged_state_costs_one_eval_per_node(self):
        # every node solve of the sweep starts from the previous iterate's
        # force, which is already the fixed point once the step has
        # converged, so each node costs the one f-eval that checks it
        u0 = (np.array([1.0, 2.0, -1.0]), np.array([3.0, -2.0, 5.0]))
        dt = 0.02
        cfg = SweeperConfig(rule=RULE3, K=20)
        res = sdc_step(_mirror_like(), u0, dt, cfg)
        assert res.final_residual <= 1e-12
        problem = _mirror_like()
        state, F = initial_guess(u0, problem, dt, cfg)
        for _ in range(cfg.K):
            state, F = sdc_sweep(problem, state, u0, dt, cfg, prev_forces=F)
        x_end, _ = update_step(state, u0, dt, RULE3, forces=F)
        assert np.array_equal(x_end, res.x_end)
        before = problem.f_evals
        sdc_sweep(problem, state, u0, dt, cfg, prev_forces=F)
        assert problem.f_evals - before == RULE3.M

    def test_as_u0_copies_and_broadcasts(self):
        x0, v0 = np.array([1.0, 2.0, 3.0]), np.array([4, 5, 6])
        x, v = _as_u0((x0, v0), 3)
        assert x.dtype == v.dtype == np.float64
        assert np.array_equal(x, x0) and np.array_equal(v, v0)
        x[:] = 0.0
        v[:] = 0.0
        assert np.array_equal(x0, [1.0, 2.0, 3.0]) and np.array_equal(v0, [4, 5, 6])
        x, v = _as_u0((2.0, np.array([-1.0])), 3)
        assert np.array_equal(x, [2.0, 2.0, 2.0]) and np.array_equal(v, [-1.0, -1.0, -1.0])
        x[0] = 0.0
        assert x[1] == 2.0


class TestIntegrate:
    def test_one_step_equals_sdc_step(self):
        problem = make_oscillator(1.0, 0.2)
        u0 = (np.array([1.0]), np.array([0.0]))
        cfg = SweeperConfig(rule=RULE3, K=3)
        _, results = integrate(make_oscillator(1.0, 0.2), u0, 0.0, 0.4, 0.4, cfg)
        direct = sdc_step(problem, u0, 0.4, cfg)
        assert len(results) == 1
        assert results[0].x_end == pytest.approx(direct.x_end)
        assert results[0].v_end == pytest.approx(direct.v_end)

    def test_free_flight_many_steps(self):
        problem = make_oscillator(0.0, 0.0)
        u0 = (np.array([1.0]), np.array([2.0]))
        cfg = SweeperConfig(rule=RULE3, K=2)
        times, results = integrate(problem, u0, 0.0, 1.0, 0.1, cfg)
        assert times[-1] == pytest.approx(1.0)
        assert results[-1].x_end[0] == pytest.approx(3.0, abs=1e-12)

    def test_partial_final_step(self):
        problem = make_oscillator(1.0, 0.0)
        u0 = (np.array([1.0]), np.array([0.0]))
        cfg = SweeperConfig(rule=RULE3, K=3)
        times, results = integrate(problem, u0, 0.0, 0.25, 0.1, cfg)
        assert len(results) == 3
        assert times[-1] == pytest.approx(0.25)

    @pytest.mark.parametrize("run", [
        lambda *a: integrate(*a, SweeperConfig(rule=RULE3)),
        integrate_verlet,
        integrate_rkn4,
    ], ids=["integrate", "verlet", "rkn4"])
    def test_bad_interval(self, run):
        problem = make_oscillator(1.0, 0.0)
        for t_end in (1.0, 0.5, 1.0 + 1e-13):
            with pytest.raises(ValueError):
                run(problem, (np.array([1.0]), np.array([0.0])), 1.0, t_end, 0.1)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_march_rejects_bad_dt(dt):
    calls = []

    def step(u, h):
        calls.append(h)
        if len(calls) > 1000:   # dt <= 0 would never reach t_end
            raise RuntimeError("march does not end")
        return u, None
    with pytest.raises(ValueError):
        march(step, None, 0.0, 1.0, dt)
    assert not calls


@settings(deadline=None)
@given(t0=st.floats(-100.0, 100.0), span=st.floats(1e-2, 10.0),
       dt=st.floats(1e-2, 10.0))
def test_march_grid(t0, span, dt):
    t_end = t0 + span
    sizes = []

    def step(u, h):
        sizes.append(h)
        return u, None
    times, _ = march(step, None, t0, t_end, dt)
    assert np.all(np.diff(times) > 0.0) and times[0] > t0
    assert all(h == dt for h in sizes[:-1])
    assert 0.0 < sizes[-1] <= dt
    assert abs(times[-1] - t_end) <= 1e-12 * max(1.0, abs(t_end))

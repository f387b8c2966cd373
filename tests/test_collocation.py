import numpy as np
import pytest

from vvsdc import (DivergenceError, NodeFamily, NodeState, build_rule,
                   collocation_residual, exact_solution, free_flight,
                   make_oscillator, make_penning, picard_iterate,
                   solve_collocation_linear, update_step)
from vvsdc.harness import fit_slope
from vvsdc.problems import SecondOrderIVP

RULE3 = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)


def test_free_flight_nodes():
    state = free_flight((np.array([1.0]), np.array([2.0])), 0.5, RULE3, 1)
    for m, tau in enumerate(np.concatenate(([0.0], RULE3.nodes))):
        assert state.X[m, 0] == pytest.approx(1.0 + 0.5 * tau * 2.0)
        assert state.V[m, 0] == pytest.approx(2.0)


def test_residual_zero_for_free_flight():
    problem = make_oscillator(0.0, 0.0)
    u0 = (np.array([1.0]), np.array([2.0]))
    state = free_flight(u0, 0.5, RULE3, 1)
    assert collocation_residual(problem, state, u0, 0.5, RULE3) < 1e-13


def test_residual_zero_for_collocation_solution():
    problem = make_oscillator(1.0, 0.5)
    u0 = (np.array([1.0]), np.array([0.0]))
    state = solve_collocation_linear(problem, u0, 0.4, RULE3)
    assert collocation_residual(problem, state, u0, 0.4, RULE3) < 1e-12


def test_residual_of_perturbed_state():
    # with f = 0 a velocity perturbation eps shows up as eps in the
    # velocity row plus dt * Q couplings in the position rows
    problem = make_oscillator(0.0, 0.0)
    u0 = (np.array([0.0]), np.array([0.0]))
    dt = 0.5
    state = free_flight(u0, dt, RULE3, 1)
    eps = 1e-3
    state.V[2, 0] += eps
    r = collocation_residual(problem, state, u0, dt, RULE3)
    assert r == pytest.approx(eps, rel=1e-12)


def test_direct_solve_free_flight():
    problem = make_oscillator(0.0, 0.0)
    u0 = (np.array([2.0]), np.array([-1.0]))
    state = solve_collocation_linear(problem, u0, 0.3, RULE3)
    ff = free_flight(u0, 0.3, RULE3, 1)
    assert state.X == pytest.approx(ff.X, abs=1e-13)
    assert state.V == pytest.approx(ff.V, abs=1e-13)


def test_collocation_superconvergent_order():
    # Legendre M nodes: one-step velocity error of order 2M + 1
    problem = make_oscillator(1.0, 0.0)
    u0 = (np.array([1.0]), np.array([0.0]))
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 2)
    dts = [0.4 * 2.0 ** -i for i in range(6)]
    errs = []
    for dt in dts:
        state = solve_collocation_linear(problem, u0, dt, rule)
        _, v_end = update_step(state, u0, dt, rule,
                               forces=problem.f_nodes(state.X, state.V))
        _, ve = exact_solution(problem, dt, *u0)
        errs.append(abs(v_end[0] - ve[0]))
    slope, _, _ = fit_slope(dts, errs)
    assert slope == pytest.approx(2 * rule.M + 1, abs=0.4)


def test_picard_matches_direct_solve():
    problem = make_penning()
    u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
    dt = 0.01
    direct = solve_collocation_linear(problem, u0, dt, RULE3)
    state, trace, _ = picard_iterate(problem, u0, dt, RULE3, K=60)
    assert state.X == pytest.approx(direct.X, abs=1e-10)
    assert state.V == pytest.approx(direct.V, abs=1e-10)


def test_picard_zero_force_one_iteration():
    problem = make_oscillator(0.0, 0.0)
    u0 = (np.array([1.0]), np.array([1.0]))
    state, trace, _ = picard_iterate(problem, u0, 0.5, RULE3, K=3)
    ff = free_flight(u0, 0.5, RULE3, 1)
    assert state.X == pytest.approx(ff.X)
    assert trace[1] == pytest.approx(0.0, abs=1e-15)


def test_picard_geometric_contraction():
    problem = make_oscillator(4.0, 0.0)
    u0 = (np.array([1.0]), np.array([0.0]))
    _, trace, _ = picard_iterate(problem, u0, 0.3, RULE3, K=25)
    tail = np.array([t for t in trace[3:] if t > 1e-13])
    assert len(tail) >= 4
    ratios = tail[1:] / tail[:-1]
    assert np.all(ratios < 1.0)


def test_picard_divergence_guard():
    problem = make_oscillator(30.0, 0.0)
    u0 = (np.array([1.0]), np.array([0.0]))
    with pytest.raises(DivergenceError):
        picard_iterate(problem, u0, 1.0, RULE3, K=300)


def test_picard_divergence_names_sweep_K_and_dt():
    # the form of sdc_step's message; sweeps count from 1, as there
    problem = make_oscillator(30.0, 0.0)
    u0 = (np.array([1.0]), np.array([0.0]))
    with pytest.raises(DivergenceError, match=r"^Picard iterate exceeded 1e\+08 or is not"
                       r" finite in sweep 47 of K = 300 at dt = 1\.0$"):
        picard_iterate(problem, u0, 1.0, RULE3, K=300)


def test_picard_overflowing_force_is_divergence():
    # a zero node weight runs no fixed-point loop, so nothing fails to
    # converge: the overflow reaches the guard
    problem = SecondOrderIVP(d=1, force=lambda x, v: 1e200 * v ** 3,
                             velocity_dependent=np.ones(1, dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="^Picard iterate .* in sweep 1 of K = 3 at dt = 0.5$"):
        picard_iterate(problem, (np.array([0.0]), np.array([1.0])), 0.5, RULE3, K=3)


def _richardson(problem, u0, dt, rule, K, initial):
    """U^{k+1} = C_coll U_0 + dt Q_coll F(U^k), K times, written out whole:
    the reference Picard iteration, with its trace and final forces."""
    ff = free_flight(u0, dt, rule, problem.d)
    state = ff if initial is None else initial
    F = problem.f_nodes(state.X, state.V)
    trace = []
    for _ in range(K):
        X = ff.X + dt * dt * (rule.QQ @ F)
        V = ff.V + dt * (rule.Q @ F)
        trace.append(max(np.max(np.abs(X - state.X)), np.max(np.abs(V - state.V))))
        state = NodeState(X, V)
        F = np.vstack([F[:1], problem.f_nodes(X[1:], V[1:])])
    return state, trace, F


def _pendulum():
    """A velocity-independent nonlinear force, x'' = -sin x."""
    return SecondOrderIVP(d=1, force=lambda x, v: -np.sin(x),
                          velocity_dependent=np.zeros(1, dtype=bool))


def _mirror_like():
    """A velocity-dependent nonlinear force, v x B(x)."""
    def force(x, v):
        return np.cross(v, np.array([-0.1 * x[0] * x[2], -0.1 * x[1] * x[2],
                                     2.0 + 0.1 * x[2] * x[2]]))
    return SecondOrderIVP(d=3, force=force, velocity_dependent=np.ones(3, dtype=bool))


# one problem for each node-solve path of a sweep: LU, direct and fixed point
@pytest.mark.parametrize("make, u0", [
    (make_penning, (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))),
    (_pendulum, (np.array([1.2]), np.array([-0.7]))),
    (_mirror_like, (np.array([1.0, 2.0, -1.0]), np.array([3.0, -2.0, 5.0]))),
], ids=["penning", "pendulum", "mirror"])
@pytest.mark.parametrize("M", [2, 3, 5])
@pytest.mark.parametrize("start", ["free-flight", "copy"])
def test_picard_is_the_richardson_recursion_bit_for_bit(make, u0, M, start):
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
    initial = None if start == "free-flight" else NodeState(
        np.tile(u0[0], (M + 1, 1)), np.tile(u0[1], (M + 1, 1)))
    K = 4
    for dt in (0.01, 0.05):
        problem, reference = make(), make()
        got = picard_iterate(problem, u0, dt, rule, K=K, initial=initial)
        want = _richardson(reference, u0, dt, rule, K, initial)
        assert problem.f_evals == reference.f_evals == (M + 1) + K * M
        assert np.array_equal(got[0].X, want[0].X) and np.array_equal(got[0].V, want[0].V)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001e8, -1.0000001e8,
                                 np.nextafter(1e8, np.inf), -np.nextafter(1e8, np.inf)])
def test_within_guard(bad):
    # each bad value alone in X, then alone in V; exactly +-1e8 everywhere passes
    from vvsdc.collocation import DIVERGENCE_GUARD, _check_guard
    X, V = np.full((4, 3), -DIVERGENCE_GUARD), np.full((4, 3), DIVERGENCE_GUARD)
    _check_guard("state", X, V)
    _check_guard("state", X[0], V[0])
    for a in (X, V):
        a[2, 1], kept = bad, a[2, 1]
        with pytest.raises(DivergenceError, match=r"^state exceeded 1e\+08 or is not finite$"):
            _check_guard("state", X, V)
        with pytest.raises(DivergenceError, match=" in sweep 2 of K = 3 at dt = 0.5$"):
            _check_guard("SDC iterate", X, V, 2, 3, np.float64(0.5))
        a[2, 1] = kept


def test_update_step_free_flight():
    problem = make_oscillator(0.0, 0.0)
    u0 = (np.array([1.0]), np.array([2.0]))
    state = free_flight(u0, 0.5, RULE3, 1)
    x_end, v_end = update_step(state, u0, 0.5, RULE3,
                               forces=problem.f_nodes(state.X, state.V))
    assert x_end[0] == pytest.approx(2.0)
    assert v_end[0] == pytest.approx(2.0)


def test_update_step_constant_force():
    g = 3.0
    problem = SecondOrderIVP(d=1, force=lambda x, v: np.array([g]),
                             velocity_dependent=np.array([False]))
    u0 = (np.array([1.0]), np.array([2.0]))
    dt = 0.7
    state = free_flight(u0, dt, RULE3, 1)  # node values irrelevant: f constant
    x_end, v_end = update_step(state, u0, dt, RULE3,
                               forces=problem.f_nodes(state.X, state.V))
    assert v_end[0] == pytest.approx(2.0 + dt * g)
    assert x_end[0] == pytest.approx(1.0 + dt * 2.0 + dt * dt * g / 2.0)


def test_collocation_solution_is_picard_fixed_point():
    problem = make_oscillator(1.0, 0.5)
    u0 = (np.array([1.0]), np.array([0.0]))
    dt = 0.4
    state = solve_collocation_linear(problem, u0, dt, RULE3)
    after, trace, _ = picard_iterate(problem, u0, dt, RULE3, K=1, initial=state)
    assert after.X == pytest.approx(state.X, abs=1e-12)
    assert after.V == pytest.approx(state.V, abs=1e-12)

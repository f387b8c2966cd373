import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from vvsdc import (GuessStrategy, NodeFamily, PenningParams, SolverError,
                   SweeperConfig, build_preconditioner, build_rule, integrate,
                   make_oscillator, make_penning, sdc_step, verlet_solve)
from vvsdc import baselines, harness, preconditioner, sdc
from vvsdc import collocation as collocation_module
from vvsdc.baselines import integrate_verlet, verlet_step
from vvsdc.collocation import NodeState, picard_iterate
from vvsdc.preconditioner import _FP_RTOL, _FP_TOL, _node_solver, _picard_preconditioner
from vvsdc.problems import SecondOrderIVP, _linear_problem


def test_legendre_M1_matrices():
    pre = build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, 1))
    assert pre.QT == pytest.approx(np.array([[0.0, 0.0], [0.25, 0.25]]))
    assert pre.Qx == pytest.approx(np.array([[0.0, 0.0], [0.125, 0.0]]))


def test_built_once_per_rule_values():
    # the one rule of a (family, M) has one set of matrices; another rule never gets them
    legendre = build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, 3))
    assert build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, 3)) is legendre
    assert SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3)).matrices is legendre
    for family, M in [(NodeFamily.GAUSS_LOBATTO, 4), (NodeFamily.GAUSS_RADAU, 3)]:
        rule = build_rule(family, M)
        pre = build_preconditioner(rule)
        assert pre.QT.shape == (M + 1, M + 1)
        assert np.array_equal(np.diag(pre.QT)[1:], np.diff(rule.tau) / 2)
        assert np.array_equal(pre.QQ_Qx, rule.QQ - pre.Qx)
        assert np.array_equal(pre.Q_QT, rule.Q - pre.QT)
    with pytest.raises(ValueError, match="read-only"):
        legendre.Qx[1, 0] = 1.0


@pytest.mark.parametrize("family", list(NodeFamily))
def test_picard_preconditioner_built_once_and_read_only(family):
    # shared by every Picard iterate and stability stack of the rule, like
    # build_preconditioner's matrices
    rule = build_rule(family, 3)
    pre = _picard_preconditioner(rule)
    assert _picard_preconditioner(build_rule(family, 3)) is pre
    assert pre.QQ_Qx is rule.QQ and pre.Q_QT is rule.Q
    for a in (pre.QT, pre.Qx, pre.QQ_Qx, pre.Q_QT):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[1, 0] = 1.0
    assert not pre.Qx.any() and not pre.QT.any()


def test_triangular_structure():
    for family in NodeFamily:
        for M in range(2, 8):
            pre = build_preconditioner(build_rule(family, M))
            assert np.allclose(pre.Qx, np.tril(pre.Qx, -1))
            assert np.allclose(pre.QT, np.tril(pre.QT))


def test_norm_bounds():
    for family in NodeFamily:
        for M in range(2, 13):
            pre = build_preconditioner(build_rule(family, M))
            assert np.abs(pre.QT).sum(axis=1).max() <= 1.0 + 1e-12
            assert np.abs(pre.Qx).sum(axis=1).max() <= 1.5 + 1e-12


def test_verlet_solve_zero_force():
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)
    pre = build_preconditioner(rule)
    problem = make_oscillator(0.0, 0.0)
    rhs_x = np.arange(4.0).reshape(4, 1)
    rhs_v = np.ones((4, 1))
    X, V, F = verlet_solve(problem, rhs_x, rhs_v, 0.7, pre,
                           problem.f_nodes(rhs_x, rhs_v))
    assert X == pytest.approx(rhs_x)
    assert V == pytest.approx(rhs_v)
    assert F == pytest.approx(np.zeros((4, 1)))


def test_verlet_solve_hand_example():
    # f(x, v) = -v, one interior node at tau = 1/2, dt = 1,
    # rhs = (x: (0, 0), v: (1, 1)):
    #   node-1 velocity solves v = 1 + 1/4 (-1 - v)  ->  v = 0.6
    #   node-1 position is 0 + Qx_{1,0} f_0 = 0.125 * (-1) = -0.125
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 1)
    pre = build_preconditioner(rule)
    problem = make_oscillator(0.0, 1.0)
    rhs_x, rhs_v = np.zeros((2, 1)), np.ones((2, 1))
    X, V, _ = verlet_solve(problem, rhs_x, rhs_v, 1.0, pre,
                           problem.f_nodes(rhs_x, rhs_v))
    assert V[1, 0] == pytest.approx(0.6)
    assert X[1, 0] == pytest.approx(-0.125)


def _dense_solve(problem, rhs_x, rhs_v, dt, pre):
    """Brute-force solve of (I - dt Q_vv F) U = rhs via one block system."""
    Mp1, d = rhs_x.shape
    A_x, A_v = problem.linear_parts
    QxB = np.kron(pre.Qx, np.eye(d))
    QTB = np.kron(pre.QT, np.eye(d))
    FxB = np.kron(np.eye(Mp1), A_x)
    FvB = np.kron(np.eye(Mp1), A_v)
    n = Mp1 * d
    A = np.block([
        [np.eye(n) - dt * dt * QxB @ FxB, -dt * dt * QxB @ FvB],
        [-dt * QTB @ FxB, np.eye(n) - dt * QTB @ FvB],
    ])
    sol = np.linalg.solve(A, np.concatenate([rhs_x.ravel(), rhs_v.ravel()]))
    return sol[:n].reshape(Mp1, d), sol[n:].reshape(Mp1, d)


def test_verlet_solve_matches_dense_solve():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        M = int(rng.integers(1, 6))
        family = NodeFamily.GAUSS_LEGENDRE
        rule = build_rule(family, M)
        pre = build_preconditioner(rule)
        problem = _linear_problem(rng.normal(size=(d, d)), rng.normal(size=(d, d)))
        dt = float(rng.uniform(0.05, 0.5))
        rhs_x = rng.normal(size=(M + 1, d))
        rhs_v = rng.normal(size=(M + 1, d))
        X, V, F = verlet_solve(problem, rhs_x, rhs_v, dt, pre,
                               problem.f_nodes(rhs_x, rhs_v))
        Xd, Vd = _dense_solve(problem, rhs_x, rhs_v, dt, pre)
        assert X == pytest.approx(Xd, abs=1e-10)
        assert V == pytest.approx(Vd, abs=1e-10)
        # residual of the defining equation
        A_x, A_v = problem.linear_parts
        Fd = (X @ A_x.T) + (V @ A_v.T)
        assert F == pytest.approx(Fd, abs=1e-10)
        assert X - dt * dt * (pre.Qx @ Fd) == pytest.approx(rhs_x, abs=1e-12)
        assert V - dt * (pre.QT @ Fd) == pytest.approx(rhs_v, abs=1e-12)


def _reference_sweep(problem, rhs_x, rhs_v, dt, pre, forces, *, _solve=None):
    """verlet_solve of a linear force written out node by node, each node
    velocity by np.linalg.solve (gesv, the kernel the node solve calls) and
    each node force by problem.f; the step's node solve ``_solve`` is ignored."""
    A_x, A_v = problem.linear_parts
    X, V, F = (np.array(a, dtype=float) for a in (rhs_x, rhs_v, forces))
    for m in range(1, len(X)):
        X[m] = rhs_x[m] + dt * dt * (pre.Qx[m, :m] @ F[:m])
        b = rhs_v[m] + dt * (pre.QT[m, :m] @ F[:m])
        c = dt * pre.QT[m, m]
        V[m] = np.linalg.solve(np.eye(problem.d) - c * A_v, b + c * (A_x @ X[m]))
        F[m] = problem.f(X[m], V[m])
    return X, V, F


def test_verlet_solve_is_the_reference_sweep_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(60):
        d, M = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        pre = build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, M))
        problem = _linear_problem(rng.normal(size=(d, d)), rng.normal(size=(d, d)))
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        rhs_x, rhs_v, forces = rng.normal(size=(3, M + 1, d))
        got = verlet_solve(problem, rhs_x, rhs_v, dt, pre, forces)
        want = _reference_sweep(problem, rhs_x, rhs_v, dt, pre, forces)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# the (M, K, start) settings of the Penning and mirror benchmark marches
_MARCH_SETTINGS = [(3, 3, GuessStrategy.COPY_INITIAL), (3, 3, GuessStrategy.RANDOM),
                   (3, 2, GuessStrategy.VERLET_SWEEP), (5, 3, GuessStrategy.COPY_INITIAL),
                   (5, 3, GuessStrategy.RANDOM), (5, 4, GuessStrategy.VERLET_SWEEP)]


@pytest.mark.parametrize("M, K, start", _MARCH_SETTINGS,
                         ids=lambda p: getattr(p, "value", str(p)))
def test_penning_march_is_the_reference_sweep_bit_for_bit(monkeypatch, M, K, start):
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, M), K=K,
                        initial_guess=start, seed=42)
    u0 = (np.array([3.0, -7.0, 1.0]), np.array([60.0, 20.0, -90.0]))
    problem = make_penning()
    _, fast = integrate(problem, u0, 0.0, 0.2, 0.01, cfg)
    monkeypatch.setattr(collocation_module, "verlet_solve", _reference_sweep)
    reference = make_penning()
    _, slow = integrate(reference, u0, 0.0, 0.2, 0.01, cfg)
    assert problem.f_evals == reference.f_evals
    for a, b in zip(fast, slow):
        assert np.array_equal(a.x_end, b.x_end) and np.array_equal(a.v_end, b.v_end)
        assert a.final_residual == b.final_residual


def _with_reference_sweep(monkeypatch, run):
    """``run(problem)`` on a fresh Penning trap, then on another one with the
    sweep's ``verlet_solve`` replaced by :func:`_reference_sweep`; returns both
    results once their f-eval counts are found equal."""
    problem, reference = make_penning(), make_penning()
    fast = run(problem)
    with monkeypatch.context() as patch:
        patch.setattr(collocation_module, "verlet_solve", _reference_sweep)
        slow = run(reference)
    assert problem.f_evals == reference.f_evals
    return fast, slow


def test_global_order_finest_rung_is_the_reference_sweep_bit_for_bit(monkeypatch):
    # global-order's defaults: Penning, M = 3, the random start (seed 42),
    # K = 1, 2, 3, t_end = 2 and a ladder whose finest step is 0.05/32
    config = harness.ExperimentConfig()
    assert config.initial_guess is GuessStrategy.RANDOM and config.seed == 42
    for K in config.K_list:
        fast, slow = _with_reference_sweep(monkeypatch, lambda p: integrate(
            p, config.initial_value(), 0.0, config.t_end, 0.05 / 32, config.sweeper(K))[1])
        assert len(fast) == 1280
        assert np.array_equal([r.x_end for r in fast], [r.x_end for r in slow])
        assert np.array_equal([r.v_end for r in fast], [r.v_end for r in slow])


@pytest.mark.parametrize("start", ["free-flight", "copy"])
def test_picard_is_the_reference_sweep_bit_for_bit(monkeypatch, start):
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)
    u0 = (np.array([3.0, -7.0, 1.0]), np.array([60.0, 20.0, -90.0]))
    initial = None if start == "free-flight" else NodeState(np.tile(u0[0], (4, 1)),
                                                            np.tile(u0[1], (4, 1)))
    fast, slow = _with_reference_sweep(
        monkeypatch, lambda p: picard_iterate(p, u0, 0.02, rule, 4, initial=initial))
    assert np.array_equal(fast[0].X, slow[0].X) and np.array_equal(fast[0].V, slow[0].V)
    assert np.array_equal(fast[1], slow[1]) and np.array_equal(fast[2], slow[2])


@pytest.mark.parametrize("start", list(GuessStrategy), ids=lambda s: s.value)
def test_step_map_probe_is_the_reference_sweep_bit_for_bit(monkeypatch, start):
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3), K=3,
                        initial_guess=start, seed=42)
    fast, slow = _with_reference_sweep(monkeypatch, lambda p: harness._step_map(
        p, harness._sdc_stepper(p, cfg), 0.05))
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])
    assert fast[2] == slow[2]


def test_verlet_baseline_is_the_reference_step_bit_for_bit():
    # the velocity-Verlet step written out, its node velocity by np.linalg.solve
    # and its force by problem.f; dt = 2^-7 makes every step of the march dt
    dt, n = 2.0 ** -7, 20
    u0 = (np.array([3.0, -7.0, 1.0]), np.array([60.0, 20.0, -90.0]))
    problem, reference = make_penning(), make_penning()
    _, xs, vs = integrate_verlet(problem, u0, 0.0, n * dt, dt)
    A_x, A_v = reference.linear_parts
    x, v = u0
    f = reference.f(x, v)
    for x_got, v_got in zip(xs, vs):
        b = v + 0.5 * dt * f
        x = x + dt * (v + 0.5 * dt * f)
        c = dt * 0.5
        v = np.linalg.solve(np.eye(3) - c * A_v, b + c * (A_x @ x))
        f = reference.f(x, v)
        assert np.array_equal(x_got, x) and np.array_equal(v_got, v)
    assert len(xs) == n and problem.f_evals == reference.f_evals == n + 1


def _reference_step(problem, u0, dt, config, picard=False):
    """sdc_step of a linear force written out with ``@`` and np.linalg.solve:
    free flight, the copy, Verlet or random start, the K sweeps' right-hand
    sides and node solves, and the update.  ``picard`` takes K sweeps of
    Picard's zero preconditioner from the free-flight nodes instead, as
    ``picard_iterate`` does.  Returns (x_end, v_end, residual, f-evals)."""
    A_x, A_v = problem.linear_parts
    rule, d, start = config.rule, problem.d, config.initial_guess
    Mp1 = rule.M + 1
    pre = _picard_preconditioner(rule) if picard else build_preconditioner(rule)
    evals = []

    def f(x, v):
        evals.append(1)
        return A_x @ x + A_v @ v
    x0, v0 = u0
    ff_X = x0 + dt * rule.tau[:, None] * v0
    ff_V = np.tile(v0, (Mp1, 1))
    if picard:
        X, V = ff_X, ff_V
        F = np.array([f(x, v) for x, v in zip(X, V)])
    elif start is GuessStrategy.RANDOM:
        rng = np.random.default_rng(config.seed)
        X, V = rng.uniform(-1.0, 1.0, size=(Mp1, d)), rng.uniform(-1.0, 1.0, size=(Mp1, d))
        X[0], V[0] = x0, v0
        F = np.array([f(x, v) for x, v in zip(X, V)])
    else:
        X, V, F = np.tile(x0, (Mp1, 1)), np.tile(v0, (Mp1, 1)), np.tile(f(x0, v0), (Mp1, 1))
    for _ in range(config.K + (start is GuessStrategy.VERLET_SWEEP and not picard)):
        rhs_x = ff_X + dt * dt * ((rule.QQ - pre.Qx) @ F)
        rhs_v = ff_V + dt * ((rule.Q - pre.QT) @ F)
        X, V, F = rhs_x.copy(), rhs_v.copy(), F.copy()
        for m in range(1, Mp1):
            X[m] = rhs_x[m] + dt * dt * (pre.Qx[m, :m] @ F[:m])
            b = rhs_v[m] + dt * (pre.QT[m, :m] @ F[:m])
            c = dt * pre.QT[m, m]
            V[m] = b if c == 0.0 else np.linalg.solve(np.eye(d) - c * A_v,
                                                       b + c * (A_x @ X[m]))
            F[m] = f(X[m], V[m])
    x_end = x0 + dt * v0 + dt * dt * (rule.qQ @ F)
    v_end = v0 + dt * (rule.q @ F)
    r_x = X - x0 - dt * rule.tau[:, None] * v0 - dt * dt * (rule.QQ @ F)
    r_v = V - v0 - dt * (rule.Q @ F)
    return x_end, v_end, max(np.max(np.abs(r_x)), np.max(np.abs(r_v))), len(evals)


_STEP_PROBLEMS = {
    "penning": (make_penning, (np.array([3.0, -7.0, 1.0]), np.array([60.0, 20.0, -90.0]))),
    "oscillator": (lambda: make_oscillator(4.0, 0.5), (np.array([1.0]), np.array([-0.5]))),
}


@pytest.mark.parametrize("name", list(_STEP_PROBLEMS))
@pytest.mark.parametrize("M, K, start", _MARCH_SETTINGS,
                         ids=lambda p: getattr(p, "value", str(p)))
def test_sdc_step_is_the_reference_step_bit_for_bit(name, M, K, start):
    # 20 steps, each from the previous step's end state; dt is no power of
    # two, so scaling a product before or after it rounds differently
    make, u0 = _STEP_PROBLEMS[name]
    problem, dt = make(), 0.01
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, M), K=K,
                        initial_guess=start, seed=42)
    fast = slow = u0
    for _ in range(20):
        got = sdc_step(problem, fast, dt, cfg)
        want = _reference_step(problem, slow, dt, cfg)
        assert np.array_equal(got.x_end, want[0]) and np.array_equal(got.v_end, want[1])
        assert got.final_residual == want[2] and got.f_evals == want[3]
        fast, slow = (got.x_end, got.v_end), want[:2]


@pytest.mark.parametrize("name", list(_STEP_PROBLEMS))
def test_picard_update_is_the_reference_step_bit_for_bit(name):
    make, u0 = _STEP_PROBLEMS[name]
    problem, dt = make(), 0.02
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3), K=4)
    before = problem.f_evals
    state, _, F = picard_iterate(problem, u0, dt, cfg.rule, cfg.K)
    x_end, v_end = collocation_module.update_step(state, u0, dt, cfg.rule, F)
    want = _reference_step(problem, u0, dt, cfg, picard=True)
    assert np.array_equal(x_end, want[0]) and np.array_equal(v_end, want[1])
    assert problem.f_evals - before == want[3]


@pytest.mark.parametrize("stepper", ["sdc", "rkn4"])
def test_march_linear_is_the_plain_map_loop_bit_for_bit(stepper):
    # t_end = 0.5 in steps of 0.03 ends in a shorter step: two probed maps
    problem = make_penning()
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3), K=3,
                        initial_guess=GuessStrategy.RANDOM, seed=42)
    step = (harness._sdc_stepper(problem, cfg) if stepper == "sdc"
            else harness._rkn4_stepper(problem))
    u0, t_end, dt = _STEP_PROBLEMS["penning"][1], 0.5, 0.03
    x_end, f_evals = harness._march_linear(problem, step, u0, t_end, dt)
    maps, u, t, spent = {}, np.concatenate(u0), 0.0, 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        if h not in maps:
            maps[h] = harness._step_map(problem, step, h)
        S, c, evals = maps[h]
        u = S @ u + c
        t, spent = t + h, spent + evals
    assert len(maps) == 2
    assert np.array_equal(x_end, u[:3]) and f_evals == spent


@pytest.mark.parametrize("kind", ["linear", "direct", "fixed-point", "zero-weight"])
def test_verlet_solve_leaves_its_inputs_unchanged(kind):
    # the node rows accumulate in verlet_solve's own copies of rhs_x and rhs_v
    problem = {
        "direct": SecondOrderIVP(d=3, force=lambda x, v: -np.sin(x),
                                 velocity_dependent=np.zeros(3, bool)),
        "fixed-point": SecondOrderIVP(d=3, force=lambda x, v: -0.3 * np.sin(v) - x,
                                      velocity_dependent=np.ones(3, bool)),
    }.get(kind, make_penning())
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)
    pre = _picard_preconditioner(rule) if kind == "zero-weight" else build_preconditioner(rule)
    rhs_x, rhs_v = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 4, 3))
    forces = problem.f_nodes(rhs_x, rhs_v)
    inputs = (rhs_x, rhs_v, forces)
    saved = [a.copy() for a in inputs]
    X, V, F = verlet_solve(problem, rhs_x, rhs_v, 0.05, pre, forces)
    assert not any(np.shares_memory(a, b) for a in (X, V, F) for b in inputs)
    for a, b in zip(inputs, saved):
        assert np.array_equal(a, b)


def test_node_solve_is_chosen_once_per_step_size(monkeypatch):
    # sdc_step chooses the node solve once, for the Verlet start's sweep too;
    # integrate once per step size, so a run that ends in a shorter step
    # chooses twice; picard_iterate once per call; the sweeps still call
    # collocation.verlet_solve
    chosen, swept = [], []
    choose, sweep = _node_solver, collocation_module.verlet_solve

    def spy_choose(*args):
        chosen.append(args)
        return choose(*args)

    def spy_sweep(*args, **kwargs):
        swept.append(args)
        return sweep(*args, **kwargs)
    for module in (preconditioner, collocation_module, sdc, baselines):
        monkeypatch.setattr(module, "_node_solver", spy_choose)
    monkeypatch.setattr(collocation_module, "verlet_solve", spy_sweep)
    problem = make_penning()
    u0 = (np.array([3.0, -7.0, 1.0]), np.array([60.0, 20.0, -90.0]))
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 3)
    for start in GuessStrategy:
        cfg = SweeperConfig(rule=rule, K=3, initial_guess=start, seed=42)
        sweeps = cfg.K + (start is GuessStrategy.VERLET_SWEEP)
        chosen.clear(), swept.clear()
        sdc_step(problem, u0, 0.01, cfg)
        assert len(chosen) == 1 and len(swept) == sweeps
        for t_end, steps, sizes in [(7 * 0.01, 7, 1), (7.5 * 0.01, 8, 2)]:
            chosen.clear(), swept.clear()
            times, _ = integrate(problem, u0, 0.0, t_end, 0.01, cfg)
            assert len(times) == steps and len(swept) == steps * sweeps
            assert len(chosen) == len({args[1] for args in chosen}) == sizes
    chosen.clear(), swept.clear()
    picard_iterate(problem, u0, 0.01, rule, 3)
    assert len(chosen) == 1 and len(swept) == 3


@pytest.mark.parametrize("problem", [
    make_penning(),
    SecondOrderIVP(d=3, force=lambda x, v: -np.sin(x), velocity_dependent=np.zeros(3, bool)),
    SecondOrderIVP(d=3, force=lambda x, v: 50.0 * v * v, velocity_dependent=np.ones(3, bool)),
], ids=["linear", "velocity-independent", "velocity-dependent"])
def test_zero_weights_take_one_force_evaluation_and_no_node_matrix(problem, monkeypatch):
    # Picard's node "solve": v = b, one f(x, b), no node matrix and no fixed-point
    # loop; spies see no I - c*A_v built (np.eye), checked or solved
    built = []
    for owner, name in [(np, "eye"), (np.linalg, "solve"), (preconditioner, "_gesv")]:
        monkeypatch.setattr(owner, name, lambda *a, _fn=getattr(owner, name), **k:
                            built.append(a) or _fn(*a, **k))
    x, b, f_start = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.25, -1.0]), np.ones(3)
    before = problem.f_evals
    v, f = _node_solver(problem, 0.1, np.zeros(3))(2, x, b, f_start)
    monkeypatch.undo()
    assert problem.f_evals == before + 1 and built == []
    assert np.array_equal(v, b) and np.array_equal(f, problem.force(x, b))


def test_nonlinear_velocity_solve_and_failure():
    # fixed-point path for a genuinely nonlinear velocity dependence
    problem = SecondOrderIVP(
        d=1,
        force=lambda x, v: np.array([-0.3 * np.sin(v[0]) - x[0]]),
        velocity_dependent=np.array([True]))
    rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 2)
    pre = build_preconditioner(rule)
    rhs_x = np.full((3, 1), 0.2)
    rhs_v = np.full((3, 1), 0.5)
    X, V, F = verlet_solve(problem, rhs_x, rhs_v, 0.3, pre,
                           problem.f_nodes(rhs_x, rhs_v))
    dt = 0.3
    res_v = V - dt * (pre.QT @ F) - rhs_v
    assert np.max(np.abs(res_v)) < 1e-11

    # a contraction factor above one makes the fixed point unreachable
    stiff = SecondOrderIVP(
        d=1,
        force=lambda x, v: np.array([50.0 * v[0]]),
        velocity_dependent=np.array([True]))
    with pytest.raises(SolverError) as info:
        verlet_solve(stiff, rhs_x, rhs_v, 0.3, pre, stiff.f_nodes(rhs_x, rhs_v))
    assert info.value.residual > 0


def test_non_finite_iterate_fails_at_once():
    # sqrt(x - 2) is NaN at x = 1, and NaN never meets the stop test: the
    # solve of node 1 fails at its first update rather than after _FP_MAXITER
    problem = SecondOrderIVP(d=1, force=lambda x, v: np.sqrt(x - 2.0) * v,
                             velocity_dependent=np.array([True]))
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3), K=3)
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="at node 1") as info:
        sdc_step(problem, (np.array([1.0]), np.array([1.0])), 0.1, cfg)
    assert info.value.node == 1 and np.isnan(info.value.residual)
    assert problem.f_evals <= 2


def _field(x):
    """A divergence-free mirror-like field B(x)."""
    return np.array([-0.1 * x[0] * x[2], -0.1 * x[1] * x[2], 2.0 + 0.1 * x[2] ** 2])


def _magnetic():
    """f = v x B(x): nonlinear in x, affine in v at fixed x, no linear parts."""
    return SecondOrderIVP(d=3, force=lambda x, v: np.cross(v, _field(x)),
                          velocity_dependent=np.ones(3, dtype=bool))


def test_magnetic_node_solves_match_direct_solve():
    # at fixed x the node equation v = b + c (v x B) is the linear system
    # (I - c L) v = b with L v = v x B, solved here by np.linalg.solve
    rng = np.random.default_rng(11)
    for M in (1, 3, 5):
        pre = build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, M))
        for _ in range(5):
            dt = float(rng.uniform(0.02, 0.2))
            rhs_x = rng.uniform(-3.0, 3.0, size=(M + 1, 3))
            rhs_v = rng.uniform(-10.0, 10.0, size=(M + 1, 3))
            problem = _magnetic()
            forces = problem.f_nodes(rhs_x, rhs_v) + rng.normal(size=(M + 1, 3))
            X, V, F = verlet_solve(problem, rhs_x, rhs_v, dt, pre, forces=forces)
            assert np.array_equal(F[0], forces[0])
            for m in range(1, M + 1):
                c = dt * pre.QT[m, m]
                b = rhs_v[m] + dt * (pre.QT[m, :m] @ F[:m])
                assert np.array_equal(
                    X[m], rhs_x[m] + dt * dt * (pre.Qx[m, :m] @ F[:m]))
                L = np.cross(np.eye(3), _field(X[m]))   # row i: e_i x B
                v_direct = np.linalg.solve(np.eye(3) - c * L.T, b)
                assert V[m] == pytest.approx(v_direct, rel=0, abs=1e-12)
                assert np.array_equal(F[m], problem.force(X[m], V[m]))
                v_new = b + c * F[m]
                assert (np.max(np.abs(V[m] - v_new))
                        <= _FP_TOL + _FP_RTOL * np.max(np.abs(v_new)))


@pytest.mark.parametrize("speed, dt, budget", [(1e3, 0.06, 3e-7), (1e4, 0.1, 1e-5)])
def test_fixed_point_stop_test_scales_with_speed(speed, dt, budget):
    # a uniform field declared without linear parts takes the fixed-point
    # loop; at these speeds an update of 1e-13 is below round-off, so an
    # absolute stop test alone raises SolverError
    B = np.array([0.0, 0.0, 5.0])
    problem = SecondOrderIVP(d=3, force=lambda x, v: np.cross(v, B),
                             velocity_dependent=np.ones(3, dtype=bool))
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 3), K=3)
    v0 = np.array([speed, 0.0, 0.0])
    times, results = integrate(problem, (np.zeros(3), v0), 0.0, 10 * dt, dt, cfg)
    assert len(results) == 10
    # exact gyration: v' = v x B turns v clockwise about z at rate |B| = 5
    wt = 5.0 * times[-1]
    exact = np.concatenate([speed / 5.0 * np.array([np.sin(wt), np.cos(wt) - 1.0, 0.0]),
                            speed * np.array([np.cos(wt), -np.sin(wt), 0.0])])
    got = np.concatenate([results[-1].x_end, results[-1].v_end])
    assert np.max(np.abs(got - exact)) <= budget * np.max(np.abs(exact))


@pytest.mark.parametrize("make", [
    make_penning,
    lambda: SecondOrderIVP(d=3, force=lambda x, v: -np.sin(x),
                           velocity_dependent=np.zeros(3, dtype=bool))],
    ids=["penning", "sine"])
def test_direct_branches_ignore_forces(make):
    # only the fixed-point loop starts from forces[1:]; the linear and the
    # velocity-independent solves must not round differently with them
    rng = np.random.default_rng(3)
    pre = build_preconditioner(build_rule(NodeFamily.GAUSS_LEGENDRE, 4))
    rhs_x = rng.normal(size=(5, 3))
    rhs_v = rng.normal(size=(5, 3))
    first, second = rng.normal(size=(2, 5, 3))
    first[0] = second[0] = make().f(rhs_x[0], rhs_v[0])
    one = verlet_solve(make(), rhs_x, rhs_v, 0.05, pre, forces=first)
    other = verlet_solve(make(), rhs_x, rhs_v, 0.05, pre, forces=second)
    for a, b in zip(one, other):
        assert np.array_equal(a, b)


def _node_solve(problem, c, rhs):
    """The linear node solve with x = 0, so its right-hand side is ``rhs``."""
    v, _ = _node_solver(problem, c, (1.0,))(1, np.zeros(problem.d), rhs, None)
    return v


def _reference_solve(problem, c, rhs):
    return np.linalg.solve(np.eye(problem.d) - c * problem.linear_parts[1], rhs)


_PENNING = st.builds(lambda b, e: make_penning(PenningParams(omega_b=b, omega_e=e)),
                     st.floats(0.0, 100.0), st.floats(0.0, 20.0))
_OSCILLATOR = st.builds(make_oscillator, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
_C = st.floats(0.0, 2.0)


@settings(deadline=None, max_examples=200)
@given(problem=st.one_of(_PENNING, _OSCILLATOR), c=_C, seed=st.integers(0, 2**32 - 1))
def test_linear_node_solve_is_np_linalg_solve(problem, c, seed):
    # the node solve calls np.linalg.solve's gesv kernel, so it must round
    # exactly as that call does
    rhs = np.random.default_rng(seed).uniform(-1e3, 1e3, problem.d)
    assert np.array_equal(_node_solve(problem, c, rhs),
                          _reference_solve(problem, c, rhs))


@st.composite
def _pivoting(draw):
    """(problem, c): general A_x and A_v, d = 1..4, with A_v scaled so that
    partial pivoting of I - c*A_v exchanges rows (d > 1): the first column's
    largest entry is off the diagonal."""
    d = draw(st.integers(1, 4))
    A_x, A_v = (np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                       max_size=d * d))).reshape(d, d) for _ in "xv")
    A_v *= 10.0 ** draw(st.floats(0.0, 3.0))
    c = draw(st.floats(0.5, 2.0))
    column = np.abs(np.eye(d)[:, 0] - c * A_v[:, 0])
    assume(d == 1 or column.argmax() > 0)
    return _linear_problem(A_x, A_v), c


@settings(deadline=None, max_examples=200)
@given(case=_pivoting(), seed=st.integers(0, 2**32 - 1))
def test_pivoting_node_solve_is_np_linalg_solve(case, seed):
    problem, c = case
    x, b = np.random.default_rng(seed).uniform(-1e3, 1e3, (2, problem.d))
    A_x, A_v = problem.linear_parts
    try:
        want = np.linalg.solve(np.eye(problem.d) - c * A_v, b + c * (A_x @ x))
    except np.linalg.LinAlgError:   # an exactly singular draw, such as c * A_v = 1
        with pytest.raises(SolverError, match="singular"):
            _node_solver(problem, c, (1.0,))
        return
    v, f = _node_solver(problem, c, (1.0,))(1, x, b, None)
    assert np.array_equal(v, want)
    assert np.array_equal(f, problem.f(x, v))


@settings(deadline=None, max_examples=50)
@given(b1=st.floats(0.0, 100.0), b2=st.floats(0.0, 100.0), c=_C,
       seed=st.integers(0, 2**32 - 1))
def test_node_matrices_key_on_values(b1, b2, c, seed):
    # two problems whose A_v differ at the same c, solved in turn, each get
    # their own node matrix
    first = make_penning(PenningParams(omega_b=b1))
    second = make_penning(PenningParams(omega_b=b2))
    rhs = np.random.default_rng(seed).uniform(-1e3, 1e3, 3)
    for problem in (first, second, first, second):
        assert np.array_equal(_node_solve(problem, c, rhs),
                              _reference_solve(problem, c, rhs))


def test_singular_node_matrix_is_solver_error():
    # x'' = 4 x': at M = 1 the node weight QT[1, 1] is 1/4, so dt = 1 gives
    # the node matrix 1 - (1/4) 4 = 0 exactly
    problem = _linear_problem([[0.0]], [[4.0]])
    cfg = SweeperConfig(rule=build_rule(NodeFamily.GAUSS_LEGENDRE, 1), K=2)
    assert 1.0 - 1.0 * cfg.matrices.QT[1, 1] * 4.0 == 0.0
    with pytest.raises(SolverError, match=r"singular at dt = 1\.0") as info:
        integrate(problem, (1.0, 1.0), 0.0, 2.0, 1.0, cfg)
    assert info.value.node == 1
    # a step of no sweep solves no node, so it has no node matrix to fail on
    cfg.K = 0
    assert len(integrate(problem, (1.0, 1.0), 0.0, 2.0, 1.0, cfg)[1]) == 2
    # the Verlet baseline's half-step node solve (c = dt/2) fails the same way
    with pytest.raises(SolverError, match=r"singular at dt = 0\.5"):
        verlet_step(problem, 1.0, 1.0, 0.5)

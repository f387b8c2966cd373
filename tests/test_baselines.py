import numpy as np
import pytest

from vvsdc import (DivergenceError, NodeFamily, build_preconditioner, build_rule,
                   exact_solution, make_oscillator, make_penning, verlet_solve)
from vvsdc.baselines import (integrate_rkn4, integrate_verlet, rkn4_step,
                             verlet_step)
from vvsdc.harness import fit_slope
from vvsdc.problems import SecondOrderIVP


class TestVerlet:
    def test_free_flight(self):
        problem = make_oscillator(0.0, 0.0)
        x, v, _ = verlet_step(problem, [1.0], [2.0], 0.5)
        assert x[0] == pytest.approx(2.0)
        assert v[0] == pytest.approx(2.0)

    def test_constant_force(self):
        g = 3.0
        problem = SecondOrderIVP(d=1, force=lambda x, v: np.array([g]),
                                 velocity_dependent=np.array([False]))
        dt = 0.7
        x, v, _ = verlet_step(problem, [1.0], [2.0], dt)
        assert x[0] == pytest.approx(1.0 + dt * 2.0 + dt * dt * g / 2.0)
        assert v[0] == pytest.approx(2.0 + dt * g)

    def test_global_order_two(self):
        dts = [0.1 * 2.0 ** -i for i in range(5)]
        errs = []
        for dt in dts:
            problem = make_oscillator(1.0, 0.0)
            _, xs, _ = integrate_verlet(problem, ([1.0], [0.0]), 0.0, 1.0, dt)
            xe, _ = exact_solution(problem, 1.0, [1.0], [0.0])
            errs.append(abs(xs[-1, 0] - xe[0]))
        slope, _, _ = fit_slope(dts, errs)
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("dt, steps", [(2.0 ** -6, 64), (0.01, 100),
                                           (0.03, 34)])
    def test_trailing_force_reuse(self, dt, steps):
        # one evaluation per step plus the first force, also when the last
        # step is shorter than dt
        problem = make_penning()
        _, xs, _ = integrate_verlet(problem,
                                    ([10.0, 0.0, 0.0], [100.0, 0.0, 100.0]),
                                    0.0, 1.0, dt)
        assert len(xs) == steps
        assert problem.f_evals == steps + 1

    @pytest.mark.parametrize("x0", [2e8, np.nextafter(1e8, np.inf), np.inf, np.nan])
    def test_divergence_guard(self, x0):
        # the guard of RK4 and the SDC and Picard iterates: past 1e8 or not finite
        problem = make_oscillator(0.0, 0.0)
        assert np.array_equal(verlet_step(problem, [1e8], [-1e8], 0.0)[:2], ([1e8], [-1e8]))
        with np.errstate(invalid="ignore"), pytest.raises(
                DivergenceError, match=r"^Verlet state exceeded 1e\+08 or is not finite$"):
            verlet_step(problem, [x0], [0.0], 0.1)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            verlet_step(problem, [0.0], [x0], 0.1)

    def test_composition_equals_verlet_solve(self):
        # stepping through the node spacings is the same pass verlet_solve
        # makes when the right-hand side is the free-flight value
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 4)
        pre = build_preconditioner(rule)
        problem = make_penning()
        x0 = np.array([10.0, 0.0, 0.0])
        v0 = np.array([100.0, 0.0, 100.0])
        dt = 0.02
        tau = np.concatenate(([0.0], rule.nodes))
        rhs_x = x0[None, :] + dt * tau[:, None] * v0[None, :]
        rhs_v = np.tile(v0, (rule.M + 1, 1))
        # the copy start's forces: f(x0, v0) at every node
        forces = np.tile(problem.f(x0, v0), (rule.M + 1, 1))
        X, V, _ = verlet_solve(problem, rhs_x, rhs_v, dt, pre, forces)
        x, v, f = np.array(x0), np.array(v0), None
        for m, sub in enumerate(np.diff(rule.tau) * dt, start=1):
            x, v, f = verlet_step(make_penning(), x, v, sub, f_prev=f)
            assert X[m] == pytest.approx(x, abs=1e-12)
            assert V[m] == pytest.approx(v, abs=1e-12)


class TestRkn4:
    def test_free_flight(self):
        problem = make_oscillator(0.0, 0.0)
        x, v = rkn4_step(problem, [1.0], [2.0], 0.5)
        assert x[0] == pytest.approx(2.0)
        assert v[0] == pytest.approx(2.0)

    def test_global_order_four(self):
        dts = [0.2 * 2.0 ** -i for i in range(5)]
        errs = []
        for dt in dts:
            problem = make_oscillator(1.0, 0.0)
            _, xs, _ = integrate_rkn4(problem, ([1.0], [0.0]), 0.0, 1.0, dt)
            xe, _ = exact_solution(problem, 1.0, [1.0], [0.0])
            errs.append(abs(xs[-1, 0] - xe[0]))
        slope, _, _ = fit_slope(dts, errs)
        assert slope == pytest.approx(4.0, abs=0.15)

    def test_fifth_order_local_accuracy(self):
        # one step agrees with the exact rotation to O(dt^5)
        problem = make_oscillator(1.0, 0.0)
        dts = [0.2 * 2.0 ** -i for i in range(5)]
        errs = []
        for dt in dts:
            x, v = rkn4_step(problem, [1.0], [0.0], dt)
            xe, ve = exact_solution(problem, dt, [1.0], [0.0])
            errs.append(max(abs(x[0] - xe[0]), abs(v[0] - ve[0])))
        slope, _, _ = fit_slope(dts, errs)
        assert slope == pytest.approx(5.0, abs=0.2)

    def test_four_evals_per_step(self):
        problem = make_penning()
        integrate_rkn4(problem, ([10.0, 0.0, 0.0], [100.0, 0.0, 100.0]),
                       0.0, 1.0, 0.01)
        assert problem.f_evals == 4 * 100

    @pytest.mark.parametrize("x0", [2e8, np.nextafter(1e8, np.inf), np.inf, np.nan])
    def test_divergence_guard(self, x0):
        # the same guard as the SDC and Picard iterates: past 1e8 or not finite
        problem = make_oscillator(0.0, 0.0)
        assert rkn4_step(problem, [9e7], [0.0], 0.1)[0] == pytest.approx([9e7])
        assert np.array_equal(rkn4_step(problem, [1e8], [-1e8], 0.0), ([1e8], [-1e8]))
        with np.errstate(invalid="ignore"), pytest.raises(
                DivergenceError, match=r"^RK4 state exceeded 1e\+08 or is not finite$"):
            rkn4_step(problem, [x0], [0.0], 0.1)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            rkn4_step(problem, [0.0], [x0], 0.1)

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from vvsdc import (ConfigurationError, PenningParams, exact_solution,
                   make_oscillator, make_penning)
from vvsdc.baselines import integrate_rkn4
from vvsdc.harness import ExperimentConfig
from vvsdc.problems import SecondOrderIVP


class TestOscillator:
    def test_undamped_exact_is_cosine(self):
        problem = make_oscillator(1.0, 0.0)
        for t in (0.3, 1.0, 2.5):
            x, v = exact_solution(problem, t, [1.0], [0.0])
            assert x[0] == pytest.approx(np.cos(t), abs=1e-12)
            assert v[0] == pytest.approx(-np.sin(t), abs=1e-12)

    def test_free_flight(self):
        problem = make_oscillator(0.0, 0.0)
        x, v = exact_solution(problem, 2.0, [1.0], [3.0])
        assert x[0] == pytest.approx(7.0, abs=1e-12)
        assert v[0] == pytest.approx(3.0, abs=1e-12)

    def test_overdamped_vs_reference_integration(self):
        problem = make_oscillator(1.0, 3.0)
        x, v = exact_solution(problem, 1.0, [1.0], [0.0])
        ref = make_oscillator(1.0, 3.0)
        _, xs, vs = integrate_rkn4(ref, ([1.0], [0.0]), 0.0, 1.0, 1e-4)
        assert x[0] == pytest.approx(xs[-1, 0], abs=1e-10)
        assert v[0] == pytest.approx(vs[-1, 0], abs=1e-10)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            make_oscillator(-1.0, 0.0)

    @pytest.mark.parametrize("kappa, mu", [(np.nan, 0.0), (np.inf, 0.0),
                                           (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_parameters_rejected(self, kappa, mu):
        with pytest.raises(ConfigurationError, match="finite"):
            make_oscillator(kappa, mu)


class TestPenning:
    def test_electric_force(self):
        problem = make_penning(PenningParams(omega_b=2.0, omega_e=1.0,
                                             epsilon=-1.0))
        f = problem.f(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        assert f == pytest.approx([1.0, 0.0, 0.0])

    def test_magnetic_force(self):
        problem = make_penning(PenningParams(omega_b=2.0, omega_e=1.0,
                                             epsilon=-1.0))
        f = problem.f(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert f == pytest.approx([2.0, 0.0, 0.0])

    def test_axial_component_velocity_independent(self):
        problem = make_penning()
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        f_a = problem.f(x, rng.normal(size=3))
        f_b = problem.f(x, rng.normal(size=3))
        assert f_a[2] == pytest.approx(f_b[2], abs=1e-14)
        assert problem.velocity_dependent.tolist() == [True, True, False]

    def test_linear_parts_agree_with_force(self):
        problem = make_penning()
        A_x, A_v = problem.linear_parts
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, v = rng.normal(size=3), rng.normal(size=3)
            assert problem.f(x, v) == pytest.approx(A_x @ x + A_v @ v,
                                                    abs=1e-14)

    @pytest.mark.parametrize("field, value", [
        ("omega_b", np.inf), ("omega_e", np.nan), ("epsilon", -np.inf),
        ("x0", (0.0, np.nan, 0.0)), ("v0", (0.0, 0.0, np.inf))])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            PenningParams(**{field: value})


def _built(config: ExperimentConfig):
    """What a run starts from: the problem's linear parts and the initial value."""
    return (*config.make_problem().linear_parts, *config.initial_value())


def _assert_changes(base: ExperimentConfig, changed: ExperimentConfig):
    assert any(not np.array_equal(a, b) for a, b in zip(_built(base), _built(changed)))


# A parameter that changes neither the problem nor where it starts is a knob
# with no effect of its own; every parameter moved in turn must show.
@pytest.mark.parametrize("name", [f.name for f in fields(PenningParams)])
def test_every_penning_field_has_an_effect(name):
    base = ExperimentConfig(problem="penning")
    value = getattr(base.penning, name)
    value = tuple(c + 1.0 for c in value) if isinstance(value, tuple) else value + 1.0
    _assert_changes(base, replace(base, penning=replace(base.penning, **{name: value})))


@pytest.mark.parametrize("name", list(inspect.signature(make_oscillator).parameters))
def test_every_oscillator_argument_has_an_effect(name):
    # each argument is the ExperimentConfig field of the same name
    base = ExperimentConfig(problem="oscillator")
    _assert_changes(base, replace(base, **{name: getattr(base, name) + 1.0}))


class TestExactSolution:
    def test_identity_at_t0(self):
        problem = make_penning()
        x, v = exact_solution(problem, 0.0, [10.0, 0.0, 0.0], [100.0, 0.0, 100.0])
        assert x == pytest.approx([10.0, 0.0, 0.0])
        assert v == pytest.approx([100.0, 0.0, 100.0])

    def test_semigroup_property(self):
        problem = make_penning()
        x0, v0 = np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0])
        xa, va = exact_solution(problem, 0.3, x0, v0)
        xb, vb = exact_solution(problem, 0.2, xa, va)
        xc, vc = exact_solution(problem, 0.5, x0, v0)
        assert xb == pytest.approx(xc, rel=1e-11)
        assert vb == pytest.approx(vc, rel=1e-11)

    def test_missing_oracle(self):
        problem = SecondOrderIVP(d=1, force=lambda x, v: -x ** 3,
                                 velocity_dependent=np.array([False]))
        with pytest.raises(ConfigurationError):
            exact_solution(problem, 1.0, [1.0], [0.0])


def test_f_eval_counter():
    problem = make_penning()
    assert problem.f_evals == 0
    problem.f(np.zeros(3), np.zeros(3))
    assert problem.f_evals == 1
    problem.f_nodes(np.zeros((4, 3)), np.zeros((4, 3)))
    assert problem.f_evals == 5

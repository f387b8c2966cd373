"""Reference integrators: plain velocity-Verlet and the RK4 baseline."""
from __future__ import annotations

import numpy as np

from .collocation import _check_guard
from .preconditioner import _node_solver
from .problems import SecondOrderIVP
from .sdc import march


def verlet_step(problem: SecondOrderIVP, x, v, dt: float, f_prev=None):
    """One velocity-Verlet step.

    Passing ``f_prev`` (the trailing force of the previous step) reuses it,
    so a long run costs one new force evaluation per step; the implicit half
    of v' is the memoised node solve of the problem, ``dt`` and the weight 1/2.
    Returns (x', v', f') with f' the force at the new state.  A new state
    past DIVERGENCE_GUARD, or not finite, is a DivergenceError, as for RK4.
    """
    x = np.atleast_1d(np.asarray(x, float))
    v = np.atleast_1d(np.asarray(v, float))
    f0 = problem.f(x, v) if f_prev is None else np.asarray(f_prev, float)
    x_new = x + dt * (v + 0.5 * dt * f0)
    # v' = v + dt/2 (f0 + f(x', v')); implicit only if f depends on v, and
    # then solved starting from the force f0 already known, as node 1 of the
    # trapezoidal rule on the nodes (0, 1)
    b = v + 0.5 * dt * f0
    v_new, f_new = _node_solver(problem, dt, (0.5,))(1, x_new, b, f0)
    _check_guard("Verlet state", x_new, v_new)
    return x_new, v_new, f_new


def integrate_verlet(problem: SecondOrderIVP, u0, t0: float, t_end: float,
                     dt: float):
    """Velocity-Verlet run; returns (times, xs, vs) arrays over the steps.

    The trailing force f(x', v') of each step starts the next one whatever
    its size, so a run costs one force evaluation per step plus the first.
    """
    def step(u, h):
        u = verlet_step(problem, u[0], u[1], h, f_prev=u[2])
        return u, u
    times, states = march(step, (u0[0], u0[1], None), t0, t_end, dt)
    xs, vs, _ = zip(*states)
    return times, np.array(xs), np.array(vs)


def rkn4_step(problem: SecondOrderIVP, x, v, dt: float):
    """Classical four-stage RK4 on the companion first-order system.

    This is the artifact's fourth-order Runge-Kutta-Nystrom stand-in; it
    costs four force evaluations per step.  A new state past
    DIVERGENCE_GUARD, or not finite, is a DivergenceError, as for the SDC
    and Picard iterates.
    """
    x = np.atleast_1d(np.asarray(x, float))
    v = np.atleast_1d(np.asarray(v, float))
    k1x, k1v = v, problem.f(x, v)
    k2x, k2v = v + 0.5 * dt * k1v, problem.f(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
    k3x, k3v = v + 0.5 * dt * k2v, problem.f(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
    k4x, k4v = v + dt * k3v, problem.f(x + dt * k3x, v + dt * k3v)
    x_new = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    _check_guard("RK4 state", x_new, v_new)
    return x_new, v_new


def integrate_rkn4(problem: SecondOrderIVP, u0, t0: float, t_end: float,
                   dt: float):
    """RK4 run; returns (times, xs, vs) arrays over the steps."""
    def step(u, h):
        u = rkn4_step(problem, u[0], u[1], h)
        return u, u
    times, states = march(step, u0, t0, t_end, dt)
    xs, vs = zip(*states)
    return times, np.array(xs), np.array(vs)

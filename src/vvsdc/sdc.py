"""The preconditioned iteration: sweeps, starting values, steps, integration."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache, partial

import numpy as np

from .collocation import (NodeState, StepResult, _as_u0, _check_guard, _rows,
                          _sweep, collocation_residual, free_flight, update_step)
from .errors import ConfigurationError, DivergenceError, _check_sweeps
# verlet_solve is re-exported: perfbench's tracer test reads vvsdc.sdc.verlet_solve
from .preconditioner import (PreconditionerMatrices, _node_solver, build_preconditioner,
                             verlet_solve)
from .problems import SecondOrderIVP
from .quadrature import QuadratureRule


class GuessStrategy(Enum):
    COPY_INITIAL = "copy"
    VERLET_SWEEP = "verlet"
    RANDOM = "random"


_GUESS_ORDER = {GuessStrategy.COPY_INITIAL: 0,
                GuessStrategy.RANDOM: 0,
                GuessStrategy.VERLET_SWEEP: 2}


@dataclass
class SweeperConfig:
    rule: QuadratureRule
    K: int = 3
    initial_guess: GuessStrategy = GuessStrategy.COPY_INITIAL
    seed: int = 0
    matrices: PreconditionerMatrices = field(init=False, repr=False)

    def __post_init__(self):
        _check_sweeps(self.K)
        self.matrices = build_preconditioner(self.rule)

    @property
    def k0(self) -> int:
        """Approximation order of the starting procedure."""
        return _GUESS_ORDER[self.initial_guess]


@lru_cache(maxsize=64)
def _random_draws(seed: int, Mp1: int, d: int):
    """The seeded random start's (X, V) draws, made once per (seed, M+1, d).

    The draws never change, so callers take copies rather than rebuilding
    the generator each step.  ``seed`` is an integer: a ``Generator`` seed
    would draw anew on every step, which a cache cannot reproduce.
    """
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1.0, 1.0, size=(Mp1, d)),
            rng.uniform(-1.0, 1.0, size=(Mp1, d)))


def initial_guess(u0, problem: SecondOrderIVP, dt: float,
                  config: SweeperConfig, ff: NodeState | None = None, *, _solve=None):
    """Starting iterate U^0 plus its node forces, by ``config.initial_guess``.

    The Verlet start is the copy start followed by one :func:`sdc_sweep`,
    which takes ``ff`` and ``_solve`` as that function does.  The copy's force f0 is
    constant.  Q and QT integrate a constant alike, and QQ and Qx integrate
    it twice alike wherever ``rule.QQ`` integrates a linear function
    exactly, so that sweep has no correction term there: it is the
    velocity-Verlet pass through the nodes.  That holds for every rule but
    M = 1 Gauss-Legendre and M = 1 Gauss-Radau, whose one-node QQ leaves a
    position correction dt^2 (QQ - Qx) f0.
    """
    x0, v0 = _as_u0(u0, problem.d)
    Mp1 = config.rule.M + 1
    if config.initial_guess is GuessStrategy.RANDOM:
        X, V = (w.copy() for w in _random_draws(operator.index(config.seed),
                                                Mp1, problem.d))
        X[0], V[0] = x0, v0
        return NodeState(X, V), problem.f_nodes(X, V)
    state = NodeState(_rows(x0, Mp1), _rows(v0, Mp1))
    F = _rows(problem.f(x0, v0), Mp1)
    if config.initial_guess is GuessStrategy.VERLET_SWEEP:
        return sdc_sweep(problem, state, u0, dt, config, F, ff, _solve=_solve)
    return state, F


def sdc_sweep(problem: SecondOrderIVP, prev: NodeState, u0, dt: float,
              config: SweeperConfig, prev_forces=None,
              ff: NodeState | None = None, *, _solve=None):
    """One correction sweep with Q_pre = Q_vv: a velocity-Verlet pass with
    quadrature corrections (see ``collocation._sweep``).  ``ff``, the step's
    :func:`free_flight` nodes C_coll U_0, is built here when not given, and
    the node solve ``_solve`` by ``verlet_solve``.  Returns the new state and its node forces.
    """
    Fk = problem.f_nodes(prev.X, prev.V) if prev_forces is None else prev_forces
    if ff is None:
        ff = free_flight(u0, dt, config.rule, problem.d)
    return _sweep(problem, ff, dt, config.matrices, Fk, _solve)


def _step_solver(problem: SecondOrderIVP, dt: float, config: SweeperConfig):
    """The node solve of a step of ``dt`` under ``config``, or None if the step
    sweeps never: it sweeps when K > 0 or its start is the Verlet sweep."""
    if config.K or config.initial_guess is GuessStrategy.VERLET_SWEEP:
        return _node_solver(problem, dt, config.matrices.QT.diagonal()[1:])


def sdc_step(problem: SecondOrderIVP, u0, dt: float,
             config: SweeperConfig, *, _solve=None) -> StepResult:
    """One full SDC time step: starting guess, K sweeps, quadrature update.

    ``final_residual`` is the collocation residual of the last iterate,
    computed on first read.  ``u0`` is converted once, here.  The sweeps' node
    solve ``_solve``, :func:`_step_solver`'s, is chosen here when not given.
    """
    evals_before = problem.f_evals
    u0 = _as_u0(u0, problem.d)
    ff = free_flight(u0, dt, config.rule, problem.d)
    solve = _solve or _step_solver(problem, dt, config)
    state, F = initial_guess(u0, problem, dt, config, ff=ff, _solve=solve)
    for k in range(1, config.K + 1):
        state, F = sdc_sweep(problem, state, u0, dt, config, F, ff, _solve=solve)
        _check_guard("SDC iterate", state.X, state.V, k, config.K, dt)
    x_end, v_end = update_step(state, u0, dt, config.rule, forces=F)
    return StepResult(x_end=x_end, v_end=v_end,
                      f_evals=problem.f_evals - evals_before,
                      _residual=partial(collocation_residual, problem, state, u0,
                                        dt, config.rule, forces=F))


def march(step, u0, t0: float, t_end: float, dt: float):
    """Serial time stepping from t0 to t_end; a final partial step is allowed.

    ``step(u, h)`` advances the state ``u`` by ``h`` and returns
    ``(u_next, out)``.  Time accumulates step by step (``t += h``), so
    every step but the last is exactly ``dt``.  Returns (times, outs) with
    times[i] the end time of outs[i].  A ``dt`` that is not positive and
    finite, or a span within the end guard ``1e-12*max(1, |t_end|)``, would
    never end or take no step and is a ``ConfigurationError`` (a
    ``ValueError``).  A ``DivergenceError`` from ``step`` is raised again
    with the time at which that step started added to its message.
    """
    if not 0.0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")
    end = t_end - 1e-12 * max(1.0, abs(t_end))
    if not t0 < end:
        raise ConfigurationError(
            f"t_end must exceed t0 by more than the step guard, got t0 = {t0!r}, "
            f"t_end = {t_end!r}")
    u, t = u0, t0
    times, outs = [], []
    while t < end:
        h = min(dt, t_end - t)
        try:
            u, out = step(u, h)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} in the step from t = {float(t)!r}") from exc
        t += h
        times.append(t)
        outs.append(out)
    return np.array(times), outs


def integrate(problem: SecondOrderIVP, u0, t0: float, t_end: float, dt: float,
              config: SweeperConfig):
    """SDC steps from t0 to t_end; returns (times, results) as :func:`march`."""
    solves = cache(lambda h: _step_solver(problem, h, config))   # once per step size

    def step(u, h):
        res = sdc_step(problem, u, h, config, _solve=solves(h))
        return (res.x_end, res.v_end), res
    return march(step, _as_u0(u0, problem.d), t0, t_end, dt)

"""The collocation system: residual, direct solve, the sweep of SDC and Picard, update."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DivergenceError, SolverError, _check_sweeps
from .preconditioner import PreconditionerMatrices, _picard_preconditioner, verlet_solve
from .problems import SecondOrderIVP
from .quadrature import QuadratureRule

DIVERGENCE_GUARD = 1e8
# the step's small products use ndarray.dot: matmul's BLAS call and bits, minus its ufunc dispatch


@dataclass
class NodeState:
    """Positions and velocities stacked over nodes 0..M, node 0 = start."""

    X: np.ndarray  # (M+1, d)
    V: np.ndarray  # (M+1, d)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def copy(self) -> "NodeState":
        return NodeState(self.X.copy(), self.V.copy())


@dataclass
class StepResult:
    """A step's end state and the f-evals it spent.

    ``final_residual`` is computed on first read by ``_residual()``, from
    the last iterate and node forces the step already holds, so it costs no
    f-evals, and a caller that never reads it never pays for it.
    """

    x_end: np.ndarray
    v_end: np.ndarray
    f_evals: int
    _residual: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def final_residual(self) -> float:
        return self._residual()


def _vector(w, d):
    """A fresh float (d,) copy of ``w``; a scalar or length-1 ``w`` is broadcast."""
    w = np.array(w, dtype=float)
    return w if w.shape == (d,) else np.broadcast_to(w, (d,)).copy()


class _StartValue(tuple):
    """(x0, v0) as made by :func:`_as_u0`."""


def _as_u0(u0, d):
    """(x0, v0) as fresh float (d,) arrays.

    A pair this function made is returned unchanged, so a step converts its
    ``u0`` once and the functions it calls reuse that pair.
    """
    if type(u0) is _StartValue:
        return u0
    x0, v0 = u0
    return _StartValue((_vector(x0, d), _vector(v0, d)))


def _rows(w, n):
    """``n`` stacked copies of the (d,) vector ``w`` as an (n, d) array."""
    rows = np.empty((n, len(w)))
    rows[:] = w   # a broadcast assignment: half np.repeat's time, the same values
    return rows


def _check_guard(what: str, X, V, k=None, K=None, dt=None) -> None:
    """A DivergenceError unless X and V, of one shape, are finite and at most DIVERGENCE_GUARD
    in size (one reduction, which NaN fails); a sweep's message names ``k`` of ``K`` and ``dt``."""
    if not np.abs((X, V)).max() <= DIVERGENCE_GUARD:
        where = "" if k is None else f" in sweep {k} of K = {K} at dt = {float(dt)!r}"
        raise DivergenceError(f"{what} exceeded {DIVERGENCE_GUARD:g} or is not finite{where}")


def free_flight(u0, dt: float, rule: QuadratureRule, d: int) -> NodeState:
    """Node values for f = 0: X_m = x0 + dt tau_m v0, V_m = v0."""
    x0, v0 = _as_u0(u0, d)
    X = x0 + dt * rule.tau[:, None] * v0
    return NodeState(X, _rows(v0, rule.M + 1))


def collocation_residual(problem: SecondOrderIVP, state: NodeState, u0,
                         dt: float, rule: QuadratureRule, forces=None) -> float:
    """Infinity-norm residual of the collocation system at ``state``."""
    x0, v0 = _as_u0(u0, problem.d)
    F = problem.f_nodes(state.X, state.V) if forces is None else forces
    r_x = state.X - x0 - dt * rule.tau[:, None] * v0 - dt * dt * (rule.QQ @ F)
    r_v = state.V - v0 - dt * (rule.Q @ F)
    return max(np.max(np.abs(r_x)), np.max(np.abs(r_v)))


def solve_collocation_linear(problem: SecondOrderIVP, u0, dt: float,
                             rule: QuadratureRule) -> NodeState:
    """Direct dense solve of the collocation system for a linear force."""
    if not problem.is_linear:
        raise SolverError("direct collocation solve needs a linear problem")
    A_x, A_v = problem.linear_parts
    d, Mp1 = problem.d, rule.M + 1
    n = Mp1 * d
    # F(U) = Fx X + Fv V with node-wise blocks
    Fx = np.kron(np.eye(Mp1), A_x)
    Fv = np.kron(np.eye(Mp1), A_v)
    QQb = np.kron(rule.QQ, np.eye(d))
    Qb = np.kron(rule.Q, np.eye(d))
    A = np.block([
        [np.eye(n) - dt * dt * QQb @ Fx, -dt * dt * QQb @ Fv],
        [-dt * Qb @ Fx, np.eye(n) - dt * Qb @ Fv],
    ])
    ff = free_flight(u0, dt, rule, d)
    rhs = np.concatenate([ff.X.ravel(), ff.V.ravel()])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"collocation system singular at dt={dt}") from exc
    return NodeState(sol[:n].reshape(Mp1, d), sol[n:].reshape(Mp1, d))


def _sweep(problem: SecondOrderIVP, ff: NodeState, dt: float,
           pre: PreconditionerMatrices, forces):
    """One sweep, (I - dt Q_pre F) U^{k+1} = dt (Q_coll - Q_pre) F(U^k) + C_coll U_0 node by
    node, from ``ff`` = C_coll U_0 and ``forces`` = F(U^k), by ``verlet_solve``;
    returns U^{k+1} and its forces."""
    X, V, F = verlet_solve(problem, ff.X + dt * dt * pre.QQ_Qx.dot(forces),
                           ff.V + dt * pre.Q_QT.dot(forces), dt, pre, forces)
    return NodeState(X, V), F


def picard_iterate(problem: SecondOrderIVP, u0, dt: float, rule: QuadratureRule,
                   K: int, initial: NodeState | None = None):
    """Unpreconditioned Richardson iteration on the collocation system.

    Iterates U^{k+1} = C_coll U_0 + dt Q_coll F(U^k) K times, from
    ``initial`` or else from the free-flight nodes: K sweeps with Picard's
    zero preconditioner, whose node "solve" is v = b.  Returns the final
    state, the trace of infinity-norm updates, and the final force values.
    """
    _check_sweeps(K)
    ff = free_flight(u0, dt, rule, problem.d)
    pre = _picard_preconditioner(rule)
    state = ff.copy() if initial is None else initial.copy()
    F = problem.f_nodes(state.X, state.V)
    trace = []
    for k in range(1, K + 1):
        (state, F), prev = _sweep(problem, ff, dt, pre, F), state
        trace.append(max(np.max(np.abs(state.X - prev.X)), np.max(np.abs(state.V - prev.V))))
        _check_guard("Picard iterate", state.X, state.V, k, K, dt)
    return state, trace, F


def update_step(state: NodeState, u0, dt: float, rule: QuadratureRule, forces):
    """End-of-step update from the node values and their ``forces`` via the
    q and qQ rows."""
    x0, v0 = _as_u0(u0, state.d)
    x_end = x0 + dt * v0 + dt * dt * rule.qQ.dot(forces)
    v_end = v0 + dt * rule.q.dot(forces)
    return x_end, v_end

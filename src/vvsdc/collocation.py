"""The collocation system: residual, direct solve, Picard iteration, update."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, SolverError
from .problems import SecondOrderIVP
from .quadrature import QuadratureRule

DIVERGENCE_GUARD = 1e8


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
    x_end: np.ndarray
    v_end: np.ndarray
    f_evals: int
    final_residual: float


def _vector(w, d):
    """A fresh float (d,) copy of ``w``; a scalar or length-1 ``w`` is broadcast."""
    w = np.array(w, dtype=float)
    return w if w.shape == (d,) else np.broadcast_to(w, (d,)).copy()


def _as_u0(u0, d):
    x0, v0 = u0
    return _vector(x0, d), _vector(v0, d)


def _rows(w, n):
    """``n`` stacked copies of the (d,) vector ``w`` as an (n, d) array."""
    return np.repeat(w[None, :], n, axis=0)


def _within_guard(*arrays) -> bool:
    """Whether every value of ``arrays`` is finite and at most DIVERGENCE_GUARD
    in size.

    NaN compares false, so a NaN iterate is outside the guard too.
    """
    for a in arrays:
        if not np.abs(a).max() <= DIVERGENCE_GUARD:
            return False
    return True


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


def picard_iterate(problem: SecondOrderIVP, u0, dt: float, rule: QuadratureRule,
                   K: int, initial: NodeState | None = None):
    """Unpreconditioned Richardson iteration on the collocation system.

    Iterates U^{k+1} = C_coll U_0 + dt Q_coll F(U^k) K times, from
    ``initial`` or else from the free-flight nodes.  Returns the final state,
    the trace of infinity-norm updates, and the final force values.
    """
    ff = free_flight(u0, dt, rule, problem.d)
    state = ff.copy() if initial is None else initial.copy()
    F = problem.f_nodes(state.X, state.V)
    trace = []
    for k in range(K):
        X_new = ff.X + dt * dt * (rule.QQ @ F)
        V_new = ff.V + dt * (rule.Q @ F)
        delta = max(np.max(np.abs(X_new - state.X)), np.max(np.abs(V_new - state.V)))
        trace.append(delta)
        state = NodeState(X_new, V_new)
        if not _within_guard(state.X, state.V):
            raise DivergenceError(
                f"Picard iterate exceeded {DIVERGENCE_GUARD:g} or is not finite at k={k}")
        F = np.vstack([F[:1], problem.f_nodes(state.X[1:], state.V[1:])])
    return state, trace, F


def update_step(state: NodeState, u0, dt: float, rule: QuadratureRule, forces):
    """End-of-step update from the node values and their ``forces`` via the
    q and qQ rows."""
    x0, v0 = _as_u0(u0, state.d)
    x_end = x0 + dt * v0 + dt * dt * (rule.qQ @ forces)
    v_end = v0 + dt * (rule.q @ forces)
    return x_end, v_end

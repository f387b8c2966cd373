"""Velocity-Verlet matrices and the node-by-node solve they enable."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import SolverError
from .problems import SecondOrderIVP
from .quadrature import QuadratureRule

_FP_TOL = 1e-13
_FP_RTOL = 8 * np.finfo(float).eps   # 1e-13 alone is below the round-off of v at |v| >~ 1e3
_FP_MAXITER = 100


@dataclass(frozen=True)
class PreconditionerMatrices:
    QT: np.ndarray     # (QE + QI) / 2, trapezoidal force weights
    Qx: np.ndarray     # QE @ QT + (QE * QE) / 2, position weights
    QQ_Qx: np.ndarray  # rule.QQ - Qx, position correction block of a sweep
    Q_QT: np.ndarray   # rule.Q - QT, velocity correction block of a sweep


def build_preconditioner(rule: QuadratureRule) -> PreconditionerMatrices:
    """QT and Qx from QE (node spacings below the diagonal) and QI (QE one column right)."""
    M = rule.M
    dtau = np.diff(rule.tau)
    QE = np.zeros((M + 1, M + 1))
    QI = np.zeros((M + 1, M + 1))
    for m in range(1, M + 1):
        QE[m, :m] = dtau[:m]
        QI[m, 1:m + 1] = dtau[:m]
    QT = 0.5 * (QE + QI)
    Qx = QE @ QT + 0.5 * QE * QE
    return PreconditionerMatrices(QT=QT, Qx=Qx, QQ_Qx=rule.QQ - Qx, Q_QT=rule.Q - QT)


@lru_cache(maxsize=256)
def _node_factor(a_v: bytes, d: int, c: float):
    """LU factor ``(lu, piv, info)`` of ``I - c*A_v`` by LAPACK ``getrf``.

    ``A_v`` arrives as the bytes of its float values, so the cache keys on
    values: two problems with equal ``A_v`` and ``c`` share one factor, and
    two with different ``A_v`` never do.  ``getrf`` followed by ``getrs``
    is what ``np.linalg.solve`` runs (``gesv``), so a factored solve
    rounds exactly as that call would.
    """
    return dgetrf(np.eye(d) - c * np.frombuffer(a_v).reshape(d, d))


def _solve_node_velocity(problem: SecondOrderIVP, x, b, dt, weight, f_start,
                         node):
    """Solve v = b + c * f(x, v), c = dt * weight, for the velocity at one node.

    Linear forces solve ``(I - c A_v) v = b + c A_x x`` with the LU factor
    of ``I - c A_v``, built once per (A_v values, c) and kept in a bounded
    cache; a singular matrix is a ``SolverError`` naming the node and
    ``dt``.  Velocity-independent forces are solved directly.  Any other
    force takes a fixed-point loop that starts at v = b + c * f_start and
    stops at the first iterate whose residual |b + c * f(x, v) - v| is at
    most _FP_TOL + _FP_RTOL * max|b + c * f(x, v)|; that iterate is returned
    with the force already evaluated at it.
    """
    c = dt * weight
    if problem.is_linear:
        A_x, A_v = problem.linear_parts
        lu, piv, info = _node_factor(np.asarray(A_v, float).tobytes(),
                                     problem.d, c)
        if info > 0:
            raise SolverError(f"node matrix I - c*A_v is singular at dt = {dt!r}"
                              f" (c = {c!r})", node=node)
        v, _ = dgetrs(lu, piv, b + c * (A_x @ x))
        return v, problem.f(x, v)
    if not problem.velocity_dependent.any():
        f = problem.f(x, b)
        return b + c * f, f
    v = b + c * f_start
    for _ in range(_FP_MAXITER):
        f = problem.f(x, v)
        v_new = b + c * f
        # ndarray.max skips np.max's dispatch, which costs as much as the reduction
        update = np.abs(v_new - v).max()
        if update <= _FP_TOL + _FP_RTOL * np.abs(v_new).max():
            return v, f
        v = v_new
    raise SolverError("node velocity solve did not converge", node=node,
                      residual=float(update))


def verlet_solve(problem: SecondOrderIVP, rhs_x: np.ndarray, rhs_v: np.ndarray,
                 dt: float, matrices: PreconditionerMatrices, forces):
    """Solve M_vv(U) = rhs by one velocity-Verlet pass through the nodes.

    ``rhs_x``/``rhs_v`` are (M+1, d) stacks; row 0 fixes the node-0 values.
    ``forces``, the (M+1, d) node forces of the previous iterate, fixes the
    node-0 force (row 0) and starts each fixed-point node solve from the
    velocity its row m gives (see :func:`_solve_node_velocity`).
    Returns the node states together with the force values at all nodes,
    so callers can reuse them without re-evaluating.
    """
    X = np.array(rhs_x, dtype=float)
    V = np.array(rhs_v, dtype=float)
    F = np.empty_like(X)   # every row is set below
    F[0] = forces[0]
    QT, Qx = matrices.QT, matrices.Qx
    dt2 = dt * dt
    for m in range(1, len(X)):
        X[m] = rhs_x[m] + dt2 * (Qx[m, :m] @ F[:m])
        b = rhs_v[m] + dt * (QT[m, :m] @ F[:m])
        V[m], F[m] = _solve_node_velocity(problem, X[m], b, dt, QT[m, m],
                                          forces[m], m)
    return X, V, F

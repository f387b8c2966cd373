"""Velocity-Verlet matrices and the node-by-node solve they enable."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gesv   # np.linalg.solve's, unwrapped

from .errors import SolverError
from .problems import SecondOrderIVP
from .quadrature import QuadratureRule

_FP_TOL = 1e-13
_FP_RTOL = 8 * np.finfo(float).eps   # 1e-13 alone is below the round-off of v at |v| >~ 1e3
_FP_MAXITER = 100
# the step's small products use ndarray.dot: matmul's BLAS call and bits, minus its ufunc dispatch


@dataclass(frozen=True)
class PreconditionerMatrices:
    QT: np.ndarray     # (QE + QI) / 2, trapezoidal force weights
    Qx: np.ndarray     # QE @ QT + (QE * QE) / 2, position weights
    QQ_Qx: np.ndarray  # rule.QQ - Qx, position correction block of a sweep
    Q_QT: np.ndarray   # rule.Q - QT, velocity correction block of a sweep

    @cached_property
    def node_rows(self):
        """``(Qx[m, :m], QT[m, :m])`` for nodes m = 1..M, sliced once per matrices."""
        return tuple((self.Qx[m, :m], self.QT[m, :m]) for m in range(1, len(self.QT)))


@lru_cache(maxsize=64)
def build_preconditioner(rule: QuadratureRule) -> PreconditionerMatrices:
    """QT and Qx from QE (node spacings below the diagonal) and QI (QE one column right).

    They are built once per rule (:func:`~vvsdc.quadrature.build_rule` makes one
    rule per family and M) and shared, so their arrays are read-only.
    """
    dtau = np.diff(rule.tau)
    M = len(dtau)
    QE = np.zeros((M + 1, M + 1))
    QI = np.zeros((M + 1, M + 1))
    for m in range(1, M + 1):
        QE[m, :m] = dtau[:m]
        QI[m, 1:m + 1] = dtau[:m]
    QT = 0.5 * (QE + QI)
    Qx = QE @ QT + 0.5 * QE * QE
    matrices = PreconditionerMatrices(QT=QT, Qx=Qx, QQ_Qx=rule.QQ - Qx, Q_QT=rule.Q - QT)
    for a in vars(matrices).values():
        a.flags.writeable = False
    return matrices


@lru_cache(maxsize=64)
def _picard_preconditioner(rule: QuadratureRule) -> PreconditionerMatrices:
    """Picard's Q_pre = 0: QT = Qx = 0, so the correction blocks are QQ and Q.
    Built once per rule and shared, as :func:`build_preconditioner`'s: read-only."""
    zero = np.zeros_like(rule.Q)
    zero.flags.writeable = False
    return PreconditionerMatrices(QT=zero, Qx=zero, QQ_Qx=rule.QQ, Q_QT=rule.Q)


def _node_solver(problem: SecondOrderIVP, dt: float, weights):
    """The solve of v = b + c * f(x, v), c = dt * weights[m - 1], at node m.

    Returns ``solve(m, x, b, f_start) -> (v, f(x, v))``, chosen once for
    the problem's force.  Zero weights (Picard's) give v = b and one force
    evaluation, with no node matrix and no loop.  Linear forces solve
    ``(I - c A_v) v = b + c A_x x`` by ``np.linalg.solve``'s gesv kernel with
    each node's ``I - c A_v``, built here (a singular one is a ``SolverError``
    naming the node and ``dt``), and return ``A_x x + A_v v`` from the ``A_x x``
    already formed: the problem's ``linear_parts`` define the force this solve
    evaluates.  Velocity-independent forces are solved directly.  Any other
    force takes a fixed-point loop that starts at v = b + c * f_start and stops
    at the first iterate whose residual |b + c * f(x, v) - v| is at most
    _FP_TOL + _FP_RTOL * max|b + c * f(x, v)|; that iterate is returned with
    the force already evaluated at it.  A loop that meets a residual that is
    not finite, or runs _FP_MAXITER iterations, raises a ``SolverError`` that
    names the node and carries that residual.
    """
    weights = np.asarray(weights, float)
    if not weights.any():
        return lambda m, x, b, f_start: (b, problem.f(x, b))
    c_nodes = (dt * weights).tolist()
    if problem.is_linear:
        A_x, A_v = problem.linear_parts
        mats = [np.eye(problem.d) - c * A_v for c in c_nodes]
        for node, (c, mat) in enumerate(zip(c_nodes, mats), 1):
            try:
                np.linalg.solve(mat, np.zeros(problem.d))
            except np.linalg.LinAlgError:
                raise SolverError(f"node matrix I - c*A_v is singular at dt = {dt!r}"
                                  f" (c = {c!r})", node=node) from None

        def linear(m, x, b, f_start):
            A_x_x = A_x.dot(x)
            v = _gesv(mats[m - 1], b + c_nodes[m - 1] * A_x_x)
            return v, problem.f(x, v, _A_x_x=A_x_x)
        return linear
    if not problem.velocity_dependent.any():
        def direct(m, x, b, f_start):
            f = problem.f(x, b)
            return b + c_nodes[m - 1] * f, f
        return direct

    def fixed_point(m, x, b, f_start):
        c = c_nodes[m - 1]
        v = b + c * f_start
        for _ in range(_FP_MAXITER):
            f = problem.f(x, v)
            v_new = b + c * f
            # ndarray.max skips np.max's dispatch, which costs as much as the reduction
            update = np.abs(v_new - v).max()
            if update <= _FP_TOL + _FP_RTOL * np.abs(v_new).max():
                return v, f
            if not math.isfinite(update):   # NaN never meets the stop test
                break
            v = v_new
        raise SolverError(f"node velocity solve did not converge at node {m}"
                          f" (residual {update:g})", node=m, residual=float(update))
    return fixed_point


def verlet_solve(problem: SecondOrderIVP, rhs_x: np.ndarray, rhs_v: np.ndarray,
                 dt: float, matrices: PreconditionerMatrices, forces, *, _solve=None):
    """Solve M_pre(U) = rhs by one pass through the nodes, velocity-Verlet's or Picard's.

    ``rhs_x``/``rhs_v`` are (M+1, d) stacks; row 0 fixes the node-0 values.
    ``forces``, the (M+1, d) node forces of the previous iterate, fixes the
    node-0 force (row 0) and starts each fixed-point node solve from the
    velocity its row m gives.  ``_solve`` is the :func:`_node_solver` of the
    problem, ``dt`` and the ``QT`` diagonal, which a step chooses once for
    all its sweeps; it is chosen here when not given.  Returns the node
    states together with the force values at all nodes, so callers can
    reuse them without re-evaluating.
    """
    X = np.array(rhs_x, dtype=float)
    V = np.array(rhs_v, dtype=float)
    F = np.empty_like(X)   # every row is set below
    F[0] = forces[0]
    solve = _solve or _node_solver(problem, dt, matrices.QT.diagonal()[1:])
    dt, dt2 = np.array(dt, float), np.array(dt * dt, float)   # 0-d: a row scales faster
    for m, (qx, qt) in enumerate(matrices.node_rows, 1):
        x, b = X[m], V[m]   # rows of the copies above, accumulated in place
        x += dt2 * qx.dot(F[:m])
        b += dt * qt.dot(F[:m])
        V[m], F[m] = solve(m, x, b, forces[m])
    return X, V, F

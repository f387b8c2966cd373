"""Second-order test problems with exact-solution oracles.

Both built-in problems (damped harmonic oscillator, single-particle
Penning trap) are linear, so the exact solution is obtained from the
matrix exponential of the first-order companion system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError

# the linear forces use ndarray.dot: matmul's BLAS call and bits, minus its ufunc dispatch


@dataclass
class SecondOrderIVP:
    """A problem x'' = f(x, v) with optional linear structure and oracle.

    ``force`` maps (x, v) -> f with x, v of shape (d,).  The instance
    counts force evaluations; use :meth:`f` (or :meth:`f_nodes`) rather
    than calling ``force`` directly so the counter stays accurate.
    ``linear_parts`` (A_x, A_v), when given, define the force the linear
    node solve evaluates, ``A_x x + A_v v``, in place of ``force``.
    """

    d: int
    force: Callable[[np.ndarray, np.ndarray], np.ndarray]
    velocity_dependent: np.ndarray
    linear_parts: Optional[tuple[np.ndarray, np.ndarray]] = None
    exact: Optional[Callable] = None
    f_evals: int = field(default=0, compare=False)

    def f(self, x, v, *, _A_x_x=None) -> np.ndarray:
        self.f_evals += 1
        if _A_x_x is not None:   # a linear node solve's A_x x: the force of linear_parts
            return _A_x_x + self.linear_parts[1].dot(v)
        return np.asarray(self.force(np.asarray(x, float), np.asarray(v, float)), float)

    def f_nodes(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Evaluate the force at a stack of nodes, one counted eval per row."""
        return np.array([self.f(x, v) for x, v in zip(X, V)])

    @property
    def is_linear(self) -> bool:
        return self.linear_parts is not None


def _companion_exact(A_x: np.ndarray, A_v: np.ndarray) -> Callable:
    d = A_x.shape[0]
    comp = np.zeros((2 * d, 2 * d))
    comp[:d, d:] = np.eye(d)
    comp[d:, :d] = A_x
    comp[d:, d:] = A_v

    def exact(t, x0, v0):
        # scipy.linalg is imported on first use: it is most of the package's
        # import time, and only exact solutions need it
        from scipy.linalg import expm
        u = expm(t * comp) @ np.concatenate([np.atleast_1d(x0), np.atleast_1d(v0)])
        return u[:d], u[d:]

    return exact


def _linear_problem(A_x: np.ndarray, A_v: np.ndarray) -> SecondOrderIVP:
    A_x = np.atleast_2d(np.asarray(A_x, float))
    A_v = np.atleast_2d(np.asarray(A_v, float))
    d = A_x.shape[0]
    return SecondOrderIVP(
        d=d,
        force=lambda x, v: A_x.dot(x) + A_v.dot(v),
        velocity_dependent=np.any(A_v != 0.0, axis=1),
        linear_parts=(A_x, A_v),
        exact=_companion_exact(A_x, A_v),
    )


def make_oscillator(kappa: float, mu: float) -> SecondOrderIVP:
    """Damped harmonic oscillator x'' = -kappa x - mu x'."""
    if not (0 <= kappa < np.inf and 0 <= mu < np.inf):
        raise ConfigurationError(
            f"oscillator needs finite kappa >= 0 and mu >= 0, got {kappa!r} and {mu!r}")
    return _linear_problem([[-kappa]], [[-mu]])


@dataclass(frozen=True)
class PenningParams:
    """Trap parameters; defaults follow the classic single-particle benchmark,
    whose two frequencies absorb the charge-to-mass ratio."""

    omega_b: float = 25.0
    omega_e: float = 4.9
    epsilon: float = -1.0
    x0: tuple = (10.0, 0.0, 0.0)
    v0: tuple = (100.0, 0.0, 100.0)

    def __post_init__(self):
        if len(self.x0) != 3 or len(self.v0) != 3:
            raise ConfigurationError("Penning x0 and v0 need 3 components each")
        if not np.isfinite([self.omega_b, self.omega_e, self.epsilon, *self.x0, *self.v0]).all():
            raise ConfigurationError("Penning omega_b, omega_e, epsilon, x0 and v0 must be finite")


def make_penning(params: PenningParams = PenningParams()) -> SecondOrderIVP:
    """Charged particle in a Penning trap: quadrupole E field, axial B field.

    The force is linear, x'' = A_x x + A_v v, with a zero third row in A_v:
    the axial force component does not depend on the velocity.
    """
    A_x = -params.epsilon * params.omega_e**2 * np.diag([1.0, 1.0, -2.0])
    A_v = params.omega_b * np.array([[0.0, 1.0, 0.0],
                                     [-1.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0]])
    return _linear_problem(A_x, A_v)


def exact_solution(problem: SecondOrderIVP, t: float, x0, v0):
    """Exact flow of the problem; only available when an oracle is attached."""
    if problem.exact is None:
        raise ConfigurationError("problem has no exact-solution oracle")
    return problem.exact(t, np.atleast_1d(x0), np.atleast_1d(v0))

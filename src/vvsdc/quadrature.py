"""Collocation nodes on [0, 1] and the quadrature matrices built from them.

All matrices are padded with a zero first row and column so that index 0
corresponds to the start of the interval.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import ConfigurationError


class NodeFamily(Enum):
    GAUSS_LEGENDRE = "legendre"
    GAUSS_LOBATTO = "lobatto"
    GAUSS_RADAU = "radau"  # right-Radau: tau_M = 1 included

    @classmethod
    def from_name(cls, name: str) -> "NodeFamily":
        key = name.strip().lower().replace("gauss-", "").replace("gauss_", "")
        for fam in cls:
            if fam.value == key:
                return fam
        raise ConfigurationError(f"unknown node family: {name!r}")


@dataclass(frozen=True, eq=False)   # hashed by identity: caches key on build_rule's one rule
class QuadratureRule:
    family: NodeFamily
    M: int
    nodes: np.ndarray  # (M,) strictly increasing in [0, 1]
    tau: np.ndarray    # (M+1,) padded nodes [0, tau_1, ..., tau_M]
    Q: np.ndarray      # (M+1, M+1), zero first row/column
    QQ: np.ndarray     # Q @ Q
    q: np.ndarray      # (M+1,) update weights, leading zero
    qQ: np.ndarray     # q @ Q

    @property
    def order(self) -> int:
        """Superconvergent order p of the underlying collocation method."""
        if self.family is NodeFamily.GAUSS_LEGENDRE:
            return 2 * self.M
        if self.family is NodeFamily.GAUSS_RADAU:
            return 2 * self.M - 1
        return 2 * self.M - 2


def generate_nodes(family: NodeFamily, M: int) -> np.ndarray:
    """Canonical quadrature nodes of the given family, mapped to [0, 1]."""
    if M < 1:
        raise ConfigurationError(f"need at least one node, got M={M}")
    if family is NodeFamily.GAUSS_LEGENDRE:
        x, _ = npleg.leggauss(M)
    elif family is NodeFamily.GAUSS_LOBATTO:
        if M < 2:
            raise ConfigurationError("Lobatto rules need M >= 2")
        # scipy.special is imported where it is used: it is most of the
        # package's import time, and Gauss-Legendre rules never need it
        from scipy.special import roots_jacobi
        interior = roots_jacobi(M - 2, 1.0, 1.0)[0] if M > 2 else []
        x = np.concatenate(([-1.0], interior, [1.0]))
    elif family is NodeFamily.GAUSS_RADAU:
        # free nodes of the right-Radau rule are roots of P_{M-1}^{(1,0)}
        from scipy.special import roots_jacobi
        interior = roots_jacobi(M - 1, 1.0, 0.0)[0] if M > 1 else []
        x = np.concatenate((interior, [1.0]))
    else:  # pragma: no cover
        raise ConfigurationError(f"unsupported family: {family}")
    return np.sort((np.asarray(x, dtype=float) + 1.0) / 2.0)


def _lagrange_eval(nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate all Lagrange basis polynomials l_j at the points s.

    Returns an array of shape (len(s), M). Uses the plain product form,
    which is stable for the small M used here.
    """
    M = len(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    denom = np.prod(diff, axis=1)  # (M,)
    out = np.empty((len(s), M))
    for j in range(M):
        mask = np.arange(M) != j
        out[:, j] = np.prod(s[:, None] - nodes[None, mask], axis=1) / denom[j]
    return out


def _lagrange_integrals(nodes: np.ndarray, upper: float, gl_x: np.ndarray,
                        gl_w: np.ndarray) -> np.ndarray:
    """Exact integrals int_0^upper l_j(s) ds for every basis polynomial."""
    pts = 0.5 * upper * (gl_x + 1.0)
    wts = 0.5 * upper * gl_w
    return wts @ _lagrange_eval(nodes, pts)


@lru_cache(maxsize=64)
def build_rule(family: NodeFamily, M: int) -> QuadratureRule:
    """Assemble the padded Q, QQ matrices and the q, qQ update rows, once per (family, M)."""
    nodes = generate_nodes(family, M)
    # an n-point Gauss rule is exact for the degree M-1 Lagrange basis
    gl_x, gl_w = npleg.leggauss(max(M, 2))
    Q = np.zeros((M + 1, M + 1))
    for m in range(M):
        Q[m + 1, 1:] = _lagrange_integrals(nodes, nodes[m], gl_x, gl_w)
    q = np.zeros(M + 1)
    q[1:] = _lagrange_integrals(nodes, 1.0, gl_x, gl_w)
    arrays = dict(nodes=nodes, tau=np.concatenate(([0.0], nodes)), Q=Q, QQ=Q @ Q, q=q, qQ=q @ Q)
    for a in arrays.values():
        a.flags.writeable = False
    return QuadratureRule(family=family, M=M, **arrays)

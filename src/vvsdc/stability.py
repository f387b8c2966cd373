"""Linear stability analysis on the damped harmonic oscillator.

All operators are assembled with dt = 1 and (kappa, mu) set to the scan
parameters directly, so every result is a function of (dt*kappa, dt*mu)
by construction.

Every quantity is one evaluation over a stack of cells (kappa[i], mu[i]); SDC,
Picard and collocation differ only in the preconditioner block Q_pre.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AnalysisError, ConfigurationError
from .preconditioner import build_preconditioner
from .quadrature import QuadratureRule


class ScanKind(Enum):
    SDC_STABILITY = "sdc-stability"
    SDC_CONVERGENCE = "sdc-convergence"
    PICARD_STABILITY = "picard-stability"
    PICARD_CONVERGENCE = "picard-convergence"
    RKN4 = "rkn4"
    COLLOCATION = "collocation"


_CONVERGENCE_KINDS = (ScanKind.SDC_CONVERGENCE, ScanKind.PICARD_CONVERGENCE)
_RUNGS = 64   # coarse rungs of stability_limit per stacked evaluation


@dataclass(frozen=True)
class GridSpec:
    kappa_max: float = 20.0
    mu_max: float = 20.0
    kappa_cells: int = 200
    mu_cells: int = 200
    kappa_min: float = 0.0
    mu_min: float = 0.0

    def __post_init__(self):
        bounds = (self.kappa_min, self.kappa_max, self.mu_min, self.mu_max)
        if not np.all(np.isfinite(bounds)) or min(self.kappa_cells, self.mu_cells) < 1:
            raise ConfigurationError(
                f"grid needs finite bounds and at least one cell per axis: {self}")

    def kappa_axis(self):
        return np.linspace(self.kappa_min, self.kappa_max, self.kappa_cells)

    def mu_axis(self):
        return np.linspace(self.mu_min, self.mu_max, self.mu_cells)


@dataclass
class ScanResult:
    kind: ScanKind
    K: int | None
    kappa: np.ndarray   # (n_kappa,)
    mu: np.ndarray      # (n_mu,)
    rho: np.ndarray     # (n_kappa, n_mu) spectral radii, NaN where assembly failed
    failures: list = field(default_factory=list)   # (dt_kappa, dt_mu) of failed cells

    def stable_mask(self, tol: float = 1e-8) -> np.ndarray:
        return self.rho <= 1.0 + tol

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("dt_kappa,dt_mu,rho,stable\n")
            for ka, rho_row, stable_row in zip(self.kappa, self.rho, self.stable_mask()):
                for m, r, stable in zip(self.mu, rho_row, stable_row):
                    fh.write(f"{ka:.17g},{m:.17g},{r:.17g},{stable:d}\n")


def _force_operator(kappa: np.ndarray, mu: np.ndarray, Mp1: int) -> np.ndarray:
    """(N, n, n) stack of F on stacked (X, V): both block rows are -kappa X - mu V."""
    eye = np.eye(Mp1)
    row = np.concatenate([-kappa[:, None, None] * eye, -mu[:, None, None] * eye], axis=2)
    return np.concatenate([row, row], axis=1)


def _blocks(rule: QuadratureRule, kind: ScanKind):
    """(Q_pre, Q_coll, C_coll); Q_pre is velocity-Verlet, zero or Q_coll."""
    Mp1 = rule.M + 1
    O = np.zeros((Mp1, Mp1))
    Qcoll = np.block([[rule.QQ, O], [O, rule.Q]])
    Ccoll = np.block([[np.eye(Mp1), rule.Q], [O, np.eye(Mp1)]])
    if kind in (ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE):
        pre = build_preconditioner(rule)
        Qpre = np.block([[pre.Qx, O], [O, pre.QT]])
    else:
        Qpre = Qcoll if kind is ScanKind.COLLOCATION else np.zeros_like(Qcoll)
    return Qpre, Qcoll, Ccoll


def _iteration(kind, rule, kappa, mu):
    """Stacks of (I - Q_pre F)^(-1) (Q_coll - Q_pre) F and (I - Q_pre F)^(-1) C_coll."""
    F = _force_operator(kappa, mu, rule.M + 1)
    Qpre, Qcoll, Ccoll = _blocks(rule, kind)
    M = np.eye(F.shape[-1]) - Qpre @ F
    return np.linalg.solve(M, (Qcoll - Qpre) @ F), np.linalg.solve(M, Ccoll)


def _propagator(kind, rule, K, kappa, mu) -> np.ndarray:
    """Stacked maps from replicated U_0 to U^K, or to the collocation solution."""
    Kmat, Minv_C = _iteration(kind, rule, kappa, mu)
    if kind is ScanKind.COLLOCATION:
        return Minv_C
    eye = np.eye(Kmat.shape[-1])
    Kpow = np.linalg.matrix_power(Kmat, K)
    return Kpow + (eye - Kpow) @ np.linalg.solve(eye - Kmat, Minv_C)


def _full_step(rule: QuadratureRule, kappa, mu, P: np.ndarray) -> np.ndarray:
    """2x2 step matrices: the end-of-step update of the iterates P U_0."""
    Mp1 = rule.M + 1
    zero = np.zeros(Mp1)
    update = np.vstack([np.concatenate([rule.qQ, zero]), np.concatenate([zero, rule.q])])
    ones_bar = np.kron(np.eye(2), np.ones((Mp1, 1)))   # (x0, v0) -> U_0
    free = np.array([[1.0, 1.0], [0.0, 1.0]])
    return free + update @ _force_operator(kappa, mu, Mp1) @ P @ ones_bar


def _rkn4(kappa: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Classical RK4 polynomial of the companion matrix, one 2x2 per cell."""
    A = np.zeros((len(kappa), 2, 2))
    A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = 1.0, -kappa, -mu
    R = term = np.eye(2)
    for i in range(1, 5):
        term = term @ A / i
        R = R + term
    return R


def _matrix(kind, rule, K, kappa, mu) -> np.ndarray:
    """Stack of what ``kind`` measures: iteration, 2x2 step or RK4 matrices."""
    if kind is ScanKind.RKN4:
        return _rkn4(kappa, mu)
    if kind in _CONVERGENCE_KINDS:
        return _iteration(kind, rule, kappa, mu)[0]
    return _full_step(rule, kappa, mu, _propagator(kind, rule, K, kappa, mu))


def _rho(kind, rule, K, kappa, mu) -> np.ndarray:
    """Spectral radii over a stack of cells.  On ``LinAlgError`` (a singular or
    non-finite cell) the stack is redone cell by cell; a failed cell reads NaN."""
    try:
        return np.abs(np.linalg.eigvals(_matrix(kind, rule, K, kappa, mu))).max(axis=-1)
    except np.linalg.LinAlgError:
        if len(kappa) == 1:
            return np.full(1, np.nan)
        return np.concatenate([_rho(kind, rule, K, kappa[i:i + 1], mu[i:i + 1])
                               for i in range(len(kappa))])


def _cell(stacked, kind, rule, K, dt_kappa: float, dt_mu: float) -> np.ndarray:
    """A stacked evaluation at one cell; a singular system is an AnalysisError."""
    try:
        return stacked(kind, rule, K, np.array([dt_kappa]), np.array([dt_mu]))[0]
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"singular at dt*kappa={dt_kappa}, dt*mu={dt_mu}") from exc


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    if not np.all(np.isfinite(matrix)):
        raise AnalysisError("matrix has non-finite entries")
    try:
        return float(np.max(np.abs(np.linalg.eigvals(matrix))))
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("eigenvalue solver failed") from exc


def build_K_sdc(dt_kappa: float, dt_mu: float, rule: QuadratureRule) -> np.ndarray:
    """SDC iteration matrix (I - Q_vv F)^(-1) (Q_coll - Q_vv) F at dt = 1."""
    return _cell(_matrix, ScanKind.SDC_CONVERGENCE, rule, None, dt_kappa, dt_mu)


def build_K_picard(dt_kappa: float, dt_mu: float, rule: QuadratureRule) -> np.ndarray:
    """Picard iteration matrix Q_coll F; the SDC matrix with Q_vv zeroed."""
    return _cell(_matrix, ScanKind.PICARD_CONVERGENCE, rule, None, dt_kappa, dt_mu)


def build_P_sdc(dt_kappa: float, dt_mu: float, rule: QuadratureRule,
                K: int) -> np.ndarray:
    """Propagator mapping the replicated initial value U_0 to the iterate U^K."""
    return _cell(_propagator, ScanKind.SDC_STABILITY, rule, K, dt_kappa, dt_mu)


def build_P_picard(dt_kappa: float, dt_mu: float, rule: QuadratureRule,
                   K: int) -> np.ndarray:
    return _cell(_propagator, ScanKind.PICARD_STABILITY, rule, K, dt_kappa, dt_mu)


def stability_function(dt_kappa: float, dt_mu: float, rule: QuadratureRule,
                       K: int, kind: ScanKind = ScanKind.SDC_STABILITY) -> np.ndarray:
    """2x2 one-step amplification matrix of a full step at dt = 1."""
    if kind in _CONVERGENCE_KINDS or kind is ScanKind.RKN4:
        raise AnalysisError(f"no stability function for kind {kind}")
    return _cell(_matrix, kind, rule, K, dt_kappa, dt_mu)


def rkn4_amplification(dt_kappa: float, dt_mu: float) -> np.ndarray:
    """One-step matrix of classical RK4 on the companion system at dt = 1."""
    return _cell(_matrix, ScanKind.RKN4, None, None, dt_kappa, dt_mu)


def scan_domain(kind: ScanKind, rule: QuadratureRule, K: int | None,
                grid: GridSpec = GridSpec()) -> ScanResult:
    """Spectral radius of the relevant matrix on a rectangular parameter grid."""
    kappa, mu = grid.kappa_axis(), grid.mu_axis()
    # one stack per kappa row: a stack of the whole grid costs memory, not time
    rho = np.stack([_rho(kind, rule, K, np.full_like(mu, ka), mu) for ka in kappa])
    failures = [(kappa[i], mu[j]) for i, j in zip(*np.nonzero(np.isnan(rho)))]
    return ScanResult(kind=kind, K=K, kappa=kappa, mu=mu, rho=rho, failures=failures)


def stability_limit(kind: ScanKind, rule: QuadratureRule, K: int,
                    coarse_step: float = 0.1, upper: float = 100.0,
                    tol: float = 0.01, rho_tol: float = 1.5e-11) -> float:
    """Largest dt*kappa on the mu = 0 axis before the first loss of stability.

    Coarse scan in ``coarse_step`` increments, then bisection of the first
    stable/unstable bracket down to ``tol``.

    ``rho_tol`` is much tighter than the 1e-8 used for domain classification:
    for even K the spectral radius on the undamped axis exceeds 1 only by
    amounts that grow smoothly from ~1e-14 upward, so the quoted limits for
    those rows are threshold-sensitive and a loose tolerance would overstate
    them severalfold.
    """
    def stable(ka: np.ndarray) -> np.ndarray:
        return _rho(kind, rule, K, ka, np.zeros_like(ka)) <= 1.0 + rho_tol

    # cumsum adds in sequence: the same floats as repeated ``ka += coarse_step``
    ladder = np.cumsum(np.full(int(upper / coarse_step) + 2, coarse_step))
    ladder = ladder[ladder <= upper + 1e-9]
    # most limits lie in the first few hundred rungs: all at once costs time and memory
    for start in range(0, len(ladder), _RUNGS):
        coarse = stable(ladder[start:start + _RUNGS])
        if not coarse.all():
            break
    else:
        return float(upper)
    first = start + int(np.argmin(coarse))
    if first == 0:
        return 0.0
    lo, hi = float(ladder[first - 1]), float(ladder[first])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(np.array([mid]))[0] else (lo, mid)
    return 0.5 * (lo + hi)

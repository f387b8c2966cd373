"""Linear stability analysis on the damped harmonic oscillator.

Operators are assembled with dt = 1 and (kappa, mu) set to the scan parameters,
so every result is a function of (dt*kappa, dt*mu), and every quantity is one
evaluation over a stack of cells (kappa[i], mu[i]).

The force on the node values U = (X, V) is F = E G, with E = [I; I] and
G = [-kappa I, -mu I], so the engine runs in node-force coordinates y = G U.
With W = Q_pre E and D = (Q_coll - Q_pre) E, where Q_pre is velocity-Verlet,
zero or Q_coll, a sweep is y <- A y + B (x0, v0): A = (I - G W)^(-1) G D and
B = (I - G W)^(-1) G C_coll [1, 0; 0, 1].  By the push-through identity
G (I - W G)^(-1) = (I - G W)^(-1) G, the nonzero spectrum of the iteration
matrix (I - Q_pre F)^(-1) (Q_coll - Q_pre) F is A's: systems are (M+1)-square.
Velocity-Verlet's I - G W is lower triangular and solved node by node, as a sweep
is; 2x2 spectral radii are taken in closed form; and a cell whose matrix is not
finite (an overflow, or a zero pivot) reads NaN, without redoing its stack.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigurationError, _check_sweeps
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
_STACK = 256  # cells per stack in scan_domain; 64, 144, 512 and 1024 scanned slower
_STABLE_TOL = 1e-8   # a cell is stable if its spectral radius is at most 1 + _STABLE_TOL
_COARSE_STEP, _UPPER, _BISECT_TOL, _LIMIT_RHO_TOL = 0.1, 100.0, 0.01, 1.5e-11


@dataclass(frozen=True)
class GridSpec:
    kappa_max: float = 20.0
    mu_max: float = 20.0
    kappa_cells: int = 200
    mu_cells: int = 200
    kappa_min: float = 0.0
    mu_min: float = 0.0

    def __post_init__(self):
        # the spans too: linspace over a span that overflows yields NaN and inf
        ends = (self.kappa_min, self.kappa_max, self.mu_min, self.mu_max,
                self.kappa_max - self.kappa_min, self.mu_max - self.mu_min)
        if not np.all(np.isfinite(ends)) or min(self.kappa_cells, self.mu_cells) < 1:
            raise ConfigurationError(
                f"grid needs finite bounds and spans and at least one cell per axis: {self}")

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

    def stable_mask(self) -> np.ndarray:
        return self.rho <= 1.0 + _STABLE_TOL


def _parts(rule: QuadratureRule, kind: ScanKind):
    """((Wx, Wv), (Dx, Dv)): the position and velocity rows of W = Q_pre E and
    D = (Q_coll - Q_pre) E; Q_pre is velocity-Verlet, zero or Q_coll."""
    if kind in (ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE):
        pre = build_preconditioner(rule)
        return (pre.Qx, pre.QT), (pre.QQ_Qx, pre.Q_QT)
    coll, zero = (rule.QQ, rule.Q), (np.zeros_like(rule.Q),) * 2
    return (coll, zero) if kind is ScanKind.COLLOCATION else (zero, coll)


def _rkn4(kappa: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Classical RK4 polynomial of the companion matrix, one 2x2 per cell."""
    A = np.zeros((len(kappa), 2, 2))
    A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = 1.0, -kappa, -mu
    R = term = np.eye(2)
    for i in range(1, 5):
        term = term @ A / i
        R = R + term
    return R


def _forward(L, R):
    """Stacked L X = R for lower-triangular L, row by row; a zero pivot gives inf or NaN."""
    X = np.empty_like(R)
    for j in range(L.shape[-1]):
        X[:, j] = (R[:, j] - (L[:, j, None, :j] @ X[:, :j])[:, 0]) / L[:, j, j, None]
    return X


def _lu_solve(L, R):
    """Stacked L X = R by LU; LAPACK names no singular cell, so each is then solved alone."""
    try:
        return np.linalg.solve(L, R)
    except np.linalg.LinAlgError:
        return np.full_like(R, np.nan) if len(L) == 1 else np.concatenate(
            [_lu_solve(L[i:i + 1], R[i:i + 1]) for i in range(len(L))])


def _sweeps(A, y, B, K):
    """``y <- A y + B``, K times over the stack, as sdc_step applies its sweeps."""
    _check_sweeps(K)
    for _ in range(K):
        y = A @ y + B
    return y


def _matrix(kind, rule, K, kappa, mu) -> np.ndarray:
    """Stack of what ``kind`` measures: M x M iteration, 2x2 step or RK4 matrices."""
    if kind is ScanKind.RKN4:
        return _rkn4(kappa, mu)
    (Wx, Wv), (Dx, Dv) = _parts(rule, kind)
    k, m = kappa[:, None, None], mu[:, None, None]
    # y is carried as y / s, s = 2^n <= max(1, |kappa|, |mu|): exact, finite where y overflows
    s = np.ldexp(1.0, np.frexp(np.maximum(1.0, np.maximum(abs(kappa), abs(mu))))[1] - 1)
    gk, gm = (-kappa / s)[:, None], (-mu / s)[:, None]
    ones = np.ones_like(rule.tau)
    y = np.stack([gk * ones, gm * ones], axis=-1)                  # G U_0 of the copy start
    GC = np.stack([gk * ones, gk * rule.tau + gm * ones], axis=-1)  # G C_coll U_0: free flight
    AB = np.concatenate([-k * Dx - m * Dv, GC], axis=-1)
    if Wx.any() or Wv.any():   # Picard's I - G W is I; only collocation's is full
        solve = _lu_solve if kind is ScanKind.COLLOCATION else _forward
        AB = solve(np.eye(len(ones)) + k * Wx + m * Wv, AB)
    # contiguous A and B: matmul on a strided view runs about twice as slow
    A, B = map(np.ascontiguousarray, np.split(AB, [len(ones)], axis=-1))
    if kind in _CONVERGENCE_KINDS:   # A's node-0 row is zero
        return A[:, 1:, 1:]
    y = s[:, None, None] * (B if kind is ScanKind.COLLOCATION else _sweeps(A, y, B, K))
    return np.array([[1.0, 1.0], [0.0, 1.0]]) + np.stack([rule.qQ, rule.q]) @ y


def _radius(S) -> np.ndarray:
    """Spectral radii of a stack of square matrices.  A 2x2 one's eigenvalues are
    h +- sqrt(disc), h = (a + d)/2 and disc = ((a - d)/2)^2 + b c, on its entries
    divided by a power of two near the largest, so that no square overflows."""
    if S.shape[-1] != 2:
        return np.abs(np.linalg.eigvals(S)).max(axis=-1)
    scale = np.ldexp(1.0, np.frexp(np.abs(S).max(axis=(-2, -1)))[1] - 1)   # exact: 2^n
    (a, b), (c, d) = np.moveaxis(S / scale[..., None, None], (-2, -1), (0, 1))
    h, disc = 0.5 * (a + d), (0.5 * (a - d)) ** 2 + b * c
    root = np.sqrt(np.abs(disc))
    return scale * np.where(disc >= 0, np.abs(h) + root, np.hypot(h, root))


def _rho(kind, rule, K, kappa, mu) -> np.ndarray:
    """Spectral radii over a stack of cells, evaluated once; a cell whose matrix is
    not finite (an overflow, or a singular system) reads NaN."""
    S = _matrix(kind, rule, K, kappa, mu)
    finite = np.isfinite(S).all(axis=(-2, -1))
    rho = np.full(len(S), np.nan)
    rho[finite] = _radius(S[finite])
    return rho


def _cell(stacked, dt_kappa: float, dt_mu: float) -> np.ndarray:
    """``stacked(kappa, mu)`` at one cell; a singular or overflowing one is an AnalysisError."""
    out = stacked(np.array([dt_kappa]), np.array([dt_mu]))[0]
    if not np.all(np.isfinite(out)):
        raise AnalysisError(f"not finite at dt*kappa={dt_kappa}, dt*mu={dt_mu}")
    return out


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude, as a scan takes it (see ``_radius``)."""
    if not np.all(np.isfinite(matrix)):
        raise AnalysisError("matrix has non-finite entries")
    try:
        return float(_radius(np.asarray(matrix)))
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("eigenvalue solver failed") from exc


def _full(rule: QuadratureRule, kappa: np.ndarray, mu: np.ndarray):
    """Stacks of SDC's full-size (D + W A) G = (I - Q_vv F)^(-1) (Q_coll - Q_vv) F
    and M_vv^(-1) C_coll = C_coll + W (I - G W)^(-1) G C_coll."""
    Wxv, Dxv = _parts(rule, ScanKind.SDC_STABILITY)
    W, D, eye = np.vstack(Wxv), np.vstack(Dxv), np.eye(rule.M + 1)
    k, m = kappa[:, None, None], mu[:, None, None]
    G = np.concatenate([-k * eye, -m * eye], axis=-1)
    C = np.block([[eye, rule.Q], [0 * eye, eye]])
    A, X = np.split(_forward(eye + k * Wxv[0] + m * Wxv[1], G @ np.hstack([D, C])),
                    [len(eye)], axis=-1)
    return (D + W @ A) @ G, C + W @ X


def build_K_sdc(dt_kappa: float, dt_mu: float, rule: QuadratureRule) -> np.ndarray:
    """SDC iteration matrix (I - Q_vv F)^(-1) (Q_coll - Q_vv) F at dt = 1."""
    return _cell(lambda kappa, mu: _full(rule, kappa, mu)[0], dt_kappa, dt_mu)


def build_P_sdc(dt_kappa: float, dt_mu: float, rule: QuadratureRule,
                K: int) -> np.ndarray:
    """Propagator mapping the replicated initial value U_0 to the iterate U^K:
    K sweeps P <- K_sdc P + M_vv^(-1) C_coll from P = I."""
    def propagator(kappa, mu):
        Kmat, Minv_C = _full(rule, kappa, mu)
        return _sweeps(Kmat, np.broadcast_to(np.eye(Kmat.shape[-1]), Kmat.shape), Minv_C, K)
    return _cell(propagator, dt_kappa, dt_mu)


def stability_function(dt_kappa: float, dt_mu: float, rule: QuadratureRule,
                       K: int | None, kind: ScanKind = ScanKind.SDC_STABILITY) -> np.ndarray:
    """The one-cell matrix at dt = 1 whose spectral radius :func:`scan_domain` maps:
    the 2x2 one-step matrix for the stability kinds, RKN4 and collocation, the
    M x M sweep matrix A[1:, 1:] on the interior node forces for the convergence
    kinds.  Only the stability kinds read K."""
    return _cell(partial(_matrix, kind, rule, K), dt_kappa, dt_mu)


def scan_domain(kind: ScanKind, rule: QuadratureRule, K: int | None,
                grid: GridSpec = GridSpec()) -> ScanResult:
    """Spectral radius of the relevant matrix on a rectangular parameter grid;
    its cells, row by row, are evaluated in consecutive stacks of at most ``_STACK``."""
    kappa, mu = grid.kappa_axis(), grid.mu_axis()
    ka, m = np.meshgrid(kappa, mu, indexing="ij", copy=False)
    rho = np.empty(ka.shape)
    for cells in (slice(s, s + _STACK) for s in range(0, rho.size, _STACK)):
        rho.flat[cells] = _rho(kind, rule, K, ka.flat[cells], m.flat[cells])
    failures = [(kappa[i], mu[j]) for i, j in zip(*np.nonzero(np.isnan(rho)))]
    return ScanResult(kind=kind, K=K, kappa=kappa, mu=mu, rho=rho, failures=failures)


def stability_limit(kind: ScanKind, rule: QuadratureRule, K: int) -> float:
    """Largest dt*kappa on the mu = 0 axis before the first loss of stability.

    Coarse scan in ``_COARSE_STEP`` increments up to ``_UPPER``, then
    bisection of the first stable/unstable bracket down to ``_BISECT_TOL``.

    ``_LIMIT_RHO_TOL`` = 1.5e-11 is much tighter than the _STABLE_TOL used for
    domain classification: for even K the spectral radius on the undamped
    axis exceeds 1 only by amounts that grow smoothly from ~1e-14 upward, so
    the quoted limits for those rows are threshold-sensitive and a loose
    tolerance would overstate them severalfold.
    """
    def stable(ka: np.ndarray) -> np.ndarray:
        return _rho(kind, rule, K, ka, np.zeros_like(ka)) <= 1.0 + _LIMIT_RHO_TOL

    # cumsum adds in sequence: the same floats as repeated ``ka += _COARSE_STEP``
    ladder = np.cumsum(np.full(int(_UPPER / _COARSE_STEP) + 2, _COARSE_STEP))
    ladder = ladder[ladder <= _UPPER + 1e-9]
    # most limits lie in the first few hundred rungs: all at once costs time and memory
    for start in range(0, len(ladder), _RUNGS):
        coarse = stable(ladder[start:start + _RUNGS])
        if not coarse.all():
            break
    else:
        return _UPPER
    first = start + int(np.argmin(coarse))
    if first == 0:
        return 0.0
    lo, hi = float(ladder[first - 1]), float(ladder[first])
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(np.array([mid]))[0] else (lo, mid)
    return 0.5 * (lo + hi)

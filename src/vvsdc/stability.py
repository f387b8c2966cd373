"""Linear stability analysis on the damped harmonic oscillator.

Operators are assembled with dt = 1 and (kappa, mu) set to the scan parameters,
so every result is a function of (dt*kappa, dt*mu), and every quantity is one
evaluation over a stack of cells (kappa[i], mu[i]).

The force on the node values U = (X, V) is F = E G, with E = [I; I] and
G = [-kappa I, -mu I], so the engine runs in node-force coordinates y = G U.
With W = Q_pre E and D = (Q_coll - Q_pre) E, where Q_pre is velocity-Verlet
for SDC and zero for Picard, a sweep is y <- A y + B (x0, v0), with
A = (I - G W)^(-1) G D and B = (I - G W)^(-1) G C_coll [1, 0; 0, 1].  By the
push-through identity G (I - W G)^(-1) = (I - G W)^(-1) G, the nonzero
spectrum of the iteration matrix (I - Q_pre F)^(-1) (Q_coll - Q_pre) F is A's:
systems are (M+1)-square.
Velocity-Verlet's I - G W is lower triangular and solved node by node, as a sweep
is; 2x2 spectral radii are taken in closed form; and a cell whose matrix is not
finite (an overflow, or a zero pivot) reads NaN, without redoing its stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .errors import AnalysisError, ConfigurationError, _check_sweeps
from .preconditioner import _picard_preconditioner, build_preconditioner
from .quadrature import QuadratureRule


class ScanKind(Enum):
    SDC_STABILITY = "sdc-stability"
    SDC_CONVERGENCE = "sdc-convergence"
    PICARD_STABILITY = "picard-stability"
    PICARD_CONVERGENCE = "picard-convergence"


_CONVERGENCE_KINDS = (ScanKind.SDC_CONVERGENCE, ScanKind.PICARD_CONVERGENCE)
_RUNGS = 64   # coarse rungs of stability_limit per stacked evaluation
_STACK = 256  # cells per stack in scan_domain; 64, 144, 512 and 1024 scanned slower
_STABLE_TOL = 1e-8   # a cell is stable if its spectral radius is at most 1 + _STABLE_TOL
_COARSE_STEP, _UPPER, _BISECT_TOL, _LIMIT_RHO_TOL = 0.1, 100.0, 0.01, 1.5e-11
_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])   # free flight over a step at dt = 1


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

    @property
    def failures(self) -> list:
        """(dt_kappa, dt_mu) of the cells that read NaN, row by row."""
        return [(self.kappa[i], self.mu[j]) for i, j in zip(*np.nonzero(np.isnan(self.rho)))]

    def stable_mask(self) -> np.ndarray:
        return self.rho <= 1.0 + _STABLE_TOL


def _forward(L, R):
    """Stacked L X = R for lower-triangular L, row by row; a zero pivot gives inf or NaN."""
    X = np.empty_like(R)
    for j in range(L.shape[-1]):
        X[:, j] = (R[:, j] - (L[:, j, None, :j] @ X[:, :j])[:, 0]) / L[:, j, j, None]
    return X


def _sweeps(A, y, B, K):
    """``y <- A y + B``, K times over the stack, as sdc_step applies its sweeps."""
    _check_sweeps(K)
    for _ in range(K):
        y = A @ y
        y += B   # in place: faster than matmul and add into two out= buffers
    return y


@lru_cache(maxsize=64)
def _rule_constants(rule: QuadratureRule):
    """``I`` and the update rows ``(qQ; q)`` of ``rule``, built once per rule: read-only."""
    eye, update = np.eye(len(rule.tau)), np.stack([rule.qQ, rule.q])
    eye.flags.writeable = update.flags.writeable = False
    return eye, update


def _matrix(kind, rule, K, kappa, mu) -> np.ndarray:
    """Stack of what ``kind`` measures: M x M iteration or 2x2 step matrices."""
    sdc = kind in (ScanKind.SDC_STABILITY, ScanKind.SDC_CONVERGENCE)
    # Q_pre: W = (Qx; QT) E and D = (QQ_Qx; Q_QT) E, as position and velocity rows
    pre = (build_preconditioner if sdc else _picard_preconditioner)(rule)
    eye, update = _rule_constants(rule)
    k, m = kappa[:, None, None], mu[:, None, None]
    # y is carried as y / s, s = 2^n <= max(1, |kappa|, |mu|): exact, finite where y overflows
    s = np.ldexp(1.0, np.frexp(np.maximum(1.0, np.maximum(abs(kappa), abs(mu))))[1] - 1)
    gk, gm = (-kappa / s)[:, None], (-mu / s)[:, None]
    AB = np.empty((len(kappa), len(eye), len(eye) + 2), np.result_type(kappa, mu, 1.0))
    np.subtract(-k * pre.QQ_Qx, m * pre.Q_QT, out=AB[..., :-2])
    AB[..., -2], AB[..., -1] = gk, gk * rule.tau + gm   # G C_coll U_0: free flight
    if sdc:   # Picard's I - G W is I
        AB = _forward(eye + k * pre.Qx + m * pre.QT, AB)
    # a contiguous B: np.add on the strided view runs about eight times as slow
    A, B = AB[..., :-2], np.ascontiguousarray(AB[..., -2:])
    if kind in _CONVERGENCE_KINDS:   # A's node-0 row is zero
        return A[:, 1:, 1:]
    y = np.empty_like(B)
    y[..., 0], y[..., 1] = gk, gm   # G U_0 of the copy start
    y = s[:, None, None] * _sweeps(A, y, B, K)
    return _SHEAR + update @ y


def _radius(S) -> np.ndarray:
    """Spectral radii of a stack of square matrices.  A 2x2 one's eigenvalues are
    h +- sqrt(disc), h = (a + d)/2 and disc = ((a - d)/2)^2 + b c, on its entries
    divided by a power of two near the largest, so that no square overflows."""
    if S.shape[-1] != 2:
        return np.abs(np.linalg.eigvals(S)).max(axis=-1)
    scale = np.ldexp(1.0, np.frexp(np.abs(S).max(axis=(-2, -1)))[1] - 1)   # exact: 2^n
    a, b, c, d = (S[..., i, j] / scale for i in (0, 1) for j in (0, 1))
    h, disc = 0.5 * (a + d), (0.5 * (a - d)) ** 2 + b * c
    root = np.sqrt(np.abs(disc))
    return scale * np.where(disc >= 0, np.abs(h) + root, np.hypot(h, root))


def _rho(kind, rule, K, kappa, mu) -> np.ndarray:
    """Spectral radii over a stack of cells, evaluated once; a cell whose matrix is
    not finite (an overflow, or a singular system) reads NaN, without a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S = _matrix(kind, rule, K, kappa, mu)
    if np.isfinite(S).all():
        return _radius(S)
    finite = np.isfinite(S).all(axis=(-2, -1))
    rho = np.full(len(S), np.nan)
    rho[finite] = _radius(S[finite])
    return rho


def _cell(stacked, dt_kappa: float, dt_mu: float) -> np.ndarray:
    """``stacked(kappa, mu)`` at one cell; a singular or overflowing one is an AnalysisError."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    pre = build_preconditioner(rule)
    W, D, eye = np.vstack([pre.Qx, pre.QT]), np.vstack([pre.QQ_Qx, pre.Q_QT]), np.eye(rule.M + 1)
    k, m = kappa[:, None, None], mu[:, None, None]
    G = np.concatenate([-k * eye, -m * eye], axis=-1)
    C = np.block([[eye, rule.Q], [0 * eye, eye]])
    A, X = np.split(_forward(eye + k * pre.Qx + m * pre.QT, G @ np.hstack([D, C])),
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
    the 2x2 one-step matrix for the stability kinds, the M x M sweep matrix
    A[1:, 1:] on the interior node forces for the convergence kinds.  Only the
    stability kinds read K."""
    return _cell(partial(_matrix, kind, rule, K), dt_kappa, dt_mu)


def scan_domain(kind: ScanKind, rule: QuadratureRule, K: int | None,
                grid: GridSpec = GridSpec()) -> ScanResult:
    """Spectral radius of the relevant matrix on a rectangular parameter grid;
    its cells, row by row, are evaluated in consecutive stacks of at most ``_STACK``."""
    kappa, mu = grid.kappa_axis(), grid.mu_axis()
    ka, m = np.repeat(kappa, len(mu)), np.tile(mu, len(kappa))   # the cells, row by row
    rho = np.empty(ka.size)
    for cells in (slice(s, s + _STACK) for s in range(0, rho.size, _STACK)):
        rho[cells] = _rho(kind, rule, K, ka[cells], m[cells])
    return ScanResult(kind=kind, K=K, kappa=kappa, mu=mu, rho=rho.reshape(len(kappa), len(mu)))


def stability_limit(kind: ScanKind, rule: QuadratureRule, K: int) -> float:
    """Largest dt*kappa on the mu = 0 axis before the first loss of stability.

    Coarse scan in ``_COARSE_STEP`` increments up to ``_UPPER`` in stacks of ``_RUNGS``
    rungs, then bisection of the first stable/unstable bracket down to ``_BISECT_TOL``
    on one stack of every midpoint it can visit (15 for a 0.1 bracket).

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

    def midpoints(lo, hi):   # every midpoint the bisection of [lo, hi] can visit
        mid = 0.5 * (lo + hi)
        return [mid, *midpoints(lo, mid), *midpoints(mid, hi)] if hi - lo > _BISECT_TOL else []
    candidates = midpoints(lo, hi)
    verdict = dict(zip(candidates, stable(np.array(candidates))))
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if verdict[mid] else (lo, mid)
    return 0.5 * (lo + hi)

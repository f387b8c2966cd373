"""Experiment drivers: order studies, stability tables, work-precision,
Hamiltonian drift.  Everything returns plain data and can be dumped to CSV."""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import integrate_verlet, rkn4_step
from .collocation import DIVERGENCE_GUARD, picard_iterate, update_step
from .errors import ConfigurationError, DivergenceError
from .problems import (PenningParams, SecondOrderIVP, exact_solution,
                       make_oscillator, make_penning)
from .quadrature import NodeFamily, build_rule
from .sdc import GuessStrategy, SweeperConfig, integrate, march, sdc_step
from .stability import GridSpec, ScanKind, ScanResult, stability_limit

SATURATION_LOW = 1e-12
SATURATION_HIGH = 1e2


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    problem: str = "penning"            # "penning" | "oscillator"
    kappa: float = 1.0
    mu: float = 0.0
    penning: PenningParams = field(default_factory=PenningParams)
    family: NodeFamily = NodeFamily.GAUSS_LEGENDRE
    M: int = 3
    K_list: tuple = (1, 2, 3)
    initial_guess: GuessStrategy = GuessStrategy.RANDOM
    seed: int = 42
    dt_list: tuple = ()
    t_end: float = 2.0
    n_steps: int = 100_000
    hamiltonian_dt: float = 2.0 * math.pi / 10.0
    methods: tuple = ("sdc", "picard", "rkn4")
    grid: GridSpec = field(default_factory=GridSpec)

    def make_problem(self) -> SecondOrderIVP:
        if self.problem == "oscillator":
            return make_oscillator(self.kappa, self.mu)
        if self.problem == "penning":
            return make_penning(self.penning)
        raise ConfigurationError(f"unknown problem kind {self.problem!r}")

    def initial_value(self):
        if self.problem == "oscillator":
            return np.array([1.0]), np.array([0.0])
        return np.array(self.penning.x0), np.array(self.penning.v0)

    def sweeper(self, K: int) -> SweeperConfig:
        return SweeperConfig(rule=build_rule(self.family, self.M), K=K,
                             initial_guess=self.initial_guess, seed=self.seed)


def _positive(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"needs a positive finite value, got {value!r}")
    return value


def _count(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"needs a count of at least 1, got {value}")
    return value


def _values(kind):
    def parse(text):
        values = tuple(kind(x) for x in text.split())
        if not values:
            raise ValueError("needs at least one value")
        return values
    return parse


# The config schema: [section] key -> (ExperimentConfig field, or a field of
# its ``penning``/``grid`` member, and the parser of the value).  Keys are
# applied in this order, so ``k_list`` wins over ``k``.
CONFIG_KEYS = {
    ("problem", "kind"): ("problem", str),
    ("problem", "kappa"): ("kappa", float),
    ("problem", "mu"): ("mu", float),
    ("problem", "omega_b"): ("penning.omega_b", float),
    ("problem", "omega_e"): ("penning.omega_e", float),
    ("problem", "epsilon"): ("penning.epsilon", float),
    ("problem", "alpha"): ("penning.alpha", float),
    ("problem", "x0"): ("penning.x0", _values(float)),
    ("problem", "v0"): ("penning.v0", _values(float)),
    ("rule", "family"): ("family", NodeFamily.from_name),
    ("rule", "m"): ("M", int),
    ("sweeper", "k"): ("K_list", lambda text: (int(text),)),
    ("sweeper", "k_list"): ("K_list", _values(int)),
    ("sweeper", "initial_guess"): ("initial_guess", lambda text: GuessStrategy(text.lower())),
    ("sweeper", "seed"): ("seed", int),
    ("run", "dt_list"): ("dt_list", _values(_positive)),
    ("run", "t_end"): ("t_end", _positive),
    ("run", "n_steps"): ("n_steps", _count),
    ("run", "hamiltonian_dt"): ("hamiltonian_dt", _positive),
    ("run", "methods"): ("methods", _values(str)),
    ("run", "kappa_max"): ("grid.kappa_max", float),
    ("run", "mu_max"): ("grid.mu_max", float),
    ("run", "kappa_cells"): ("grid.kappa_cells", int),
    ("run", "mu_cells"): ("grid.mu_cells", int),
}


def _with(obj, path: str, value):
    """Copy of the dataclass ``obj`` with the dotted field ``path`` set."""
    name, _, rest = path.partition(".")
    return replace(obj, **{name: _with(getattr(obj, name), rest, value) if rest else value})


def read_settings(path: str) -> dict:
    """``{(section, key): text}`` of a config file; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    if not found:
        raise ConfigurationError(f"cannot read config file {path}")
    sections = {section for section, _ in CONFIG_KEYS}
    settings = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if (section, key) not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            settings[section, key] = text
    return settings


def apply_settings(config: ExperimentConfig, settings: dict) -> ExperimentConfig:
    """``config`` with ``{(section, key): text}`` settings parsed and applied."""
    for (section, key), (path, parse) in CONFIG_KEYS.items():
        if (section, key) in settings:
            text = settings[section, key]
            try:
                config = _with(config, path, parse(text))
            except ValueError as exc:   # ConfigurationError included
                raise ConfigurationError(f"[{section}] {key} = {text!r}: {exc}") from exc
    return config


def load_config(path: str) -> ExperimentConfig:
    """The defaults of ExperimentConfig with a config file applied."""
    return apply_settings(ExperimentConfig(), read_settings(path))


# ---------------------------------------------------------------------------
# slope fitting

def fit_slope(dts, errs, low=SATURATION_LOW, high=SATURATION_HIGH):
    """Least-squares slope of log(err) vs log(dt), excluding saturated points.

    Returns (slope, fit_residual, n_points_used).
    """
    dts = np.asarray(dts, float)
    errs = np.asarray(errs, float)
    mask = (errs > low) & (errs < high) & np.isfinite(errs)
    if mask.sum() < 2:
        return math.nan, math.nan, int(mask.sum())
    x = np.log(dts[mask])
    y = np.log(errs[mask])
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    resid = float(np.sqrt(res[0] / mask.sum())) if len(res) else 0.0
    return float(coef[0]), resid, int(mask.sum())


@dataclass
class OrderReport:
    dts: np.ndarray
    errors: dict        # label -> error array over dts
    slopes: dict        # label -> fitted slope
    predicted: dict     # label -> theoretical order
    fit_residuals: dict

    def check(self, label: str, tol: float) -> bool:
        s = self.slopes.get(label, math.nan)
        p = self.predicted.get(label)
        return p is not None and math.isfinite(s) and abs(s - p) <= tol


def _predicted_local(p, K, k0, velocity_dependent, var):
    gain = 1 if velocity_dependent else 2
    extra = 2 if var == "x" else 1
    return min(p + 1, gain * K + k0 + extra)


def _predicted_global(p, K, k0, velocity_dependent, var):
    gain = 1 if velocity_dependent else 2
    return min(p, gain * K + k0)


# ---------------------------------------------------------------------------
# order studies

def _order_study(config: ExperimentConfig, errors_at, predict) -> OrderReport:
    """Slope-fit per-component errors over the dt ladder for every K.

    ``errors_at(problem, u0, dt, sweeper)`` returns the (x, v) error
    arrays of one run; ``predict`` is the theoretical order.
    """
    probe = config.make_problem()
    if probe.exact is None:
        raise ConfigurationError("order studies need an exact oracle")
    u0 = config.initial_value()
    dts = np.asarray(config.dt_list, float)
    if len(dts) < 4:
        raise ConfigurationError("order studies need at least 4 dt values")
    errors, slopes, predicted, residuals = {}, {}, {}, {}
    for K in config.K_list:
        sw = config.sweeper(K)
        runs = [errors_at(config.make_problem(), u0, dt, sw) for dt in dts]
        for j, var in enumerate("xv"):
            for i in range(probe.d):
                label = f"K{K}_{var}{i + 1}"
                errors[label] = np.array([run[j][i] for run in runs])
                slopes[label], residuals[label], _ = fit_slope(dts, errors[label])
                predicted[label] = predict(
                    sw.rule.order, K, sw.k0, bool(probe.velocity_dependent[i]), var)
    return OrderReport(dts, errors, slopes, predicted, residuals)


def run_local_order(config: ExperimentConfig) -> OrderReport:
    """Single-step absolute errors per component, one row per dt."""
    def errors_at(problem, u0, dt, sw):
        res = sdc_step(problem, u0, dt, sw)
        xe, ve = exact_solution(problem, dt, *u0)
        return np.abs(res.x_end - xe), np.abs(res.v_end - ve)
    return _order_study(config, errors_at, _predicted_local)


def run_global_order(config: ExperimentConfig) -> OrderReport:
    """Relative errors at t_end per component, slope-fitted over the ladder."""
    xe, ve = exact_solution(config.make_problem(), config.t_end,
                            *config.initial_value())

    def errors_at(problem, u0, dt, sw):
        try:
            _, results = integrate(problem, u0, 0.0, config.t_end, dt, sw)
            xn, vn = results[-1].x_end, results[-1].v_end
        except DivergenceError:
            xn = vn = np.full(problem.d, np.inf)
        return (np.abs(xn - xe) / np.maximum(np.abs(xe), 1e-300),
                np.abs(vn - ve) / np.maximum(np.abs(ve), 1e-300))
    return _order_study(config, errors_at, _predicted_global)


# ---------------------------------------------------------------------------
# linear step maps
#
# A ``step((x, v), h) -> (x', v')`` of a fixed-cost method on a linear problem
# is an affine map of u = (x, v); the drivers below probe it once per step
# size instead of stepping through Python thousands of times.

def _sdc_stepper(problem: SecondOrderIVP, sweeper: SweeperConfig):
    def step(u, h):
        res = sdc_step(problem, u, h, sweeper)
        return res.x_end, res.v_end
    return step


def _rkn4_stepper(problem: SecondOrderIVP):
    return lambda u, h: rkn4_step(problem, *u, h)


def _step_map(problem: SecondOrderIVP, step, h: float):
    """The map ``u <- S u + c`` that ``step`` takes on a linear problem.

    ``step`` is probed at u = 0, which gives ``c``, and at the 2d unit
    vectors, which give the columns of ``S`` (u = (x, v) stacked).  Returns
    (S, c, evals_per_step).  A problem without linear parts, or a step whose
    f-eval count differs between probes, is a ConfigurationError.
    """
    if not problem.is_linear:
        raise ConfigurationError("a step map needs a problem with linear parts")
    d = problem.d
    images, spent = [], set()
    for u in np.vstack([np.zeros(2 * d), np.eye(2 * d)]):
        before = problem.f_evals
        images.append(np.concatenate(step((u[:d], u[d:]), h)))
        spent.add(problem.f_evals - before)
    if len(spent) != 1:
        raise ConfigurationError(
            f"step spent {sorted(spent)} f-evals on different probes; "
            "it has no fixed cost per step")
    c = images[0]
    return np.array(images[1:]).T - c[:, None], c, spent.pop()


def _march_map(problem: SecondOrderIVP, step, u0, t_end: float, dt: float):
    """(x_end, f_evals) of ``step`` from 0 to t_end, marched as its probed map.

    One map per distinct step size, as the last step may be shorter.
    ``f_evals`` is what ``step`` would spend (steps times its per-step
    count), not what probing cost.  A state past DIVERGENCE_GUARD, or not
    finite, is a DivergenceError.
    """
    maps = {}

    def advance(u, h):
        if h not in maps:
            maps[h] = _step_map(problem, step, h)
        S, c, evals = maps[h]
        u = S @ u + c
        # the test of collocation._within_guard, inlined: it runs every step
        if not np.abs(u).max() <= DIVERGENCE_GUARD:
            raise DivergenceError(
                f"marched state exceeded {DIVERGENCE_GUARD:g} or is not finite")
        return u, (u, evals)

    _, outs = march(advance, np.concatenate(u0), 0.0, t_end, dt)
    return outs[-1][0][:problem.d], sum(evals for _, evals in outs)


def _march_direct(problem: SecondOrderIVP, step, u0, t_end: float, dt: float):
    """(x_end, f_evals) of ``step`` stepped directly from 0 to t_end.

    x_end is inf if the stepper diverges; f_evals counts what it spent up to
    there.
    """
    def advance(u, h):
        u = step(u, h)
        return u, u[0]

    before = problem.f_evals
    try:
        x_end = march(advance, u0, 0.0, t_end, dt)[1][-1]
    except DivergenceError:
        x_end = np.full(problem.d, math.inf)
    return x_end, problem.f_evals - before


# ---------------------------------------------------------------------------
# work-precision

def run_work_precision(config: ExperimentConfig):
    """Rows of (method, K, dt, f_evals, rel. position errors) for each run.

    sdc, picard and rkn4 march the probed one-step map of their stepper
    (:func:`_march_map`); ``f_evals`` is the stepper's own count.  A run
    that diverges there is repeated by direct stepping, so its row is the
    stepper's: infinite error and the f-evals spent up to the divergence.
    verlet reuses its trailing force (one evaluation per step plus the
    first) and is always stepped directly.
    """
    rule = build_rule(config.family, config.M)
    u0 = config.initial_value()
    xe, _ = exact_solution(config.make_problem(), config.t_end, *u0)
    sweepers = {K: SweeperConfig(rule=rule, K=K,
                                 initial_guess=GuessStrategy.COPY_INITIAL)
                for K in config.K_list}

    def picard_stepper(problem, K):
        def step(u, h):
            state, _, F = picard_iterate(problem, u, h, rule, K=K)
            return update_step(state, u, h, rule, forces=F)
        return step

    def mapped(stepper):
        def run(problem, K, dt):
            step = stepper(problem, K)
            try:
                return _march_map(problem, step, u0, config.t_end, dt)
            except DivergenceError:
                return _march_direct(problem, step, u0, config.t_end, dt)
        return run

    def verlet(problem, K, dt):
        x_end = integrate_verlet(problem, u0, 0.0, config.t_end, dt)[1][-1]
        return x_end, problem.f_evals

    # method -> (K values, run(problem, K, dt) -> (x_end, f_evals))
    methods = {
        "sdc": (config.K_list,
                mapped(lambda problem, K: _sdc_stepper(problem, sweepers[K]))),
        "picard": (config.K_list, mapped(picard_stepper)),
        "rkn4": ((0,), mapped(lambda problem, K: _rkn4_stepper(problem))),
        "verlet": ((0,), verlet),
    }
    rows = []
    for method in config.methods:
        if method not in methods:
            raise ConfigurationError(f"unknown work-precision method {method!r}")
        K_values, run = methods[method]
        for K in K_values:
            for dt in config.dt_list:
                x_end, f_evals = run(config.make_problem(), K, dt)
                err = np.abs(x_end - xe) / np.maximum(np.abs(xe), 1e-300)
                rows.append({"method": method, "K": K, "dt": dt, "f_evals": f_evals,
                             "err1": float(err[0]), "err3": float(err[-1])})
    return rows


# ---------------------------------------------------------------------------
# Hamiltonian drift

@dataclass
class DriftSeries:
    label: str
    steps: np.ndarray     # subsampled step indices
    rel_error: np.ndarray
    max_rel_error: float
    trend_slope: float    # fitted decades of log10(err) per step
    trend_stderr: float


def _fit_trend(steps: np.ndarray, series: np.ndarray, blocks: int = 50):
    """Drift of the error envelope: slope of log10(block maxima) vs step.

    The raw error series oscillates through near-zeros whose log spikes
    would dominate a direct fit, so the trend is measured on per-block
    maxima instead.
    """
    edges = np.array_split(np.arange(len(steps)), blocks)
    bs = np.array([steps[i].mean() for i in edges if len(i)])
    bm = np.array([series[i].max() for i in edges if len(i)])
    logged = np.log10(np.maximum(bm, 1e-300))
    A = np.vstack([bs, np.ones_like(bs)]).T
    coef, res = np.linalg.lstsq(A, logged, rcond=None)[:2]
    dof = max(len(bs) - 2, 1)
    var = float(res[0]) / dof if len(res) else 0.0
    sxx = float(np.sum((bs - bs.mean()) ** 2))
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return float(coef[0]), stderr


def _drift_from_matrix(S: np.ndarray, u0, n_steps: int, subsample: int,
                       label: str) -> DriftSeries:
    x, v = float(u0[0]), float(u0[1])
    h0 = 0.5 * (x * x + v * v)
    steps, series = [], []
    max_err = 0.0
    # Python floats round as np.float64 scalars do, at a third of the cost
    (s00, s01), (s10, s11) = S.tolist()
    for n in range(1, n_steps + 1):
        x, v = s00 * x + s01 * v, s10 * x + s11 * v
        err = abs(0.5 * (x * x + v * v) - h0) / h0
        if err > max_err:
            max_err = err
        if n % subsample == 0:
            steps.append(n)
            series.append(err)
    steps = np.array(steps)
    series = np.array(series)
    slope, stderr = _fit_trend(steps, series)
    return DriftSeries(label=label, steps=steps, rel_error=series,
                       max_rel_error=max_err, trend_slope=slope,
                       trend_stderr=stderr)


def run_hamiltonian_drift(config: ExperimentConfig, M_list=(3, 5),
                          subsample: int = 10,
                          guess: GuessStrategy = GuessStrategy.VERLET_SWEEP):
    """Relative discrete-Hamiltonian error series for SDC and RKN-4.

    The undamped oscillator is linear, so each fixed-dt method is an affine
    map on (x, v); the long run iterates the one-step matrix probed from the
    actual stepper (:func:`_step_map`; its offset is zero, as these steps are
    linear), which is exact for this problem and keeps the default 1e5-step
    run fast.

    The starting iterate defaults to a velocity-Verlet sweep: with a
    copied initial value, even iteration counts leave the one-step map
    marginally unstable at this step size (spectral radius above 1 by
    ~1e-6), which shows up as slow exponential energy growth over long
    runs, whereas the verlet start keeps every K in the K=2..4 range
    conservative.
    """
    if config.problem != "oscillator" or config.kappa != 1.0 or config.mu != 0.0:
        raise ConfigurationError(
            "Hamiltonian drift study needs the undamped oscillator with kappa = 1")
    if config.n_steps < subsample:
        raise ConfigurationError(
            f"Hamiltonian drift study needs n_steps >= {subsample}, the subsample "
            f"of its series, got {config.n_steps}")
    dt = config.hamiltonian_dt
    u0 = (1.0, 0.0)
    out = []
    for M in M_list:
        rule = build_rule(config.family, M)
        for K in config.K_list:
            sw = SweeperConfig(rule=rule, K=K, initial_guess=guess)
            problem = config.make_problem()
            S = _step_map(problem, _sdc_stepper(problem, sw), dt)[0]
            out.append(_drift_from_matrix(S, u0, config.n_steps, subsample,
                                          f"sdc_M{M}_K{K}"))
    problem = config.make_problem()
    S = _step_map(problem, _rkn4_stepper(problem), dt)[0]
    out.append(_drift_from_matrix(S, u0, config.n_steps, subsample, "rkn4"))
    return out


# ---------------------------------------------------------------------------
# stability limits

def run_limits(config: ExperimentConfig, M_values=(2, 3, 4, 5, 6),
               K_values=(1, 2, 3, 4)):
    """Stability-limit table on the mu = 0 axis: SDC with Picard alongside."""
    table = {}
    for K in K_values:
        for M in M_values:
            rule = build_rule(config.family, M)
            table[(K, M)] = (
                stability_limit(ScanKind.SDC_STABILITY, rule, K),
                stability_limit(ScanKind.PICARD_STABILITY, rule, K),
            )
    return table


# ---------------------------------------------------------------------------
# CSV output

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            cells = line.strip().split(",")
            parsed = []
            for c in cells:
                try:
                    parsed.append(float(c))
                except ValueError:
                    parsed.append(c)
            rows.append(parsed)
    return header, rows


def order_report_rows(report: OrderReport):
    labels = sorted(report.errors)
    header = ["dt"] + labels
    rows = []
    for i, dt in enumerate(report.dts):
        rows.append([float(dt)] + [float(report.errors[lbl][i]) for lbl in labels])
    return header, rows


def scan_rows(result: ScanResult):
    """One row per grid cell, kappa-major; ``rows`` is a generator."""
    rows = ([ka, m, r, int(stable)]
            for ka, rho_row, stable_row in zip(result.kappa, result.rho, result.stable_mask())
            for m, r, stable in zip(result.mu, rho_row, stable_row))
    return ["dt_kappa", "dt_mu", "rho", "stable"], rows

"""Experiment drivers: order studies, stability tables, work-precision,
Hamiltonian drift.  Everything returns plain data and can be dumped to CSV."""
from __future__ import annotations

import configparser
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .baselines import integrate_verlet, rkn4_step
from .collocation import DIVERGENCE_GUARD, picard_iterate, update_step
from .errors import ConfigurationError, DivergenceError
from .problems import (PenningParams, SecondOrderIVP, exact_solution,
                       make_oscillator, make_penning)
from .quadrature import NodeFamily, build_rule
from .sdc import GuessStrategy, SweeperConfig, _step_solver, integrate, march, sdc_step
from .stability import GridSpec, ScanKind, stability_limit

SATURATION_LOW = 1e-12
SATURATION_HIGH = 1e2
_SUBSAMPLE = 10                 # every _SUBSAMPLE-th step of a drift series is kept
_LIMIT_M = (2, 3, 4, 5, 6)      # node counts of the stability-limit table
_LIMIT_K = (1, 2, 3, 4)         # sweep counts of the stability-limit table
WORK_PRECISION_METHODS = ("sdc", "picard", "rkn4", "verlet")


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


def _at_least(low, text):
    value = int(text)
    if value < low:
        raise ValueError(f"needs an integer of at least {low}, got {value}")
    return value


def _method(text):
    if text not in WORK_PRECISION_METHODS:
        raise ValueError(f"unknown work-precision method {text!r}")
    return text


def _values(kind, distinct=True):
    """Parser of a list of values; a list of runs (``distinct``) repeats none."""
    def parse(text):
        values = tuple(kind(x) for x in text.split())
        if not values:
            raise ValueError("needs at least one value")
        if distinct and len(set(values)) < len(values):
            raise ValueError("needs distinct values")
        return values
    return parse


# The config schema: [section] key -> (ExperimentConfig field, or a field of
# its ``penning``/``grid`` member, and the parser of the value).
CONFIG_KEYS = {
    ("problem", "kind"): ("problem", str),
    ("problem", "kappa"): ("kappa", float),
    ("problem", "mu"): ("mu", float),
    ("problem", "omega_b"): ("penning.omega_b", float),
    ("problem", "omega_e"): ("penning.omega_e", float),
    ("problem", "epsilon"): ("penning.epsilon", float),
    ("problem", "x0"): ("penning.x0", _values(float, distinct=False)),
    ("problem", "v0"): ("penning.v0", _values(float, distinct=False)),
    ("rule", "family"): ("family", NodeFamily.from_name),
    ("rule", "m"): ("M", int),
    ("sweeper", "k_list"): ("K_list", _values(partial(_at_least, 0))),
    ("sweeper", "initial_guess"): ("initial_guess", lambda text: GuessStrategy(text.lower())),
    ("sweeper", "seed"): ("seed", partial(_at_least, 0)),
    ("run", "dt_list"): ("dt_list", _values(_positive)),
    ("run", "t_end"): ("t_end", _positive),
    ("run", "n_steps"): ("n_steps", partial(_at_least, 1)),
    ("run", "hamiltonian_dt"): ("hamiltonian_dt", _positive),
    ("run", "methods"): ("methods", _values(_method)),
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
    parser = configparser.ConfigParser(interpolation=None)   # a '%' in a value is literal
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    if not found:
        raise ConfigurationError(f"cannot read config file {path}")
    if parser.defaults():   # its keys would leak into every section
        raise ConfigurationError("unknown config section [DEFAULT]")
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

def fit_slope(dts, errs):
    """Least-squares slope of log(err) vs log(dt), excluding saturated points
    (at most SATURATION_LOW or at least SATURATION_HIGH).

    Returns (slope, fit_residual, n_points_used).
    """
    dts = np.asarray(dts, float)
    errs = np.asarray(errs, float)
    mask = (errs > SATURATION_LOW) & (errs < SATURATION_HIGH) & np.isfinite(errs)
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


def _predicted_local(p, K, k0, velocity_dependent, var):
    gain = 1 if velocity_dependent else 2
    extra = 2 if var == "x" else 1
    return min(p + 1, gain * K + k0 + extra)


def _predicted_global(p, K, k0, velocity_dependent, var):
    gain = 1 if velocity_dependent else 2
    return min(p, gain * K + k0)


# ---------------------------------------------------------------------------
# independent runs on every usable CPU

def _processes(n_items: int) -> int:
    """Processes to share ``n_items`` runs: one per usable CPU, the caller
    included, and no more than there are runs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _shares(costs, n: int):
    """Item indices dealt to ``n`` shares, longest first, each to the least loaded."""
    shares, loads = [[] for _ in range(n)], [0.0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return shares


def _child(fn, items, write: int):
    """A forked child's share: ``[fn(x) for x in items]``, or the exception it
    raised with its traceback, pickled into the pipe ``write``.  Never returns."""
    code = 1
    try:
        try:
            payload = (True, [fn(x) for x in items], None)
        except BaseException as exc:   # the caller re-raises it
            payload = (False, exc, traceback.format_exc())
        with os.fdopen(write, "wb") as fh:
            pickle.dump(payload, fh)
        code = 0
    finally:
        os._exit(code)   # no cleanup of the caller's state it shares


def _map(fn, items, cost):
    """``[fn(x) for x in items]``, shared between this process and forked children.

    There is one process per usable CPU, counting this one, so that no more
    processes are busy than there are CPUs.  Items are dealt longest-first by
    ``cost``; this process computes share 0 and each child one other share,
    which it sends back pickled over a pipe.  An exception raised in a child
    is raised here, and every child is killed and reaped on every way out.
    With one process this is the plain loop.
    """
    items = list(items)
    shares = _shares([cost(x) for x in items], _processes(len(items)))
    results = [None] * len(items)
    children = []   # (pid, read end of its pipe, its share)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fn, [items[i] for i in share], write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), share))
        for i in shares[0]:
            results[i] = fn(items[i])
        for pid, fh, share in children:
            try:
                ok, value, trace = pickle.load(fh)
            except EOFError:
                raise RuntimeError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise value from RuntimeError(f"in worker process {pid}:\n{trace}")
            for i, result in zip(share, value):
                results[i] = result
    finally:
        for pid, fh, _ in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


# ---------------------------------------------------------------------------
# order studies

def _order_study(config: ExperimentConfig, errors_at, predict) -> OrderReport:
    """Slope-fit per-component errors over the dt ladder for every K.

    ``errors_at(problem, u0, dt, sweeper)`` returns the (x, v) error
    arrays of one run; ``predict`` is the theoretical order.  The runs of
    every (K, dt) pair are shared out by :func:`_map`, costed by sweeps
    per unit time.
    """
    probe = config.make_problem()
    if probe.exact is None:
        raise ConfigurationError("order studies need an exact oracle")
    u0 = config.initial_value()
    dts = np.asarray(config.dt_list, float)
    if len(dts) < 4:
        raise ConfigurationError("order studies need at least 4 dt values")
    sweepers = [config.sweeper(K) for K in config.K_list]
    pairs = [(sw, dt) for sw in sweepers for dt in dts]
    runs = _map(lambda pair: errors_at(config.make_problem(), u0, pair[1], pair[0]),
                pairs, cost=lambda pair: (pair[0].K + 1) / pair[1])
    errors, slopes, predicted = {}, {}, {}
    for n, (K, sw) in enumerate(zip(config.K_list, sweepers)):
        ladder = runs[n * len(dts):(n + 1) * len(dts)]
        for j, var in enumerate("xv"):
            for i in range(probe.d):
                label = f"K{K}_{var}{i + 1}"
                errors[label] = np.array([run[j][i] for run in ladder])
                slopes[label] = fit_slope(dts, errors[label])[0]
                predicted[label] = predict(
                    sw.rule.order, K, sw.k0, bool(probe.velocity_dependent[i]), var)
    return OrderReport(dts, errors, slopes, predicted)


def run_local_order(config: ExperimentConfig) -> OrderReport:
    """Single-step absolute errors per component, one row per dt."""
    # taken here, before _map forks, so that scipy.linalg is imported once
    exact = {dt: exact_solution(config.make_problem(), dt, *config.initial_value())
             for dt in np.asarray(config.dt_list, float)}

    def errors_at(problem, u0, dt, sw):
        res = sdc_step(problem, u0, dt, sw)
        xe, ve = exact[dt]
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
    solves = cache(lambda h: _step_solver(problem, h, sweeper))   # once per step size

    def step(u, h):
        res = sdc_step(problem, u, h, sweeper, _solve=solves(h))
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


def _march_linear(problem: SecondOrderIVP, step, u0, t_end: float, dt: float):
    """(x_end, f_evals) of ``step`` from 0 to t_end on a linear problem.

    The probed map of ``step`` is marched, one map per distinct step size,
    as the last step may be shorter; ``f_evals`` is what ``step`` would
    spend (steps times its per-step count), not what probing cost.  If the
    marched state passes DIVERGENCE_GUARD or is not finite, ``step`` is
    stepped directly instead, so the result is the stepper's own: x_end is
    inf if it diverges, and f_evals counts what it spent up to there.
    """
    maps = cache(lambda h: _step_map(problem, step, h))

    def mapped(u, h):
        S, c, evals = maps(h)
        u = S.dot(u) + c   # ndarray.dot: matmul's BLAS call and bits, minus its ufunc dispatch
        # the test of collocation._check_guard, inlined: it runs every step
        if not np.abs(u).max() <= DIVERGENCE_GUARD:
            raise DivergenceError
        return u, (u, evals)

    def direct(u, h):
        u = step(u, h)
        return u, u[0]

    try:
        _, outs = march(mapped, np.concatenate(u0), 0.0, t_end, dt)
    except DivergenceError:
        before = problem.f_evals
        try:
            x_end = march(direct, u0, 0.0, t_end, dt)[1][-1]
        except DivergenceError:
            x_end = np.full(problem.d, math.inf)
        return x_end, problem.f_evals - before
    return outs[-1][0][:problem.d], sum(evals for _, evals in outs)


# ---------------------------------------------------------------------------
# work-precision

def run_work_precision(config: ExperimentConfig):
    """Rows of (method, K, dt, f_evals, rel. position errors) for each run.

    sdc, picard and rkn4 run their stepper through :func:`_march_linear`,
    so ``f_evals`` is the stepper's own count and a diverging run has an
    infinite error.  verlet reuses its trailing force (one evaluation per
    step plus the first) and is always stepped directly.
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

    # method -> (K values, stepper(problem, K)), in WORK_PRECISION_METHODS order; verlet
    # has no fixed-cost step
    methods = dict(zip(WORK_PRECISION_METHODS, (
        (config.K_list, lambda problem, K: _sdc_stepper(problem, sweepers[K])),
        (config.K_list, picard_stepper),
        ((0,), lambda problem, K: _rkn4_stepper(problem)),
        ((0,), None)), strict=True))
    rows = []
    for method in config.methods:
        if method not in methods:
            raise ConfigurationError(f"unknown work-precision method {method!r}")
        K_values, stepper = methods[method]
        for K in K_values:
            for dt in config.dt_list:
                problem = config.make_problem()
                if stepper is None:
                    x_end = integrate_verlet(problem, u0, 0.0, config.t_end, dt)[1][-1]
                    f_evals = problem.f_evals
                else:
                    x_end, f_evals = _march_linear(problem, stepper(problem, K), u0,
                                                   config.t_end, dt)
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


def _fit_trend(steps: np.ndarray, series: np.ndarray):
    """Drift of the error envelope: slope of log10(block maxima) vs step.

    The raw error series oscillates through near-zeros whose log spikes
    would dominate a direct fit, so the trend is measured on the maxima of
    50 blocks instead.
    """
    edges = np.array_split(np.arange(len(steps)), 50)
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


def _drift_from_matrix(S: np.ndarray, u0, n_steps: int, label: str) -> DriftSeries:
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
        if n % _SUBSAMPLE == 0:
            steps.append(n)
            series.append(err)
    steps = np.array(steps)
    series = np.array(series)
    slope, stderr = _fit_trend(steps, series)
    return DriftSeries(label=label, steps=steps, rel_error=series,
                       max_rel_error=max_err, trend_slope=slope,
                       trend_stderr=stderr)


def run_hamiltonian_drift(config: ExperimentConfig, M_list=(3, 5)):
    """Relative discrete-Hamiltonian error series for SDC and the RK4 baseline.

    The undamped oscillator is linear, so each fixed-dt method is an affine
    map on (x, v); the long run iterates the one-step matrix probed from the
    actual stepper (:func:`_step_map`; its offset is zero, as these steps are
    linear), which is exact for this problem and keeps the default 1e5-step
    run fast.  The maps are probed here and the series shared out by :func:`_map`.

    The starting iterate is a velocity-Verlet sweep, so the step at K is the
    copy start's at K + 1, to the bit.  No K is conservative: the one-step
    map's |lambda| - 1 changes sign with every sweep.  At M = 3 and the
    default dt = 2 pi / 10 it reads -3.35e-8, +2.18e-10 and -1.42e-12 for
    K = 2, 3, 4, so K = 3 grows by 2.18e-10 per step and the other two decay.
    """
    if config.problem != "oscillator" or config.kappa != 1.0 or config.mu != 0.0:
        raise ConfigurationError(
            "Hamiltonian drift study needs the undamped oscillator with kappa = 1")
    if config.n_steps < 3 * _SUBSAMPLE:
        raise ConfigurationError(
            f"Hamiltonian drift study needs n_steps >= {3 * _SUBSAMPLE}, three subsamples "
            f"of its series for the fit of its trend, got {config.n_steps}")
    dt = config.hamiltonian_dt
    u0 = (1.0, 0.0)

    def probe(sw):
        problem = config.make_problem()
        if sw is None:
            step, label = _rkn4_stepper(problem), "rkn4"
        else:
            step, label = _sdc_stepper(problem, sw), f"sdc_M{sw.rule.M}_K{sw.K}"
        return _step_map(problem, step, dt)[0], label

    rules = [build_rule(config.family, M) for M in M_list]
    items = [SweeperConfig(rule=rule, K=K, initial_guess=GuessStrategy.VERLET_SWEEP)
             for rule in rules for K in config.K_list] + [None]   # None: classical RK4
    # the maps are probed in this process; the n_steps loops are shared out
    return _map(lambda probed: _drift_from_matrix(probed[0], u0, config.n_steps, probed[1]),
                [probe(sw) for sw in items], cost=lambda probed: 1.0)


# ---------------------------------------------------------------------------
# stability limits

def run_limits(config: ExperimentConfig):
    """Stability-limit table on the mu = 0 axis: SDC with Picard alongside."""
    table = {}
    for K in _LIMIT_K:
        for M in _LIMIT_M:
            rule = build_rule(config.family, M)
            table[(K, M)] = (
                stability_limit(ScanKind.SDC_STABILITY, rule, K),
                stability_limit(ScanKind.PICARD_STABILITY, rule, K),
            )
    return table


# ---------------------------------------------------------------------------
# CSV output

def write_csv(path: str, header, columns):
    """Write ``columns`` under ``header``.  A column is an array or an iterable,
    written whole: at %.17g if it holds a float, as ``str`` otherwise."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"{len(header)} names in the header for columns of lengths "
                         f"{[len(c) for c in columns]}")
    cells = [map("{:.17g}".format if any(isinstance(x, float) for x in c) else str, c)
             for c in columns]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


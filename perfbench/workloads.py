"""The benchmark's workloads: seeded inputs, one timed job each, and the
oracle every job is checked against outside the timed region.

penning_march   Penning-trap trajectories through ``vvsdc.integrate``; the
                library's main use.  Linear force: one d x d solve per node.
mirror_march    the same integrator on a charged particle in a
                divergence-free magnetic-mirror field, v x B(x), with no
                linear parts, so every node solve is a fixed-point loop.
                Timed jobs start at |v| <= 30.  Twelve further jobs per run
                start at |v| in [1e4, 1e5], where the absolute fixed-point
                tolerance cannot be met; they run once, untimed, after the
                timed loop, and their SolverErrors are reported on their own
                (run.defect_fail_ratio), not dropped.
stability_scan  ``scan_domain`` tiles of the (dt*kappa, dt*mu) plane, the
                paper's stability maps.  Never enters sdc or collocation.
experiment_suite  ``vvsdc.cli.main`` for four experiment subcommands with
                default arguments; the only workload that reaches harness,
                cli, baselines, picard_iterate and stability_limit.

Jobs cycle through a fixed list of settings; the timed loop runs whole
cycles, so every run holds the same mix of settings.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import vvsdc
import vvsdc.cli
from vvsdc.collocation import NodeState

# (M, K, starting guess): the settings the README and CLI use -- copy start
# (README, work-precision), random start (global-order), verlet start
# (hamiltonian) -- at M = 3 and M = 5.
MARCH_SETTINGS = [(3, 3, "copy"), (3, 3, "random"), (3, 2, "verlet"),
                  (5, 3, "copy"), (5, 3, "random"), (5, 4, "verlet")]
_GUESS = {"copy": vvsdc.GuessStrategy.COPY_INITIAL,
          "random": vvsdc.GuessStrategy.RANDOM,
          "verlet": vvsdc.GuessStrategy.VERLET_SWEEP}
RANDOM_GUESS_SEED = 42   # the CLI's default seed for the random start


def sweepers():
    return [vvsdc.SweeperConfig(
        rule=vvsdc.build_rule(vvsdc.NodeFamily.GAUSS_LEGENDRE, M), K=K,
        initial_guess=_GUESS[start], seed=RANDOM_GUESS_SEED)
        for M, K, start in MARCH_SETTINGS]


@dataclass
class Outcome:
    """What one job did; filled by the runner and the oracle check."""

    seconds: float = math.nan       # scaled to the reference kernel's speed
    raw_seconds: float = math.nan
    error: str = ""           # exception class, or "" if the job completed
    expected: bool = False    # the exception is one the workload expects
    ok: bool = False          # completed and passed its oracle
    rel_error: float = math.nan
    work: int = 0
    steps: int = 0
    f_evals: int = 0
    detail: str = ""
    output: object = field(default=None, repr=False)


class Workload:
    """A seeded job list plus the code to run and check one job."""

    name = ""
    unit = ""          # what one unit of work is
    cycle = 1          # jobs per cycle of settings
    trace_cycles_per_s = 1.0   # traced runs cover this many cycles per --seconds

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def job(self, index: int):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, outcome: Outcome):
        raise NotImplementedError

    def defect_jobs(self) -> list:
        """Seeded jobs in a regime where the program is known to fail.

        They run once per run, untimed, after the timed jobs, and are
        reported apart from them; only ``expected_failure`` or a passed
        oracle leaves the run correct.
        """
        return []

    def expected_failure(self, job, exc: BaseException) -> bool:
        """Whether ``exc`` is the known failure of a defect job; any other
        exception makes the run incorrect."""
        return False

    def label(self, job) -> str | None:
        """Name of a job's setting when it is reported on its own."""
        return None

    def warm_up(self):
        """Run one small job of every setting so lazy set-up is paid."""

    def close(self):
        """Remove anything the workload wrote."""


# ---------------------------------------------------------------------------
# marching workloads

class _March(Workload):
    unit = "steps"
    cycle = len(MARCH_SETTINGS)
    dt = 0.0
    n_steps = 0
    # worst relative error allowed per setting of MARCH_SETTINGS
    error_budget: tuple = ()

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.sweepers = sweepers()
        self._rng = np.random.default_rng(seed)
        self._inputs = []

    def _input(self, index: int):
        while len(self._inputs) <= index:
            self._inputs.extend(self._draw_block())
        return self._inputs[index]

    def job(self, index):
        x0, v0 = self._input(index)
        return index % self.cycle, x0, v0

    def make_problem(self):
        raise NotImplementedError

    def run(self, job):
        setting, x0, v0 = job
        problem = self.make_problem()
        times, results = vvsdc.integrate(problem, (x0, v0), 0.0,
                                         self.dt * self.n_steps, self.dt,
                                         self.sweepers[setting])
        return (float(times[-1]), results[-1].x_end, results[-1].v_end,
                len(results), problem.f_evals)

    def warm_up(self):
        x0, v0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0])
        for sweeper in self.sweepers:
            vvsdc.integrate(self.make_problem(), (x0, v0), 0.0, 2 * self.dt,
                            self.dt, sweeper)

    def record(self, outcome: Outcome):
        t_end, x, v, steps, f_evals = outcome.output
        outcome.steps = outcome.work = steps
        outcome.f_evals = f_evals

    def check(self, job, outcome):
        setting, x0, v0 = job
        t_end, x, v, _, _ = outcome.output
        err = self.oracle_error(x0, v0, t_end, x, v)
        outcome.rel_error = err
        budget = self.error_budget[setting]
        outcome.ok = bool(np.isfinite(err) and err <= budget)
        if not outcome.ok:
            outcome.detail = f"relative error {err:.3e} above budget {budget:.1e}"


class PenningMarch(_March):
    """Penning-trap trajectories, checked against the matrix exponential."""

    name = "penning_march"
    trace_cycles_per_s = 0.5
    dt = 0.01
    n_steps = 100
    # ten times the worst error of 100 seeded jobs per setting (errors vary
    # by under 2x between jobs)
    error_budget = (2e-6, 1e-3, 2e-6, 1e-7, 6e-5, 5e-12)

    def _draw_block(self):
        return [(self._rng.uniform(-10.0, 10.0, 3), self._rng.uniform(-100.0, 100.0, 3))]

    def make_problem(self):
        return vvsdc.make_penning()

    def oracle_error(self, x0, v0, t_end, x, v):
        xe, ve = vvsdc.exact_solution(vvsdc.make_penning(), t_end, x0, v0)
        exact = np.concatenate([xe, ve])
        return float(np.max(np.abs(np.concatenate([x, v]) - exact))
                     / np.max(np.abs(exact)))


MIRROR_B0 = 2.0        # field strength at the centre
MIRROR_L = 20.0        # mirror length scale
MAX_SPEED = 30.0       # timed jobs start at |v| in [1, MAX_SPEED]
# Defect jobs start at |v| in [HIGH_SPEED, 1e5], where the fixed-point node
# solve fails with SolverError (ROADMAP item 4a); DEFECT_JOBS_PER_SETTING of
# them per setting of MARCH_SETTINGS.
HIGH_SPEED = 1e4
DEFECT_JOBS_PER_SETTING = 2


def _mirror_input(rng, log_speed_low, log_speed_high):
    """Start in [-5, 5]^3 with a random direction and a log-uniform speed."""
    x0 = rng.uniform(-5.0, 5.0, 3)
    direction = rng.normal(size=3)
    speed = 10.0 ** rng.uniform(log_speed_low, log_speed_high)
    return x0, speed * direction / np.linalg.norm(direction)


def mirror_field(x):
    """B = B0 (-x z / L^2, -y z / L^2, 1 + z^2 / L^2); div B = 0."""
    s = MIRROR_B0 / (MIRROR_L * MIRROR_L)
    return np.array([-s * x[0] * x[2], -s * x[1] * x[2],
                     MIRROR_B0 + s * x[2] * x[2]])


def mirror_force(x, v):
    return np.cross(v, mirror_field(x))


class MirrorMarch(_March):
    """Charged particle in a magnetic mirror; no linear parts.

    Checked against a DOP853 reference at rtol 1e-12 and against the
    exact invariant |v(t)| = |v(0)| of the magnetic force.
    """

    name = "mirror_march"
    trace_cycles_per_s = 0.25
    dt = 0.05
    n_steps = 20
    # 15 to 50 times the worst error of about 250 seeded jobs per setting;
    # errors grow with the speed, so they spread over three decades
    error_budget = (1e-7, 1e-4, 1e-7, 1e-8, 1e-5, 1e-10)

    def _draw_block(self):
        return [_mirror_input(self._rng, 0.0, math.log10(MAX_SPEED))]

    def defect_jobs(self):
        rng = np.random.default_rng([self.seed, 1])
        return [(setting, *_mirror_input(rng, math.log10(HIGH_SPEED), 5.0))
                for setting in range(self.cycle) for _ in range(DEFECT_JOBS_PER_SETTING)]

    def make_problem(self):
        return vvsdc.SecondOrderIVP(d=3, force=mirror_force,
                                    velocity_dependent=np.ones(3, dtype=bool))

    def expected_failure(self, job, exc):
        """The fixed-point node solve cannot meet its absolute tolerance
        at the speeds of the defect jobs."""
        _, _, v0 = job
        return isinstance(exc, vvsdc.SolverError) and np.linalg.norm(v0) >= HIGH_SPEED

    def oracle_error(self, x0, v0, t_end, x, v):
        from scipy.integrate import solve_ivp   # the oracle's alone, not set-up's
        u0 = np.concatenate([x0, v0])
        sol = solve_ivp(lambda t, u: np.concatenate([u[3:], mirror_force(u[:3], u[3:])]),
                        (0.0, t_end), u0, method="DOP853", rtol=1e-12,
                        atol=1e-12 * np.max(np.abs(u0)))
        ref = sol.y[:, -1]
        traj = float(np.max(np.abs(np.concatenate([x, v]) - ref)) / np.max(np.abs(ref)))
        speed0 = np.linalg.norm(v0)
        invariant = abs(np.linalg.norm(v) - speed0) / speed0
        return max(traj, float(invariant))


# ---------------------------------------------------------------------------
# stability scans

SCAN_SETTINGS = [(M, kind, K) for M in (3, 5) for kind, K in (
    (vvsdc.ScanKind.SDC_STABILITY, 50), (vvsdc.ScanKind.SDC_STABILITY, 2),
    (vvsdc.ScanKind.SDC_CONVERGENCE, None), (vvsdc.ScanKind.PICARD_STABILITY, 3))]
TILE_CELLS = 12        # cells per tile side
TILE_SIZE = 2.5        # tile side in dt*kappa and dt*mu
PLANE_MAX = 20.0       # tiles lie in [0, PLANE_MAX]^2, the CLI's default map
RHO_RTOL = 1e-9        # worst of 1500 seeded cells was 5e-14 when written
UNSTABLE = 1.0 + 1e-8  # the classification threshold of ScanResult


def _step_matrix(step):
    """2x2 one-step map of a scalar linear stepper, column by column."""
    S = np.empty((2, 2))
    for j, (x0, v0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        x1, v1 = step(np.array([x0]), np.array([v0]))
        S[0, j], S[1, j] = x1[0], v1[0]
    return S


def oracle_rho(kind, rule, K, dt_kappa, dt_mu) -> float:
    """Spectral radius of the map the real stepping code applies at dt = 1.

    Stability kinds probe a full step (sdc_step with the copied start, or
    Picard from the replicated initial value); the convergence kind probes
    one sdc_sweep on the interior nodes with a zero initial value, which is
    the iteration matrix without its all-zero node-0 rows.
    """
    problem = vvsdc.make_oscillator(dt_kappa, dt_mu)
    Mp1 = rule.M + 1
    if kind is vvsdc.ScanKind.SDC_STABILITY:
        sweeper = vvsdc.SweeperConfig(rule=rule, K=K,
                                      initial_guess=vvsdc.GuessStrategy.COPY_INITIAL)

        def step(x, v):
            r = vvsdc.sdc_step(problem, (x, v), 1.0, sweeper)
            return r.x_end, r.v_end
        matrix = _step_matrix(step)
    elif kind is vvsdc.ScanKind.PICARD_STABILITY:
        def step(x, v):
            start = NodeState(np.tile(x, (Mp1, 1)), np.tile(v, (Mp1, 1)))
            state, _, F = vvsdc.picard_iterate(problem, (x, v), 1.0, rule, K=K,
                                               initial=start)
            return vvsdc.update_step(state, (x, v), 1.0, rule, forces=F)
        matrix = _step_matrix(step)
    elif kind is vvsdc.ScanKind.SDC_CONVERGENCE:
        sweeper = vvsdc.SweeperConfig(rule=rule, K=1)
        n, zero = 2 * rule.M, np.zeros(1)
        matrix = np.empty((n, n))
        for j in range(n):
            X, V = np.zeros((Mp1, 1)), np.zeros((Mp1, 1))
            (X if j < rule.M else V)[1 + j % rule.M, 0] = 1.0
            state, _ = vvsdc.sdc_sweep(problem, NodeState(X, V), (zero, zero), 1.0, sweeper)
            matrix[:, j] = np.concatenate([state.X[1:, 0], state.V[1:, 0]])
    else:
        raise ValueError(f"no step-map oracle for {kind}")
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def rho_matches(scan_rho: float, step_rho: float | None) -> tuple[bool, float]:
    """Compare a scan cell with its step-map oracle; ``None`` = step diverged.

    A diverged step must sit on a cell the scan calls unstable.
    """
    if step_rho is None:
        return bool(scan_rho > UNSTABLE), 0.0
    if not np.isfinite(scan_rho):
        return False, math.inf
    err = abs(scan_rho - step_rho) / max(1.0, abs(step_rho))
    return err <= RHO_RTOL, err


class StabilityScan(Workload):
    name = "stability_scan"
    unit = "cells"
    cycle = len(SCAN_SETTINGS)
    trace_cycles_per_s = 0.5

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.rules = {M: vvsdc.build_rule(vvsdc.NodeFamily.GAUSS_LEGENDRE, M)
                      for M in {s[0] for s in SCAN_SETTINGS}}
        self._rng = np.random.default_rng(seed)
        self._inputs = []

    def job(self, index):
        while len(self._inputs) <= index:
            k0, m0 = self._rng.uniform(0.0, PLANE_MAX - TILE_SIZE, 2)
            cell = tuple(self._rng.integers(TILE_CELLS, size=2))
            self._inputs.append((k0, m0, cell))
        k0, m0, cell = self._inputs[index]
        grid = vvsdc.GridSpec(kappa_min=k0, kappa_max=k0 + TILE_SIZE,
                              mu_min=m0, mu_max=m0 + TILE_SIZE,
                              kappa_cells=TILE_CELLS, mu_cells=TILE_CELLS)
        return SCAN_SETTINGS[index % self.cycle], grid, cell

    def run(self, job):
        (M, kind, K), grid, _ = job
        return vvsdc.scan_domain(kind, self.rules[M], K, grid)

    def warm_up(self):
        small = vvsdc.GridSpec(kappa_max=1.0, mu_max=1.0, kappa_cells=2, mu_cells=2)
        for M, kind, K in SCAN_SETTINGS:
            vvsdc.scan_domain(kind, self.rules[M], K, small)

    def record(self, outcome):
        outcome.work = outcome.output.rho.size

    def check(self, job, outcome):
        (M, kind, K), _, (i, j) = job
        result = outcome.output
        scan_rho = float(result.rho[i, j])
        try:
            step_rho = oracle_rho(kind, self.rules[M], K,
                                  float(result.kappa[i]), float(result.mu[j]))
        except vvsdc.DivergenceError:
            step_rho = None
        outcome.ok, outcome.rel_error = rho_matches(scan_rho, step_rho)
        if not outcome.ok:
            outcome.detail = (f"cell ({result.kappa[i]:.6g}, {result.mu[j]:.6g}): "
                              f"scan rho {scan_rho!r}, step-map rho {step_rho!r}")


# ---------------------------------------------------------------------------
# experiment suite

SUITE_COMMANDS = ("global-order", "work-precision", "hamiltonian", "stability-limits")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
CSV_RTOL = 1e-6      # relative to the value and to the column's largest value
STEP_EPS = 4 * np.finfo(float).eps   # per-step rounding growth in step series


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return os.path.basename(text)    # summary.csv holds output paths


def read_table(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]]


def compare_csv(out_path: str, ref_path: str, rows: int | None = None,
                stride: int = 1) -> tuple[bool, float, str]:
    """Check one output CSV against its reference.

    Headers and text cells must be equal.  A number b of the reference
    matches a when |a - b| <= CSV_RTOL (|b| + max |column|), plus n * 4 eps
    in files with a ``step`` column (n-step error series grow rounding
    linearly in n).  A reference with ``stride`` holds every stride-th row
    of an output with ``rows`` rows.  Returns (ok, worst relative
    deviation, first mismatch).
    """
    header, got = read_table(out_path)
    ref_header, ref = read_table(ref_path)
    if header != ref_header:
        return False, math.inf, f"header {header} != {ref_header}"
    expected_rows = len(ref) if rows is None else rows
    if len(got) != expected_rows:
        return False, math.inf, f"{len(got)} rows, expected {expected_rows}"
    got = got[stride - 1::stride]
    step_col = header.index("step") if "step" in header else None
    colmax = [max((abs(r[c]) for r in ref if isinstance(r[c], float)), default=0.0)
              for c in range(len(header))]
    worst = 0.0
    for i, (a_row, b_row) in enumerate(zip(got, ref)):
        if len(a_row) != len(b_row):
            return False, math.inf, f"row {i}: {len(a_row)} cells"
        slack = STEP_EPS * b_row[step_col] if step_col is not None else 0.0
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            if isinstance(b, str) or isinstance(a, str):
                if a != b:
                    return False, math.inf, f"row {i} col {header[c]}: {a!r} != {b!r}"
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            dev = abs(a - b)
            if not dev <= CSV_RTOL * (abs(b) + colmax[c]) + slack:
                return False, math.inf, f"row {i} col {header[c]}: {a!r} != {b!r}"
            worst = max(worst, dev / max(abs(b), colmax[c]))
    return True, worst, ""


def compare_outputs(out_dir: str, command: str) -> tuple[bool, float, str]:
    """Compare every reference CSV of one subcommand with its output."""
    ref_dir = os.path.join(REFERENCE_DIR, command)
    with open(os.path.join(REFERENCE_DIR, "manifest.json")) as fh:
        manifest = json.load(fh)
    worst = 0.0
    expected = sorted(manifest["files"][command])
    produced = sorted(os.listdir(out_dir))
    if produced != expected:
        return False, math.inf, f"files {produced} != {expected}"
    for name in expected:
        sub = manifest["files"][command][name]
        ok, dev, detail = compare_csv(os.path.join(out_dir, name),
                                      os.path.join(ref_dir, name),
                                      sub.get("rows"), sub.get("stride", 1))
        if not ok:
            return False, dev, f"{command}/{name}: {detail}"
        worst = max(worst, dev)
    return True, worst, ""


def record_reference(root: str, stride: int = 50, min_rows: int = 1000):
    """Run each subcommand once and store its CSVs as the reference.

    Files longer than ``min_rows`` rows keep every ``stride``-th row.
    """
    manifest = {"stride_rule": f"files over {min_rows} rows keep every {stride}th row",
                "files": {}}
    shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
    for command in SUITE_COMMANDS:
        with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as out:
            if vvsdc.cli.main([command, "--out", out]) != 0:
                raise RuntimeError(f"{command} failed")
            dest = os.path.join(REFERENCE_DIR, command)
            os.makedirs(dest)
            files = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name)) as fh:
                    lines = fh.read().splitlines()
                entry = {}
                if len(lines) - 1 > min_rows:
                    entry = {"rows": len(lines) - 1, "stride": stride}
                    lines = lines[:1] + lines[stride::stride]
                if name == "summary.csv":
                    lines = [lines[0]] + [
                        ",".join(os.path.basename(c) for c in line.split(","))
                        for line in lines[1:]]
                with open(os.path.join(dest, name), "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                files[name] = entry
            manifest["files"][command] = files
    with open(os.path.join(REFERENCE_DIR, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def scratch_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench", "work")
    os.makedirs(path, exist_ok=True)
    return path


class ExperimentSuite(Workload):
    name = "experiment_suite"
    unit = "subcommands"
    cycle = len(SUITE_COMMANDS)
    trace_cycles_per_s = 0.0   # one pass of the four subcommands

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._rng = np.random.default_rng(seed)
        self._order = []
        self._tmp = tempfile.mkdtemp(dir=scratch_dir(root))

    def label(self, job):
        return job

    def job(self, index):
        while len(self._order) <= index:
            self._order.extend(self._rng.permutation(SUITE_COMMANDS).tolist())
        return self._order[index]

    def run(self, job):
        out = tempfile.mkdtemp(prefix=job + "-", dir=self._tmp)
        code = vvsdc.cli.main([job, "--out", out])
        if code != 0:
            raise RuntimeError(f"vvsdc {job} exited with {code}")
        return out

    def warm_up(self):
        vvsdc.cli.main(["nodes", "--out", os.path.join(self._tmp, "warm-up")])

    def record(self, outcome):
        outcome.work = 1

    def check(self, job, outcome):
        out = outcome.output
        outcome.ok, outcome.rel_error, outcome.detail = compare_outputs(out, job)
        shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self._tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PenningMarch, MirrorMarch, StabilityScan, ExperimentSuite)}

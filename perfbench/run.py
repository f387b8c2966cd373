#!/usr/bin/env python3
"""vvsdc benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload penning_march --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload in turn
    python3 perfbench/run.py --record-reference     # re-record suite reference CSVs
    python3 perfbench/compare.py OLD_RESULTS NEW_RESULTS

One caller in one process runs jobs back to back; each job starts when the
previous one has finished.  Jobs are checked against their oracles after
the timed loop.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` times a fixed job list untraced, repeats it
with every wrap target of ``tracing.TARGETS`` traced, profiles a few jobs,
and reports the per-layer metrics.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it list every metric by name and unit.  A full record of
each run goes to ``.perfbench/results/`` and traced spans to
``.perfbench/traces/``.

Job and set-up times are scaled to a nominal machine speed measured by
reference work (see REF_NOMINAL_S); the unscaled times are printed as
``raw`` lines and kept in the record.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# Small dense matrices only: one BLAS thread keeps timings steady, and stays
# within the CPU count on any machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread setting)
import scipy  # noqa: E402

# Load from elsewhere on a shared machine slows it by up to a third for tens
# of seconds at a time.  A fixed NumPy kernel, timed around and during every
# job (SpeedProbe), measures that slowdown; each job time is divided by
# (mean kernel time / REF_NOMINAL_S), i.e. reported at the speed at which
# the kernel takes REF_NOMINAL_S.  Raw job times are kept in the record and
# printed as "raw".  Set-up time is mostly importing NumPy and SciPy, whose
# slowdowns the kernel does not track (and on a shared virtual machine CPU
# time slows with wall time), so each set-up, run in a fresh process, is divided
# instead by the time a fresh process right before it takes to import NumPy
# and SciPy's linear algebra, and reported at the speed at which that takes
# REF_IMPORT_NOMINAL_S.
REF_NOMINAL_S = 0.002
PROBE_INTERVAL_S = 0.25
REF_IMPORT_NOMINAL_S = 0.4

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7      # fresh processes whose set-up is timed in each run
# With one cycle of experiment_suite (four subcommands) job_ms_p90 would fall
# between two different subcommands; from two cycles on it falls between runs
# of the slowest one.
MIN_CYCLES = 2


def _import_program():
    """Import vvsdc from this checkout's sources, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "vvsdc", "__init__.py")):
        sys.exit(f"error: no vvsdc sources under {SRC}")
    sys.path.insert(0, SRC)
    import vvsdc
    if not os.path.abspath(vvsdc.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: vvsdc imported from {vvsdc.__file__}, not {SRC}")
    return vvsdc


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Percentile interpolated between the two nearest samples, as
    ``statistics.median`` does for q=50.  A failed job (infinite) counts as
    a sample, and a percentile next to one is infinite."""
    v = np.sort(np.asarray(values, float))
    pos = (len(v) - 1) * q / 100
    lo, hi = v[math.floor(pos)], v[math.ceil(pos)]
    return float(lo + (hi - lo) * (pos - math.floor(pos))) if math.isfinite(hi) else math.inf


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small NumPy calls, like the program's."""
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.ones(3)
    t0 = time.perf_counter()
    x = b
    for _ in range(200):
        x = np.linalg.solve(A, x + b)
        y = np.concatenate([x, x])
        x = np.array([y[0], y[4], y[2]]) * 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel before and after each job and, from a
    SIGALRM interval timer, every PROBE_INTERVAL_S during it, so that long
    jobs are scaled by the speed the machine had while they ran."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def sample(self):
        if not self._busy:   # a timer tick during a sample is dropped
            self._busy = True
            try:
                self.samples.append(reference_kernel())
            finally:
                self._busy = False


def attempt(workload, job, out):
    """Run one job into ``out``; a failed job is counted, not fatal."""
    try:
        out.output = workload.run(job)
    except Exception as exc:
        out.error = type(exc).__name__
        out.expected = workload.expected_failure(job, exc)
        out.detail = str(exc)


def run_defect_jobs(workload):
    """Run the workload's known-defect jobs once, untimed, and check them."""
    from workloads import Outcome
    outcomes = []
    for i, job in enumerate(workload.defect_jobs()):
        out = Outcome()
        attempt(workload, job, out)
        outcomes.append((i, job, out))
    check_all(workload, outcomes)
    return outcomes


def run_jobs(workload, indices, outcomes, tracer=None, probe=True):
    """Run jobs in order, appending (index, job, outcome) to ``outcomes``.

    With ``probe`` off (profiling) no kernel runs and times are not scaled.
    """
    from workloads import Outcome
    with SpeedProbe() if probe else contextlib.nullcontext() as speed:
        if speed:
            speed.sample()
        for i in indices:
            job = workload.job(i)
            out = Outcome()
            if tracer is not None:
                tracer.job = i
            first = len(speed.samples) - 1 if speed else 0
            t0 = time.perf_counter()
            attempt(workload, job, out)
            out.raw_seconds = out.seconds = time.perf_counter() - t0
            if speed:
                out.raw_seconds -= sum(speed.samples[first + 1:])
                speed.sample()
                kernel = speed.samples[first:]
                out.seconds = out.raw_seconds * REF_NOMINAL_S * len(kernel) / sum(kernel)
                del speed.samples[:-1]
            if not out.error:
                workload.record(out)
            outcomes.append((i, job, out))


def timed_loop(workload, seconds, outcomes):
    """Whole cycles of jobs until ``seconds`` of wall time have passed, and
    at least MIN_CYCLES of them."""
    start = time.perf_counter()
    i = 0
    while True:
        run_jobs(workload, range(i, i + workload.cycle), outcomes)
        i += workload.cycle
        if time.perf_counter() - start >= seconds and i >= MIN_CYCLES * workload.cycle:
            return


def check_all(workload, outcomes):
    for _, job, out in outcomes:
        if not out.error:
            workload.check(job, out)
        out.output = None


def all_correct(outcomes) -> bool:
    """Every job passed its oracle or failed in the way its workload expects
    (which only defect jobs can)."""
    return all(o.ok or o.expected for _, _, o in outcomes)


def summarize(workload, outcomes, raw=False) -> dict:
    """End-to-end and run-level metrics of one set of jobs.

    ``work_per_s`` is the median over cycles of settings of the work each
    cycle completed per second it ran.  ``raw`` uses unscaled job times.
    """
    done = [o for _, _, o in outcomes if o.ok]
    seconds = {id(o): o.raw_seconds if raw else o.seconds for _, _, o in outcomes}
    latency_ms = [1e3 * seconds[id(o)] if o.ok else math.inf for _, _, o in outcomes]
    cycles = {}
    for i, _, o in outcomes:
        work, busy = cycles.get(i // workload.cycle, (0, 0.0))
        cycles[i // workload.cycle] = (work + (o.work if o.ok else 0), busy + seconds[id(o)])
    steps = sum(o.steps for o in done)
    errors = [o.rel_error for o in done if math.isfinite(o.rel_error)]
    metrics = {
        "work_per_s": statistics.median(w / b for w, b in cycles.values()),
        "job_ms_p50": percentile(latency_ms, 50),
        "job_ms_p90": percentile(latency_ms, 90),
        "run.fail_ratio": (len(outcomes) - len(done)) / len(outcomes),
        "run.max_rel_error": max(errors, default=0.0),
        "run.f_evals_per_step": sum(o.f_evals for o in done) / steps if steps else 0.0,
        "run.jobs": len(outcomes),
    }
    from workloads import SUITE_COMMANDS
    per_command = {c: [] for c in SUITE_COMMANDS}
    for _, job, out in outcomes:
        if out.ok and workload.label(job) in per_command:
            per_command[workload.label(job)].append(seconds[id(out)])
    for command, times in per_command.items():
        key = "suite." + command.replace("-", "_") + "_s"
        metrics[key] = statistics.median(times) if times else 0.0
    metrics["suite.wall_s"] = sum(metrics["suite." + c.replace("-", "_") + "_s"]
                                  for c in SUITE_COMMANDS)
    return metrics


def profile_jobs(workload, seconds, start_index):
    """Top 10 functions by own time while running jobs for ``seconds``."""
    import cProfile
    import io
    import pstats
    profiler = cProfile.Profile()
    outcomes = []
    start = time.perf_counter()
    i = start_index
    profiler.enable()
    while True:
        run_jobs(workload, [i], outcomes, probe=False)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows = []
    for (path, line, func), (cc, nc, tt, ct, _) in stats.stats.items():
        where = os.path.relpath(path, ROOT) if path.startswith(ROOT) else \
            os.path.join(*path.split(os.sep)[-2:]) if os.sep in path else path
        rows.append({"function": f"{where}:{line}({func})",
                     "calls": nc, "tottime_s": tt, "cumtime_s": ct})
    rows.sort(key=lambda r: -r["tottime_s"])
    return rows[:10], outcomes


def reference_import() -> float:
    """Seconds a fresh process takes to import NumPy and SciPy's linear algebra."""
    code = ("import time; t = time.perf_counter(); import numpy, scipy.linalg; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes doing this run's set-up and nothing
    else: (raw, scaled by reference_import)."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        reference = reference_import()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * REF_IMPORT_NOMINAL_S / reference)
    return raw, scaled


def run_all(args, names) -> int:
    """Run every workload in turn, each in its own process (for set-up time)."""
    codes = []
    for name in names:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode)
    return max(codes)


def write_record(record: dict) -> str:
    folder = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(folder, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(folder, f"{record['workload']}-trace{record['trace']}"
                                f"-seed{record['seed']}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="run the suite subcommands once and store their CSVs")
    args = parser.parse_args(argv)
    spec = load_spec()
    _import_program()
    import tracing
    import workloads
    if args.record_reference:
        workloads.record_reference(ROOT)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # a traced run also traces set-up, where rules and matrices are built
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.warm_up()
        for i in range(workload.cycle):
            workload.job(i)
        setup_s = time.perf_counter() - T_START
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": environment()}
        outcomes = []
        if tracer is None:
            timed_loop(workload, args.seconds, outcomes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check_all(workload, outcomes)
            metrics = summarize(workload, outcomes)
            metrics["peak_rss_mb"] = peak_rss_mb
            raw = summarize(workload, outcomes, raw=True)
            record["raw"] = {k: raw[k] for k in ("work_per_s", "job_ms_p50", "job_ms_p90")}
            raw_setup, samples = setup_samples(args)
            metrics["setup_s"] = statistics.median(samples)
            record["setup_samples_s"] = samples
            record["raw"]["setup_s"] = statistics.median(raw_setup)
            reported = [m["name"] for m in spec["end_to_end"]]
        else:
            reported = [m["name"] for m in spec["per_layer"]]
            metrics, extra = traced_run(workload, args, tracer, outcomes, reported)
            record.update(extra)
        defects = run_defect_jobs(workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    failures = [f"job {i}: {o.error or 'oracle'}: {o.detail}"
                for i, _, o in outcomes if not o.ok]
    failed = len(failures)
    defect_failures = [f"defect job {i}: {o.error or 'oracle'}: {o.detail}"
                       for i, _, o in defects if not o.ok]
    metrics["run.defect_fail_ratio"] = len(defect_failures) / len(defects) if defects else 0.0
    correct = all_correct(outcomes) and all_correct(defects)
    record.update({"attempted": len(outcomes), "failed": failed, "correct": correct,
                   "failures": failures[:20], "defect_jobs": len(defects),
                   "defect_failures": defect_failures,
                   "metrics": {k: {"value": v, "unit": units.get(k, "")}
                               for k, v in metrics.items()}})
    path = write_record(record)

    env = record["env"]
    print(f"env cpus={env['cpu_count']} blas_threads={BLAS_THREADS} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"workload {args.workload} seed={args.seed} jobs={len(outcomes)} "
          f"failed={failed} unit={workload.unit} record={os.path.relpath(path, ROOT)}")
    for line in failures[:5]:
        print(f"failure {line}")
    if defects:
        kinds = sorted({o.error or "oracle" for _, _, o in defects if not o.ok})
        print(f"known defect: {len(defect_failures)} of {len(defects)} untimed defect jobs "
              f"failed ({', '.join(kinds) or 'none'})")
    for entry in record.get("profile", []):
        print(f"profile {entry['tottime_s']:.4f}s {entry['calls']} {entry['function']}")
    for name in record.get("missing", []):
        print(f"missing wrap target {name}: its metrics read {tracing.MISSING}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units.get(name, 'undeclared')}")
    for name, value in record.get("raw", {}).items():
        print(f"raw {name} = {value!r} {units[name]} (unscaled)")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in reported}}))
    return 0


def traced_run(workload, args, tracer, outcomes, layer_names):
    """Untraced pass, traced pass over the same jobs, then a short profile."""
    import tracing
    n = workload.cycle * max(1, int(args.seconds * workload.trace_cycles_per_s))
    untraced = []
    run_jobs(workload, range(n), untraced)
    tracer.install()
    traced = []
    try:
        run_jobs(workload, range(n), traced, tracer)
    finally:
        tracer.uninstall()
    profile, profiled = profile_jobs(workload, args.seconds / 4, n)
    outcomes.extend(untraced + traced + profiled)
    check_all(workload, outcomes)
    metrics = summarize(workload, untraced)
    traced_rate = summarize(workload, traced)["work_per_s"]
    metrics = {k: v for k, v in metrics.items() if not k.startswith("job_ms")}
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / metrics.pop("work_per_s"))
    metrics["trace.spans"] = len(tracer.span_id)
    metrics.update(tracing.layer_metrics(tracer, layer_names))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    trace_path = os.path.join(ROOT, ".perfbench", "traces",
                              f"{args.workload}-seed{args.seed}-{stamp}-{os.getpid()}.npz")
    tracer.write(trace_path)
    extra = {"profile": profile, "missing": tracer.missing,
             "top_spans": tracing.top_spans(tracer),
             "trace_file": os.path.relpath(trace_path, ROOT)}
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's own checks.

    python3 -m pytest perfbench -q

Each oracle must pass the program's real output and flag a perturbed
one; every metric the benchmark prints must be declared in BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import vvsdc  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_and_check(workload, index):
    job = workload.job(index)
    out = Outcome(output=workload.run(job))
    workload.record(out)
    workload.check(job, out)
    return job, out


@pytest.mark.parametrize("cls", [workloads.PenningMarch, workloads.MirrorMarch])
def test_march_oracle_flags_perturbed_trajectory(cls, tmp_path):
    wl = cls(7, str(tmp_path))
    for setting in range(wl.cycle):
        job, out = _run_and_check(wl, setting)
        assert out.ok, out.detail
        t_end, x, v, steps, f_evals = out.output
        scale = max(np.max(np.abs(x)), np.max(np.abs(v)))
        x_bad = x.copy()
        x_bad[0] += 10 * wl.error_budget[setting] * scale
        bad = Outcome(output=(t_end, x_bad, v, steps, f_evals))
        wl.check(job, bad)
        assert not bad.ok


def test_mirror_oracle_flags_broken_speed_invariant(tmp_path):
    wl = workloads.MirrorMarch(7, str(tmp_path))
    x0, v0 = np.array([1.0, 0.5, -0.5]), np.array([3.0, -1.0, 2.0])
    exact = wl.oracle_error(x0, v0, 0.0, x0, v0)
    assert exact == 0.0
    assert wl.oracle_error(x0, v0, 0.0, x0, v0 * (1 + 1e-6)) > 5e-7


def test_mirror_defect_jobs_are_apart_from_timed_jobs(tmp_path):
    wl = workloads.MirrorMarch(11, str(tmp_path))
    timed = [np.linalg.norm(wl.job(i)[2]) for i in range(200)]
    assert max(timed) <= workloads.MAX_SPEED
    defects = wl.defect_jobs()
    assert sorted({setting for setting, _, _ in defects}) == list(range(wl.cycle))
    assert min(np.linalg.norm(v0) for _, _, v0 in defects) >= workloads.HIGH_SPEED
    assert all(np.array_equal(a[2], b[2]) for a, b in
               zip(defects, workloads.MirrorMarch(11, str(tmp_path)).defect_jobs()))
    assert workloads.PenningMarch(11, str(tmp_path)).defect_jobs() == []


def test_only_the_expected_failure_leaves_a_run_correct(tmp_path, monkeypatch):
    wl = workloads.MirrorMarch(11, str(tmp_path))
    defects = run.run_defect_jobs(wl)     # the real jobs: SolverError
    assert {o.error for _, _, o in defects} == {"SolverError"}
    assert run.all_correct(defects)
    fast = defects[0][1]

    def raising(exc):
        def job_run(job):
            raise exc
        return job_run
    for exc, job, correct in [(vvsdc.SolverError("no"), wl.job(0), False),
                              (TypeError("no"), fast, False),
                              (ValueError("no"), wl.job(0), False)]:
        monkeypatch.setattr(wl, "run", raising(exc))
        monkeypatch.setattr(wl, "job", lambda i, job=job: job)
        outcomes = []
        run.run_jobs(wl, [0], outcomes)
        assert run.all_correct(outcomes) is correct

    penning = workloads.PenningMarch(11, str(tmp_path))
    monkeypatch.setattr(penning, "run", raising(vvsdc.SolverError("no")))
    outcomes = []
    run.run_jobs(penning, [0], outcomes)
    assert not run.all_correct(outcomes)


def test_scan_oracle_flags_perturbed_rho(tmp_path):
    wl = workloads.StabilityScan(5, str(tmp_path))
    for index in range(wl.cycle):
        job, out = _run_and_check(wl, index)
        assert out.ok, out.detail
        _, _, (i, j) = job
        result = out.output
        if not np.isfinite(result.rho[i, j]) or result.rho[i, j] > 1e3:
            continue
        result.rho[i, j] *= 1 + 1e-6
        bad = Outcome(output=result)
        wl.check(job, bad)
        assert not bad.ok


def test_diverged_step_must_be_an_unstable_cell():
    assert workloads.rho_matches(2.0, None)[0]
    assert not workloads.rho_matches(0.9, None)[0]
    assert not workloads.rho_matches(float("nan"), 0.5)[0]


def test_suite_oracle_flags_perturbed_csv(tmp_path):
    out = str(tmp_path / "hamiltonian")
    assert vvsdc.cli.main(["hamiltonian", "--out", out]) == 0
    assert workloads.compare_outputs(out, "hamiltonian")[0]

    series = os.path.join(out, "hamiltonian_sdc_M3_K2.csv")
    with open(series) as fh:
        lines = fh.read().splitlines()
    step, value = lines[50].split(",")    # the 50th row is in the reference
    lines[50] = f"{step},{float(value) * 1.001!r}"
    with open(series, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ok, _, detail = workloads.compare_outputs(out, "hamiltonian")
    assert not ok and "hamiltonian_sdc_M3_K2.csv" in detail

    with open(series, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert not workloads.compare_outputs(out, "hamiltonian")[0]


def test_suite_oracle_flags_changed_header_and_value(tmp_path):
    out = str(tmp_path / "limits")
    shutil.copytree(os.path.join(workloads.REFERENCE_DIR, "stability-limits"), out)
    assert workloads.compare_outputs(out, "stability-limits")[0]
    path = os.path.join(out, "stability_limits.csv")
    with open(path) as fh:
        text = fh.read()
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) + 0.01)
    with open(path, "w") as fh:
        fh.write("\n".join([header, ",".join(cells), rest]))
    assert not workloads.compare_outputs(out, "stability-limits")[0]
    with open(path, "w") as fh:
        fh.write(text.replace("sdc_limit", "sdc_lim", 1))
    assert not workloads.compare_outputs(out, "stability-limits")[0]


def test_missing_wrap_target_reads_missing(monkeypatch):
    monkeypatch.delattr(vvsdc.collocation, "picard_iterate")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["collocation.picard_iterate"]
    metrics = tracing.layer_metrics(tracer, [m["name"] for m in _spec()["per_layer"]])
    assert metrics["collocation.picard_iterate.calls"] == tracing.MISSING
    assert metrics["collocation.free_flight.calls"] == 0


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    original = vvsdc.sdc.verlet_solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vvsdc.sdc.verlet_solve is not original
        _run_and_check(workloads.PenningMarch(3, str(tmp_path)), 0)
    finally:
        tracer.uninstall()
    assert vvsdc.sdc.verlet_solve is original
    metrics = tracing.layer_metrics(tracer, [m["name"] for m in _spec()["per_layer"]])
    assert metrics["sdc.integrate.calls"] == 1
    assert metrics["sdc.sdc_step.calls"] == workloads.PenningMarch.n_steps
    assert metrics["sdc.sweeps_per_step"] == workloads.MARCH_SETTINGS[0][1]
    assert metrics["preconditioner.f_evals_per_node_solve"] == 1.0


def test_self_time_subtracts_direct_children():
    spans = {"start": np.array([0.0, 2.0, 3.0]), "end": np.array([10.0, 5.0, 4.0]),
             "parent": np.array([-1, 0, 1]), "name_id": np.array([0, 1, 2])}
    assert np.allclose(tracing.self_times(spans), [7.0, 2.0, 1.0])
    assert list(tracing.under(spans, 0)) == [False, True, True]


def test_percentile_counts_a_failed_job_as_missing_every_limit():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, float("inf")], 50) == 2.0
    assert run.percentile([1.0, 2.0, float("inf")], 90) == float("inf")


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, [v * 0.7 for v in base], "higher", 0.2) == "worse"
    assert compare.verdict(base, [v * 1.3 for v in base], "higher", 0.2) == "improved"
    assert compare.verdict(base, list(base), "higher", 0.2) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [tracing.MISSING] * 10, "lower", None) == "missing"


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    spec = _spec()
    proc = _bench("--workload", "penning_march", "--seed", "1", "--seconds", "0.5",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed and set(printed) <= set(declared)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "penning_march", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

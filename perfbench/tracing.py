"""Span tracing from outside the program.

The tracer wraps public functions of ``vvsdc`` at every module attribute
that refers to them, so callers that imported a name (``vvsdc.sdc`` looks
up ``verlet_solve`` in its own namespace) go through the wrapper too.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts the
original objects back.

Each call becomes a span (name, start, end, parent span, job id, error
class) kept in flat arrays; self time and the per-layer counts are derived
from those arrays after the run.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every wrapped function; "Class.method" wraps a
# method on the class.  The span name is "<module>.<function>".
TARGETS = [
    ("quadrature", "build_rule"),
    ("preconditioner", "build_preconditioner"),
    ("preconditioner", "verlet_solve"),
    ("collocation", "free_flight"),
    ("collocation", "update_step"),
    ("collocation", "collocation_residual"),
    ("collocation", "picard_iterate"),
    ("sdc", "integrate"),
    ("sdc", "sdc_step"),
    ("sdc", "sdc_sweep"),
    ("sdc", "initial_guess"),
    ("problems", "SecondOrderIVP.f"),
    ("problems", "exact_solution"),
    ("baselines", "rkn4_step"),
    ("stability", "scan_domain"),
    ("stability", "stability_function"),
    ("stability", "build_K_sdc"),
    ("stability", "build_P_sdc"),
    ("stability", "spectral_radius"),
    ("stability", "stability_limit"),
    ("harness", "run_global_order"),
    ("harness", "run_work_precision"),
    ("harness", "run_hamiltonian_drift"),
    ("harness", "run_limits"),
    ("harness", "write_csv"),
    ("cli", "main"),
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _count_node_solves(args, kwargs, result, quantities):
    rhs_x = kwargs.get("rhs_x", args[1] if len(args) > 1 else None)
    quantities["node_solves"] += np.shape(rhs_x)[0] - 1


def _count_cells(args, kwargs, result, quantities):
    quantities["cells"] += result.rho.size
    quantities["nan_cells"] += int(np.isnan(result.rho).sum())


def _count_csv_bytes(args, kwargs, result, quantities):
    path = kwargs.get("path", args[0] if args else None)
    quantities["csv_bytes"] += os.path.getsize(path)


# quantities read from a call's arguments or result, by span name
_MEASURES = {
    "preconditioner.verlet_solve": _count_node_solves,
    "stability.scan_domain": _count_cells,
    "harness.write_csv": _count_csv_bytes,
}


class Tracer:
    """Installs span-recording wrappers and stores the spans in memory."""

    def __init__(self):
        self.names: list[str] = [span_name(m, a) for m, a in TARGETS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.errors: list[str] = [""]   # error class names; 0 = no error
        self.missing: list[str] = []
        self.job = -1
        self.site_calls: dict[tuple[str, str], int] = {}
        self.quantities = {"node_solves": 0, "cells": 0, "nan_cells": 0,
                           "csv_bytes": 0}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next = 0
        self.span_id = array("q")
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("q")
        self.error_id = array("h")

    # -- installation -----------------------------------------------------

    def install(self):
        self.missing = []
        modules = {m: importlib.import_module(f"vvsdc.{m}")
                   for m in {m for m, _ in TARGETS}}
        sites = [mod for name, mod in sorted(sys.modules.items())
                 if mod is not None and (name == "vvsdc" or name.startswith("vvsdc."))]
        for module, attr in TARGETS:
            name = span_name(module, attr)
            owner = modules[module]
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            if len(parts) > 1:
                self._patch(owner, parts[-1], self._wrap(original, name, module))
                continue
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        site_name = site.__name__.rpartition(".")[2]
                        self._patch(site, key, self._wrap(original, name, site_name))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name: str, site: str):
        nid = self._ids[name]
        measure = _MEASURES.get(name)
        site_key = (name, site)
        self.site_calls.setdefault(site_key, 0)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            self.site_calls[site_key] += 1
            stack.append(sid)
            err = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = self._error_id(type(exc).__name__)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, nid, t0, t1, parent, err)
            if measure is not None:
                measure(args, kwargs, result, self.quantities)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _error_id(self, cls_name: str) -> int:
        if cls_name not in self.errors:
            self.errors.append(cls_name)
        return self.errors.index(cls_name)

    def _record(self, sid, nid, t0, t1, parent, err):
        self.span_id.append(sid)
        self.name_id.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.job_id.append(self.job)
        self.error_id.append(err)

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays ordered by span id (the order calls started)."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16)[order],
            "start": np.frombuffer(self.start, dtype=np.float64)[order],
            "end": np.frombuffer(self.end, dtype=np.float64)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
            "job": np.frombuffer(self.job_id, dtype=np.int64)[order],
            "error_id": np.frombuffer(self.error_id, dtype=np.int16)[order],
        }

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            errors=np.array(self.errors), **self.spans())


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time covered by its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def under(spans: dict, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor_id`` above them."""
    parent = spans["parent"]
    names = spans["name_id"]
    mask = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        valid = anc >= 0
        mask |= valid & (names[np.where(valid, anc, 0)] == ancestor_id)
        anc = np.where(valid, parent[np.where(valid, anc, 0)], -1)
    return mask


# derived metric -> span names it needs; missing if any of them is missing
_DERIVED_FROM = {
    "stability.build_preconditioner_per_cell": ("preconditioner.build_preconditioner",
                                                "stability.scan_domain"),
    "preconditioner.f_evals_per_node_solve": ("preconditioner.verlet_solve", "problems.f"),
    "sdc.us_per_step": ("sdc.sdc_step",),
    "sdc.sweeps_per_step": ("sdc.sdc_step", "sdc.sdc_sweep"),
    "sdc.divergences": ("sdc.sdc_step",),
    "problems.us_per_f_eval": ("problems.f",),
    "stability.us_per_cell": ("stability.scan_domain",),
    "stability.limit_cell_evals": ("stability.stability_limit", "stability.spectral_radius"),
    "stability.nan_cells": ("stability.scan_domain",),
    "harness.write_csv.bytes": ("harness.write_csv",),
}

MISSING = -1.0   # value reported for a metric whose wrap target is gone


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, wanted) -> dict:
    """The metrics named in ``wanted`` that spans give, from the recorded
    spans: "<span name>.calls", "<span name>.self_ms" and those of
    _DERIVED_FROM.  Other names are left to the caller."""
    spans = tracer.spans()
    names = spans["name_id"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(spans)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def calls(name):
        return int(np.count_nonzero(names == ids[name]))

    def total(name, values):
        return float(values[names == ids[name]].sum())

    out = {}
    for metric in wanted:
        fn, _, kind = metric.rpartition(".")
        if fn in ids and kind == "calls":
            out[metric] = calls(fn)
        elif fn in ids and kind == "self_ms":
            out[metric] = 1e3 * total(fn, self_t)
    q = tracer.quantities
    cells = q["cells"]
    pre_in_stability = tracer.site_calls.get(
        ("preconditioner.build_preconditioner", "stability"), 0)
    f_id, vs_id = ids["problems.f"], ids["preconditioner.verlet_solve"]
    parent = spans["parent"]
    f_in_solve = np.count_nonzero(
        (names == f_id) & (parent >= 0) & (names[np.maximum(parent, 0)] == vs_id))
    steps = calls("sdc.sdc_step")
    step_mask = names == ids["sdc.sdc_step"]
    divergence = (tracer.errors.index("DivergenceError")
                  if "DivergenceError" in tracer.errors else -1)
    limit_mask = under(spans, ids["stability.stability_limit"])
    derived = {
        "stability.build_preconditioner_per_cell": _ratio(pre_in_stability, cells),
        "preconditioner.f_evals_per_node_solve": _ratio(f_in_solve, q["node_solves"]),
        "sdc.us_per_step": 1e6 * _ratio(total("sdc.sdc_step", dur), steps),
        "sdc.sweeps_per_step": _ratio(calls("sdc.sdc_sweep"), steps),
        "sdc.divergences": int(np.count_nonzero(step_mask & (spans["error_id"] == divergence))),
        "problems.us_per_f_eval": 1e6 * _ratio(total("problems.f", dur), calls("problems.f")),
        "stability.us_per_cell": 1e6 * _ratio(total("stability.scan_domain", dur), cells),
        "stability.limit_cell_evals": int(np.count_nonzero(
            limit_mask & (names == ids["stability.spectral_radius"]))),
        "stability.nan_cells": q["nan_cells"],
        "harness.write_csv.bytes": q["csv_bytes"],
    }
    out.update({k: v for k, v in derived.items() if k in wanted})
    gone = set(tracer.missing)
    for metric in out:
        fn = metric.rpartition(".")[0]
        if fn in gone or any(n in gone for n in _DERIVED_FROM.get(metric, ())):
            out[metric] = MISSING
    return out


def top_spans(tracer: Tracer, n: int = 10) -> list[tuple[str, int, float]]:
    """The n span names with the most self time: (name, calls, self_ms)."""
    spans = tracer.spans()
    self_t = self_times(spans)
    rows = []
    for i, name in enumerate(tracer.names):
        mask = spans["name_id"] == i
        if mask.any():
            rows.append((name, int(mask.sum()), 1e3 * float(self_t[mask].sum())))
    return sorted(rows, key=lambda r: -r[2])[:n]

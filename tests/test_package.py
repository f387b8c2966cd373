import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vvsdc
import vvsdc.cli


def test_star_import_resolves_every_export():
    # a name left in __all__ after its function is deleted breaks this import
    namespace = {}
    exec("from vvsdc import *", namespace)
    assert all(hasattr(vvsdc, name) for name in vvsdc.__all__)
    assert set(vvsdc.__all__) <= set(namespace)
    assert len(set(vvsdc.__all__)) == len(vvsdc.__all__)


# A fresh process runs each snippet after ``import vvsdc, vvsdc.cli``, with OUT
# and CFG naming an output directory and a small-grid config, and prints
# ``result``, which must be the same as this process's; the second item is
# whether it may load scipy.linalg.
_MAP = "[run]\nkappa_max = 2\nmu_max = 2\nkappa_cells = 3\nmu_cells = 3\n"
_PENNING_MARCH = """
import numpy as np
problem = vvsdc.make_penning()
cfg = vvsdc.SweeperConfig(rule=vvsdc.build_rule(vvsdc.NodeFamily.GAUSS_LEGENDRE, 3))
u0 = (np.array([10.0, 0.0, 0.0]), np.array([100.0, 0.0, 100.0]))
_, steps = vvsdc.integrate(problem, u0, 0.0, 0.1, 0.01, cfg)
result = np.concatenate([steps[-1].x_end, steps[-1].v_end]).tobytes().hex()
"""
_PENNING = _PENNING_MARCH + """
result += np.concatenate(vvsdc.exact_solution(problem, 0.1, *u0)).tobytes().hex()
"""
_INTEGRATE = """
assert vvsdc.cli.main(['integrate', '--out', OUT]) == 0
with open(OUT + '/trajectory.csv') as fh:
    result = fh.read()
"""
_RUNS = {
    "import": ("result = 0", False),
    "nodes": ("result = vvsdc.cli.main(['nodes', '--out', OUT])", False),
    "stability-map": ("result = vvsdc.cli.main(['stability-map', '--config', CFG,"
                      " '--out', OUT])", False),
    "convergence-map": ("result = vvsdc.cli.main(['convergence-map', '--config', CFG,"
                        " '--out', OUT])", False),
    "stability-limits": ("result = vvsdc.cli.main(['stability-limits', '--out', OUT])",
                         False),
    "integrate": (_INTEGRATE, False),
    "penning-march": (_PENNING_MARCH, False),
    "penning": (_PENNING, True),
}


@pytest.mark.parametrize("run", list(_RUNS))
def test_scipy_loads_on_first_use(tmp_path, run):
    # scipy.linalg and scipy.special are most of the import time: the stability
    # engine, Gauss-Legendre rules and linear node solves need neither, and
    # only exact solutions need scipy.linalg
    snippet, loads_linalg = _RUNS[run]
    cfg = tmp_path / "map.ini"
    cfg.write_text(_MAP)
    code = (f"import sys, vvsdc, vvsdc.cli\n"
            f"OUT, CFG = {str(tmp_path / 'out')!r}, {str(cfg)!r}\n{snippet}\n"
            "print(repr(result))\n"
            "print([m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules])\n")
    src = str(Path(vvsdc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    result, loaded = out.stdout.splitlines()[-2:]
    assert loaded == ("['scipy.linalg']" if loads_linalg else "[]")
    here = {"vvsdc": vvsdc, "OUT": str(tmp_path / "here"), "CFG": str(cfg)}
    exec(snippet, here)
    assert result == repr(here["result"])   # the same bits as this process's run


def _scipy_imports(tree, in_function=False):
    """``(line, in_function)`` for each SciPy import under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno, in_function
        yield from _scipy_imports(node, in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_scipy_is_imported_only_where_it_is_used():
    # an import at module level (a class body or an if or try block there
    # included) would load SciPy with the package; the node solve runs on
    # NumPy's gesv, so preconditioner.py imports no SciPy at all
    found = {}
    for path in sorted(Path(vvsdc.__file__).parent.glob("*.py")):
        found[path.name] = list(_scipy_imports(ast.parse(path.read_text())))
        for line, in_function in found[path.name]:
            assert in_function and path.name != "preconditioner.py", f"{path.name}:{line}"
    assert [in_function for _, in_function in found["problems.py"]] == [True]   # expm

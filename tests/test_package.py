import os
import subprocess
import sys
from pathlib import Path

import vvsdc


def test_star_import_resolves_every_export():
    # a name left in __all__ after its function is deleted breaks this import
    namespace = {}
    exec("from vvsdc import *", namespace)
    assert all(hasattr(vvsdc, name) for name in vvsdc.__all__)
    assert set(vvsdc.__all__) <= set(namespace)
    assert len(set(vvsdc.__all__)) == len(vvsdc.__all__)


def test_import_leaves_scipy_special_out():
    # scipy.special is most of the import time; only Lobatto and Radau rules need it
    src = str(Path(vvsdc.__file__).resolve().parents[1])
    code = "import sys, vvsdc; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

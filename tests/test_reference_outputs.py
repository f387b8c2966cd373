"""The default outputs of the benchmark's experiment subcommands match the
reference CSVs it checks them against, so a change that moves one fails here
before the benchmark refuses it.  (``hamiltonian`` is checked in perfbench's
own tests.)"""
import os
import sys

import pytest

from vvsdc.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("command", ["global-order", "work-precision", "stability-limits"])
def test_default_outputs_match_the_benchmark_reference(tmp_path, command):
    out = str(tmp_path / command)
    assert main([command, "--out", out]) == 0
    ok, _, detail = workloads.compare_outputs(out, command)
    assert ok, detail

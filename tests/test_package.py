"""The package surface: re-exported names and the BLAS thread default.

Covers:
  * every name in every module's ``__all__`` resolves on ``ddpc`` and is
    listed in ``ddpc.__all__``.
  * every public dataclass with an array field compares and hashes by
    identity, so that ``==`` answers instead of raising on the arrays.
  * ``import ddpc`` pins OpenBLAS to one thread unless the variable is
    already set; checked in fresh interpreters, since the test process
    imported numpy long before.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddpc

MODULES = (ddpc.trajectory, ddpc.lq, ddpc.predictor, ddpc.qp, ddpc.sim,
           ddpc.controllers, ddpc.bench, ddpc.errors)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves_on_package(module):
    for name in module.__all__:
        assert getattr(ddpc, name) is getattr(module, name), name
        assert name in ddpc.__all__, name


# the public dataclasses that hold arrays
ARRAY_HOLDERS = {
    "Trajectory", "HankelPartition", "LqBlocks", "CausalSplit", "Predictor",
    "QpProblem", "QpSolution", "StateSpaceModel", "LinearFeedbackController",
    "CostSpec", "BoxConstraints", "StepResult", "RolloutResult",
    "ExperimentConfig"}


def test_array_holding_dataclasses_compare_by_identity():
    holders = {name for name in ddpc.__all__
               if dataclasses.is_dataclass(getattr(ddpc, name))
               and any("ndarray" in str(f.type)
                       for f in dataclasses.fields(getattr(ddpc, name)))}
    assert holders == ARRAY_HOLDERS
    for name in holders:
        cls = getattr(ddpc, name)
        assert cls.__eq__ is object.__eq__, name
        assert cls.__hash__ is object.__hash__, name


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "explicit"])
def test_import_pins_blas_threads_unless_set(preset, expected):
    package_root = str(Path(ddpc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = package_root
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, ddpc; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == expected

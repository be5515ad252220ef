"""Smoke test: the quick demos run to completion as standalone scripts.

Each demo runs in a fresh subprocess with a temporary working directory
(demo 03 writes its rollout CSV there) and must exit with code 0.  Demos
06-08 run sweeps and tuning that take tens of seconds each, so they stay
manual.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddpc

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK = ("01_factorize_and_inspect.py", "02_predictors_and_residuals.py",
         "03_closed_loop_rollout.py", "04_variant_equivalences.py",
         "05_noise_free_identity.py", "09_box_qp.py")


@pytest.mark.parametrize("script", QUICK)
def test_demo_exits_cleanly(script, tmp_path):
    package_root = str(Path(ddpc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

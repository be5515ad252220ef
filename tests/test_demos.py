"""Smoke test: every demo runs to completion as a standalone script.

Each demo runs in a fresh subprocess with a temporary working directory
(demo 03 writes its rollout CSV there) and must exit with code 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddpc

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(script, tmp_path):
    package_root = str(Path(ddpc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

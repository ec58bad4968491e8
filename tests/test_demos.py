"""Each demo script runs to completion against the package source.

The demos use the public API (VmRecord.from_samples, DetectionReport.series, ...),
so a rename or deletion there shows up here rather than in a reader's
terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [sys.executable, str(demo)]
    if demo.name == "05_full_simulation.py":
        args.append(str(tmp_path / "reports"))
    proc = subprocess.run(args, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

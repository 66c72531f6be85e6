"""The demos run to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_toy_voting", "02_instant_learning", "03_parameter_prediction",
         "04_multilevel_sequences", "05_segmentation", "06_detection", "07_scaling"]


def run_demo(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name == "01_toy_voting":
        assert "winner: 3 with 2 votes" in proc.stdout.splitlines()
    if name == "06_detection":
        lines = proc.stdout.splitlines()
        assert "background frame: no object" in lines
        assert "object frame: object class 1, activity 2" in lines

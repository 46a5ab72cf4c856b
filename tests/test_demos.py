"""Every demo script and each fenced ``python`` block of the README runs to
completion in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run_python(args, cwd):
    """``python *args`` in ``cwd``, importing this checkout's dcsp; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


# the quick start, then the sweep, which writes fig1.csv and fig1.dat to tmp_path
@pytest.mark.parametrize("block", README_PYTHON, ids=["quick_start", "sweep"])
def test_readme_python_runs(block, tmp_path):
    _run_python(["-c", block], tmp_path)

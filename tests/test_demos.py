"""Every demo script and each fenced ``python`` block of the README runs to
completion in a fresh interpreter."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, run_python):
    run_python([str(demo)])


# the quick start, then the sweep, which writes fig1.csv and fig1.dat to tmp_path
@pytest.mark.parametrize("block", README_PYTHON, ids=["quick_start", "sweep"])
def test_readme_python_runs(block, run_python):
    run_python(["-c", block])

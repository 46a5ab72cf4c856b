"""CI's smoke steps, run from the workflow file itself.

Each step's ``run: |`` block is read by indentation (CI installs no YAML
parser) and run under ``bash -e`` from the checkout's root, as GitHub runs
a step with no shell set, with ``dcsp`` and ``python`` on ``PATH`` as shims
for this checkout's ``python -m dcsp.cli`` and interpreter.  So the smoke lines run wherever
Tier-1 runs, from the one text that CI runs.
"""

import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_block(step):
    """The dedented ``run: |`` block of the workflow step named ``step``."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {step}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return dedent("\n".join(block)).strip() + "\n"


@pytest.mark.parametrize("step", ["Console script smoke run", "Batched sweep smoke run",
                                  "Line budget", "Golden pins on a second BLAS kernel"])
def test_ci_smoke_step_passes(step, tmp_path):
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("dcsp", "-m dcsp.cli "), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command}"$@"\n')
        shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
    )
    # the lines' /tmp/ci-* files go to this test's own directory
    script = tmp_path / "step.sh"
    script.write_text(run_block(step).replace("/tmp/ci-", f"{tmp_path}/ci-"))
    done = subprocess.run(["bash", "-e", str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{step} exited {done.returncode}:\n{done.stdout}{done.stderr}"

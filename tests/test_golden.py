"""Golden regression: pursuit runs and sweep tables match ``golden/runs.json``,
``dcsp trial`` prints ``golden/transcripts.json`` byte for byte, and two
small sweeps make the calls of ``golden/ledger.json``.

The files were written by ``golden/generate.py``; regenerate them only in
a change that declares an output change.  Their kernel-free parts are
compared exactly on every BLAS kernel.  Their round-off parts are compared
only on the kernel that wrote them; elsewhere each such test skips and
names both kernels.  Exact fields are compared through their digests (and
in full for the stored examples); a residual trace entry may differ by
1e-12 of the larger of its own value and the trace's first entry.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.generate import (
    EXAMPLES, LEDGER_PATH, PATH, RUNS, TRANSCRIPT_PATH, _stored, blas_kernel, digest,
    instance_params, ledger, run_instance, table_digests, transcript,
)

RTOL = 1e-12
RUNNING = blas_kernel()


def on_recorded_kernel(recorded):
    """Skip unless numpy runs on the BLAS kernel ``recorded`` with the
    round-off pins."""
    if recorded is None or RUNNING != recorded:
        pytest.skip(f"round-off pinned under {recorded}, running on {RUNNING}")


@pytest.fixture(scope="module")
def golden():
    with open(PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs(golden):
    assert [p for p, _, _ in golden["instances"]] == instance_params()
    return [run_instance(params) for params, _, _ in golden["instances"]]


def _trace_close(actual, expected):
    if len(actual) != len(expected):
        return False
    scale = abs(expected[0]) if expected else 0.0
    return all(abs(a - e) <= RTOL * max(abs(e), scale) for a, e in zip(actual, expected))


def test_runs_match_golden(golden, runs):
    examples = [fields for instance in runs[:EXAMPLES] for fields, _, _ in instance]
    assert examples == golden["header"]["examples"]
    mismatches = []
    for i, ((params, stored, _), instance) in enumerate(zip(golden["instances"], runs)):
        for name, (fields, _, _), want in zip(RUNS, instance, stored):
            if _stored(fields) != want:
                mismatches.append(f"instance {i} {params} {name}: exact fields differ")
    assert not mismatches, f"{len(mismatches)} runs differ, first: {mismatches[:3]}"


def test_runs_round_off_match_golden(golden, runs):
    round_off = golden["header"]["round_off"]
    on_recorded_kernel(round_off["blas_kernel"])
    sizes = [s for instance in runs[:EXAMPLES] for _, s, _ in instance]
    assert sizes == round_off["examples"]
    mismatches = []
    for i, ((params, _, stored), instance) in enumerate(zip(golden["instances"], runs)):
        for name, (_, sizes, trace), want in zip(RUNS, instance, stored):
            if want is None or sizes is None:
                continue  # a rank-deficient draw, which the exact fields compare
            if digest(sizes) != want[0]:
                mismatches.append(f"instance {i} {params} {name}: candidate sizes differ")
            elif not _trace_close(trace, want[1]):
                mismatches.append(f"instance {i} {params} {name}: residual trace "
                                  f"{trace} != {want[1]}")
    assert not mismatches, f"{len(mismatches)} runs differ, first: {mismatches[:3]}"


def test_tables_match_golden(golden):
    header = golden["header"]
    assert table_digests(header["table_trials"]) == header["tables"]


with open(TRANSCRIPT_PATH) as fh:
    TRANSCRIPTS = json.load(fh)
PINNED = TRANSCRIPTS["transcripts"]
IDS = [p["args"] or "default" for p in PINNED]
printed = functools.cache(transcript)  # one trial per argument list


@pytest.mark.parametrize("pinned", PINNED, ids=IDS)
def test_transcript_matches_golden(pinned):
    got = printed(pinned["args"])
    assert (got["stdout"], got["exit"]) == (pinned["stdout"], pinned["exit"])


@pytest.mark.parametrize("pinned", PINNED, ids=IDS)
def test_transcript_round_off_matches_golden(pinned):
    on_recorded_kernel(TRANSCRIPTS["blas_kernel"])
    assert printed(pinned["args"])["round_off"] == pinned["round_off"]


@pytest.fixture(scope="module")
def work():
    with open(LEDGER_PATH) as fh:
        return ledger(), json.load(fh)


def test_work_ledger_matches_golden(work):
    # stacked rows per function, exactly: the same outputs from other stack
    # shapes show here
    got, pinned = work
    assert got["rows"] == pinned["rows"]


def test_work_ledger_calls_match_golden(work):
    # calls per function, exactly: the same outputs from more (or fewer)
    # calls show here
    got, pinned = work
    on_recorded_kernel(pinned["blas_kernel"])
    assert got["calls"] == pinned["calls"]


def test_pins_hold_on_a_second_blas_kernel():
    # this file again under OpenBLAS's Haswell kernels: the kernel-free pins
    # hold on every kernel; the round-off pins skip on any kernel but the one
    # that wrote them, naming both
    here = Path(__file__).resolve()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider", str(here),
         "-k", "not test_pins_hold_on_a_second_blas_kernel"],
        cwd=here.parent.parent, env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

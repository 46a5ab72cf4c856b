"""Golden regression: pursuit runs and sweep tables match ``golden/runs.json``,
``dcsp trial`` prints ``golden/transcripts.json`` byte for byte, and two
small sweeps make the calls of ``golden/ledger.json``.

The files were written by ``golden/generate.py``; regenerate them only in
a change that declares an output change.  Exact fields are compared through
their digests (and in full for the stored examples).  A residual trace
entry may differ by 1e-12 of the larger of its own value and the trace's
first entry, since a different BLAS kernel may round differently and
a converged residual is round-off.
"""

import json

import pytest

from golden.generate import (
    EXAMPLES, LEDGER_PATH, PATH, RUNS, TRANSCRIPT_PATH, _stored, instance_params,
    ledger, run_instance, table_digests, transcript,
)

RTOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with open(PATH) as fh:
        return json.load(fh)


def _trace_close(actual, expected):
    if len(actual) != len(expected):
        return False
    scale = abs(expected[0]) if expected else 0.0
    return all(abs(a - e) <= RTOL * max(abs(e), scale) for a, e in zip(actual, expected))


def test_runs_match_golden(golden):
    instances = golden["instances"]
    assert [p for p, _ in instances] == instance_params()
    mismatches = []
    examples = []
    for i, (params, stored) in enumerate(instances):
        runs = run_instance(params)
        if i < EXAMPLES:
            examples += [fields for fields, _ in runs]
        for name, (fields, trace), (want, want_trace) in zip(RUNS, runs, stored):
            if _stored(fields) != want:
                mismatches.append(f"instance {i} {params} {name}: exact fields differ")
            elif not _trace_close(trace, want_trace):
                mismatches.append(f"instance {i} {params} {name}: residual trace "
                                  f"{trace} != {want_trace}")
    assert examples == golden["header"]["examples"]
    assert not mismatches, f"{len(mismatches)} runs differ, first: {mismatches[:3]}"


def test_tables_match_golden(golden):
    header = golden["header"]
    assert table_digests(header["table_trials"]) == header["tables"]


with open(TRANSCRIPT_PATH) as fh:
    PINNED = json.load(fh)


@pytest.mark.parametrize("pinned", PINNED, ids=[p["args"] or "default" for p in PINNED])
def test_transcript_matches_golden(pinned):
    assert transcript(pinned["args"]) == pinned


def test_work_ledger_matches_golden():
    # calls and stacked rows per function, exactly: the same outputs from
    # more (or fewer) calls, or from other stack shapes, show here
    with open(LEDGER_PATH) as fh:
        assert ledger() == json.load(fh)

"""Fast self-test of the sweep benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It runs shrunken copies of the workloads through the real code paths and
checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the correctness gate trips on a wrong row and on inexact wire
counts, and that the benchmark refuses to run without the program.
Exit status 0 means every check passed.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {"lsweep": "5:10:5", "msweep": "22:24:2", "lsweep-j2": "5:10:5"}
failures = []


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL {what}")
        failures.append(what)


def tiny(name, workdir):
    """A two-point, two-trial copy of a workload with its own reference table."""
    w = run.WORKLOADS[name]
    reference = workdir / f"{name}.csv"
    if not reference.exists():
        stem = workdir / f"{name}-reference"
        argv = dataclasses.replace(w, grid=TINY[name]).argv(
            run.REFERENCE_SEED, 1, run.REFERENCE_TRIALS, stem)
        subprocess.run([sys.executable, "-m", "dcsp.cli", *argv], cwd=run.ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        shutil.copy(f"{stem}.csv", reference)
    return dataclasses.replace(w, name=f"selftest-{name}", grid=TINY[name], trials=2,
                               reference=str(reference))


def check_metrics(result, declared, what):
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct with no failed operation")
    got = result["metrics"]
    check(set(got) == {m["name"] for m in declared}, f"{what}: emits exactly the declared metrics")
    wrong = [m["name"] for m in declared
             if got.get(m["name"], {}).get("unit") != m["unit"]
             or not isinstance(got[m["name"]].get("value"), (int, float))
             or not math.isfinite(got[m["name"]]["value"])]
    check(not wrong, f"{what}: finite value and declared unit for {wrong or 'every metric'}")


def check_gate_trips(workload):
    columns, rows = run.read_table(workload.reference)
    check(not run.check_wire_exact(columns, rows), "gate passes the recorded table")
    check(not run.check_same_rows((columns, rows), (columns, rows), "same"), "gate passes equal rows")

    wrong = [dict(r) for r in rows]
    wrong[0]["dcsp_success"] = "0.123"
    check(bool(run.check_same_rows((columns, rows), (columns, wrong), "wrong row")),
          "gate trips on a wrong row")
    inexact = [dict(r) for r in rows]
    inexact[-1]["ssp_mean_messages"] = str(int(float(inexact[-1]["ssp_mean_messages"])) + 1)
    check(bool(run.check_wire_exact(columns, inexact)), "gate trips on inexact wire counts")

    # the full path: a reference file with a wrong row fails the sweep that meets it
    corrupted = Path(workload.reference).with_name("corrupted.csv")
    text = Path(workload.reference).read_text().splitlines()
    cells = text[-1].split(",")
    cells[2] = "0.5" if cells[2] != "0.5" else "0.25"
    corrupted.write_text("\n".join(text[:-1] + [",".join(cells)]) + "\n")
    runner = run.Runner(dataclasses.replace(workload, reference=str(corrupted)), run.import_program())
    with contextlib.redirect_stderr(io.StringIO()):  # the gate's report of the planted row
        runner.reference_check(1)
    check(runner.failed == 1 and runner.attempted == 1, "reference check fails the sweep on a wrong row")


def check_refuses_without_program(workdir):
    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "lsweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "exits non-zero with no result where only the benchmark is present")
    shutil.rmtree(bare)


def main():
    run.pin_environment()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py defines")
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)

    result, _ = run.run_workload(tiny("lsweep-j2", workdir), seed=7, seconds=1, trace=0)
    check_metrics(result, spec["end_to_end"], "lsweep-j2 --trace 0")
    for name in ("msweep", "lsweep-j2"):
        result, _ = run.run_workload(tiny(name, workdir), seed=7, seconds=1, trace=1)
        check_metrics(result, spec["per_layer"], f"{name} --trace 1")
        metrics = result["metrics"]
        check(metrics["problems.generate.calls"]["value"] > 0 and metrics["linalg.lstsq.calls"]["value"] > 0
              and metrics["network.fabric.calls"]["value"] > 0 and metrics["pursuit.runs"]["value"] > 0,
              f"{name} --trace 1: every layer recorded calls")

    check_gate_trips(tiny("lsweep", workdir))
    check_refuses_without_program(workdir)
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

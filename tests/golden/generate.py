"""Regenerate ``runs.json``, the golden record of pursuit runs and tables,
``transcripts.json``, the pinned ``dcsp trial`` transcripts, and
``ledger.json``, the work ledger of two small sweeps.

    PYTHONPATH=src python3 tests/golden/generate.py

The files pin what a refactor must not change.  ``runs.json`` holds
about 300 seeded small instances, each run four ways (ssp; dcsp on a ring
with g < L, or g = 2 at L = 2; dcsp with g = L; dcsp on a random explicit
topology),
and the sha256 of the fig1 and fig2 ``.csv`` tables at three base seeds.
``transcripts.json`` holds the exact stdout and exit code of ``dcsp trial``
for each argument list of ``TRANSCRIPTS``.  ``ledger.json`` holds, per
sweep of ``LEDGER_SWEEPS``, the calls and stacked rows of each function
of ``LEDGER_CALLS``: a change that leaves the outputs alone but does more
or less work shows there.

Each file keeps apart what no BLAS kernel moves from the round-off that
another kernel rounds differently once a run has recovered its support,
and names the kernel that wrote the round-off (:func:`blas_kernel`):

* per run, a digest of its exact fields (support, iterations, support
  trace, wire rounds, cap hit), apart from a digest of its candidate
  sizes, which the noise picks after recovery, and its residual trace
  rounded to 15 significant digits; the runs of the first instances also
  keep both digested parts in full, so a failure can be read field by
  field;
* per transcript, the stdout with its ``ROUND_OFF`` values cut out, apart
  from those values;
* per sweep, the stacked rows apart from the calls, whose size groups
  follow the candidate sizes.

Regenerate the files only in a change that declares an output change.
``tests/test_golden.py`` recomputes everything here and compares.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from dcsp import experiments, pursuit
from dcsp.cli import main as cli_main
from dcsp.experiments import ExperimentConfig, default_l_grid, default_m_grid, run_sweep
from dcsp.linalg import RankDeficientError
from dcsp.network import full_topology, ring_topology, topology_from_listing
from dcsp.problems import ProblemConfig, generate
from dcsp.pursuit import dcsp_run, ssp_run

PATH = Path(__file__).with_name("runs.json")
INSTANCES = 300
EXAMPLES = 2  # instances whose runs are also stored field by field
RUNS = ("ssp", "dcsp-ring", "dcsp-full", "dcsp-graph")
TABLE_SEEDS = (1, 7, 99)
TABLE_TRIALS = 2
TRANSCRIPT_PATH = Path(__file__).with_name("transcripts.json")
# `dcsp trial` arguments, split on spaces: the README command, the default
# trial, ssp, an explicit topology, and a failed run stopped by its cap
TRANSCRIPTS = (
    "--algorithm dcsp --N 200 --M 50 --K 10 --L 6 --g 3 --seed 7",
    "",
    "--algorithm ssp --expect-success",
    "--topology 1,2;2,3;3,1 --L 3 --N 40 --M 20 --K 4",
    "--M 24 --g 3 --max-iters 1 --expect-success",
)
LEDGER_PATH = Path(__file__).with_name("ledger.json")
# (module, function, position of its stacked argument, that argument's
# ndim unstacked): a call's rows are the stack's length, 1 if unstacked;
# with ndim 0 the argument is always a sequence
LEDGER_CALLS = (
    (pursuit, "lstsq_augmented", 0, 2),
    (pursuit, "resid", 0, 2),
    (pursuit, "correlate", 0, 2),
    (pursuit, "max_ind", 0, 1),
    (pursuit, "max_occ", 0, 1),
    (pursuit, "exchange_neighbors", 0, 0),
    (pursuit, "broadcast_all", 0, 0),
    (experiments, "generate_batch", 0, 0),
    (experiments, "run_batch", 1, 0),
)
# the perfbench msweep and lsweep grids at 10 trials per point, serially
LEDGER_SWEEPS = {
    "msweep": dict(sweep="M", values=default_m_grid(), L=6),
    "lsweep": dict(sweep="L", values=default_l_grid(), M=50),
}
# the values that `dcsp trial` prints of its energies and candidate sizes
ROUND_OFF = re.compile(r"(?<=residual_energy=)\S+|(?<=candidate_sizes=)\[[^]]*\]")


def blas_kernel():
    """The OpenBLAS release and kernel set that numpy runs on, as OpenBLAS
    names them ("OpenBLAS 0.3.31.188.0 SkylakeX", and "... Haswell" under
    ``OPENBLAS_CORETYPE=Haswell``), or None where numpy's BLAS names none."""
    for path in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("lib*openblas*.so")):
        library = ctypes.CDLL(str(path))  # the copy that numpy has loaded
        for prefix in ("scipy_openblas", "openblas"):
            if hasattr(library, f"{prefix}_get_corename64_"):
                config, corename = (getattr(library, f"{prefix}_get_{name}64_")
                                    for name in ("config", "corename"))
                config.argtypes = corename.argtypes = []
                config.restype = corename.restype = ctypes.c_char_p
                return " ".join([*config().decode().split()[:2], corename().decode()])
    return None


def instance_params(count=INSTANCES, seed=20141):
    """``count`` rows of (N, M, K, L, g, seed, max_iters, listing).

    K = 1, M = 2K, L = 2 and caps of 1 and 2 iterations all occur; the
    listing is a random neighborhood per node for ``topology_from_listing``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        K = int(rng.integers(1, 5))
        L = int(rng.integers(2, 8))
        N = int(rng.integers(max(12, 2 * K), 41))
        M = 2 * K if i % 4 == 0 else int(rng.integers(2 * K, 2 * K + 13))
        g = int(rng.integers(2, L)) if L > 2 else 2
        max_iters = (None, None, None, 1, 2)[i % 5]
        groups = []
        for l in range(1, L + 1):
            others = [j for j in range(1, L + 1) if j != l]
            picked = rng.choice(others, size=int(rng.integers(0, L)), replace=False)
            groups.append(",".join(str(j) for j in sorted([l, *picked.tolist()])))
        rows.append([N, M, K, L, g, int(rng.integers(0, 2**31)), max_iters, ";".join(groups)])
    return rows


def digest(fields):
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_instance(params):
    """The four runs of one instance, in ``RUNS`` order: (kernel-free
    fields, candidate sizes, residual trace) each, or (exception name,
    None, []) for a rank-deficient draw."""
    N, M, K, L, g, seed, max_iters, listing = params
    instance = generate(ProblemConfig(N=N, M=M, K=K, L=L, seed=seed))
    calls = (
        lambda: ssp_run(instance, full_topology(L), max_iters),
        lambda: dcsp_run(instance, ring_topology(L, g), max_iters),
        lambda: dcsp_run(instance, ring_topology(L, L), max_iters),
        lambda: dcsp_run(instance, topology_from_listing(listing), max_iters),
    )
    runs = []
    for call in calls:
        try:
            result = call()
        except RankDeficientError:
            runs.append(("RankDeficientError", None, []))
            continue
        fields = {
            "support": result.support.tolist(),
            "iterations": result.iterations,
            "support_trace": [s.tolist() for s in result.support_trace],
            "rounds": [list(r) for r in result.wire.rounds],
            "hit_max_iters": result.hit_max_iters,
        }
        runs.append((fields, result.candidate_sizes, [float(x) for x in result.residual_trace]))
    return runs


def table_digests(trials=TABLE_TRIALS):
    """sha256 of the default fig1 and fig2 ``.csv`` tables at each seed."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in TABLE_SEEDS:
            for figure, sweep, values in (
                ("fig1", "M", default_m_grid()),
                ("fig2", "L", default_l_grid()),
            ):
                out = os.path.join(tmp, f"{figure}-seed{seed}")
                run_sweep(ExperimentConfig(sweep=sweep, values=values, trials=trials, seed=seed, out=out))
                with open(out + ".csv", "rb") as fh:
                    digests[f"{figure}-seed{seed}.csv"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def transcript(args):
    """The stdout and exit code of ``dcsp trial`` with ``args``: the stdout
    with each ``ROUND_OFF`` value cut to "...", and those values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["trial", *args.split()])
    stdout = out.getvalue()
    return {"args": args, "stdout": ROUND_OFF.sub("...", stdout), "exit": code,
            "round_off": ROUND_OFF.findall(stdout)}


def ledger():
    """{"rows": {sweep: {function: stacked rows}}, "calls": {sweep:
    {function: calls}}} for each sweep of ``LEDGER_SWEEPS`` and function
    of ``LEDGER_CALLS``."""
    counts = {}

    def counting(function, name, position, ndim):
        def count(*args, **kwargs):
            stack = args[position]
            counts[name][0] += 1
            counts[name][1] += len(stack) if ndim == 0 or np.ndim(stack) > ndim else 1
            return function(*args, **kwargs)
        return count

    originals = [(module, name, getattr(module, name)) for module, name, _, _ in LEDGER_CALLS]
    try:
        for module, name, position, ndim in LEDGER_CALLS:
            setattr(module, name, counting(getattr(module, name), name, position, ndim))
        sweeps = {"rows": {}, "calls": {}}
        for sweep, options in LEDGER_SWEEPS.items():
            counts.update({name: [0, 0] for _, name, _, _ in LEDGER_CALLS})
            run_sweep(ExperimentConfig(N=200, K=10, g=3, trials=10, seed=1, jobs=1, **options))
            sweeps["calls"][sweep] = {name: c[0] for name, c in counts.items()}
            sweeps["rows"][sweep] = {name: c[1] for name, c in counts.items()}
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    return sweeps


def write_ledger(kernel):
    with open(LEDGER_PATH, "w") as fh:
        json.dump({"blas_kernel": kernel, **ledger()}, fh, indent=1)
        fh.write("\n")


def write_transcripts(kernel):
    with open(TRANSCRIPT_PATH, "w") as fh:
        json.dump({"blas_kernel": kernel, "transcripts": [transcript(args) for args in TRANSCRIPTS]},
                  fh, indent=1)
        fh.write("\n")


def _stored(fields):
    return fields if isinstance(fields, str) else digest(fields)


def main():
    kernel = blas_kernel()
    params = instance_params()
    lines = []
    examples, sizes = [], []
    for i, p in enumerate(params):
        runs = run_instance(p)
        if i < EXAMPLES:
            examples += [fields for fields, _, _ in runs]
            sizes += [candidate_sizes for _, candidate_sizes, _ in runs]
        # per run, the kernel-free digest, then the round-off part: the
        # candidate sizes' digest and the residual trace, which keeps 15
        # significant digits; the test compares it at 1e-12
        kernel_free = [_stored(fields) for fields, _, _ in runs]
        round_off = [None if s is None else [digest(s), [float(f"{x:.15g}") for x in trace]]
                     for _, s, trace in runs]
        lines.append(json.dumps([p, kernel_free, round_off], separators=(",", ":")))
    header = {
        "runs": list(RUNS),
        "table_trials": TABLE_TRIALS,
        "tables": table_digests(),
        "examples": examples,
        "round_off": {"blas_kernel": kernel, "examples": sizes},
    }
    with open(PATH, "w") as fh:
        fh.write('{"header":' + json.dumps(header, separators=(",", ":")) + ',\n"instances":[\n')
        fh.write(",\n".join(lines) + "\n]}\n")
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes, {len(lines)} instances, "
          f"round-off under {kernel})", file=sys.stderr)
    write_transcripts(kernel)
    print(f"wrote {TRANSCRIPT_PATH}", file=sys.stderr)
    write_ledger(kernel)
    print(f"wrote {LEDGER_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Sweep benchmark for dcsp: trials per second on the paper's Monte Carlo sweeps.

Usage, from the repository root::

    python3 perfbench/run.py --workload lsweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run drives the ``fig1``/``fig2`` subcommands of ``dcsp.cli.main`` with
``--out``, as a user would, on the sources under ``src/``.  Sweep ``r`` of a
run uses base seed ``seed * 1000 + r``.  Every table is checked (wire
exactness, identical rows at ``--jobs 1`` and ``--jobs 2``, and the rows of
a reference sweep recorded under ``perfbench/reference``); a table that fails
a check counts as a failed operation.

``--trace 0`` repeats the workload's sweep for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs each of a fixed number of sweeps
untraced, traced (see ``tracing.py``) and at the other job count, and
reports the per-layer metrics, the parallel efficiency and the tracing
overhead.  Times and rates are taken at a reference machine speed (see
``Speed``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a manifest of the environment and
the full layer table go to ``.perfbench_out/`` and standard error.
"""

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Pinned before numpy loads; pool workers and set-up interpreters inherit it.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FIXED = {"N": 200, "K": 10, "g": 3}
REFERENCE_SEED = 1  # the CLI's default seed
REFERENCE_TRIALS = 5
SETUP_SPAWNS = 7  # at least this many set-up samples per run
PROBE_SECONDS = 0.3  # per probe of a measurement's CPUs
PROBE_REFERENCE_RATE = 3000.0  # probe loops/s on one CPU taken as the reference speed
TRACE_SWEEPS = 3  # per pass of a --trace 1 run


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    sweep: str  # the swept variable, "L" or "M"
    grid: str  # start:stop:step, stop inclusive
    fixed: dict  # the other of L and M
    jobs: int
    trials: int  # per sweep point
    reference: str  # file under perfbench/, recorded at REFERENCE_SEED

    def argv(self, seed, jobs, trials, out):
        argv = [self.figure, f"--{self.sweep}", self.grid]
        for key, value in {**self.fixed, **FIXED}.items():
            argv += [f"--{key}", str(value)]
        argv += ["--trials", str(trials), "--seed", str(seed), "--jobs", str(jobs)]
        return argv + ["--out", str(out)]

    def grid_values(self):
        start, stop, step = (int(p) for p in self.grid.split(":"))
        return list(range(start, stop + 1, step))


# Why each workload exists is in BENCHMARK.json.  lsweep-j2 runs twice the
# trials per point of lsweep so that the pool's start-up and its tail of L=40
# stragglers stay a steady share of a sweep.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lsweep", "fig2", "L", "5:40:5", {"M": 50}, 1, 10, "reference/lsweep.csv"),
        Workload("msweep", "fig1", "M", "22:50:2", {"L": 6}, 1, 10, "reference/msweep.csv"),
        Workload("lsweep-j2", "fig2", "L", "5:40:5", {"M": 50}, 2, 20, "reference/lsweep.csv"),
    )
}


class ProgramMissing(Exception):
    """The checkout holds no dcsp sources to benchmark."""


# ---------------------------------------------------------------------------
# environment


def pin_environment():
    os.environ.update(PINNED_ENV)
    paths = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [os.environ.get("PYTHONPATH")] if p])
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_program():
    """Import dcsp from this checkout's ``src/``, never from site-packages."""
    if not (SRC / "dcsp" / "__init__.py").is_file():
        raise ProgramMissing(f"no dcsp package under {SRC}")
    dcsp = importlib.import_module("dcsp")
    importlib.import_module("dcsp.cli")
    if Path(dcsp.__file__).resolve().parent != (SRC / "dcsp").resolve():
        raise ProgramMissing(f"dcsp imported from {dcsp.__file__}, not from {SRC}")
    return dcsp


def manifest():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dcsp").glob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_dcsp_lines": src_lines,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import dcsp, dcsp.cli
dcsp.cli.build_parser().parse_args({argv!r})
dcsp.ExperimentConfig(sweep={sweep!r}, values=dcsp.cli.parse_values({grid!r}), trials={trials},
                      seed={seed}, jobs={jobs}, **{fixed!r})
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, seed):
    """Seconds to import dcsp and build the workload's config in a fresh interpreter."""
    code = SETUP_CODE.format(
        src=str(SRC), argv=workload.argv(seed, workload.jobs, workload.trials, OUT / "setup"),
        sweep=workload.sweep, grid=workload.grid, trials=workload.trials, seed=seed,
        jobs=workload.jobs, fixed={**workload.fixed, **FIXED},
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def probe_rate(seconds):
    """Loops per second of a fixed kernel with the sweep's mix of work.

    Draws, a correlation, a stable selection, a small QR solve and some
    Python containers.  It shares no code with dcsp, so only the machine's
    speed moves it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    y = rng.standard_normal(50)
    loops = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(10):
            A = rng.standard_normal((50, 200))
            c = np.abs(A.T @ y)
            idx = np.sort(np.argsort(-c, kind="stable")[:20])
            q, r = np.linalg.qr(A[:, idx])
            np.linalg.solve(r, q.T @ y)
            [{j: (j, k) for j in range(8)} for k in range(8)]
        loops += 10
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return loops / elapsed


@contextlib.contextmanager
def pinned(cpus):
    """Run the block on ``cpus`` only; processes it starts inherit the set."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def cpus_for(jobs):
    """The CPUs a measurement at ``jobs`` workers runs on: one, or all."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:1]) if jobs == 1 else set(cpus)


def probe_rates(cpus):
    """Probe rate of each of ``cpus``, all probed at once.

    Probing them together loads the machine as a sweep on those CPUs does.
    It forks between measurements, when the process runs no other thread.
    """
    first, *others = sorted(cpus)
    read_end, write_end = os.pipe()
    children = []
    for cpu in others:
        pid = os.fork()
        if pid == 0:  # the child probes one CPU and reports its rate
            try:
                os.sched_setaffinity(0, {cpu})
                os.write(write_end, f"{cpu} {probe_rate(PROBE_SECONDS)!r}\n".encode())
            finally:
                os._exit(0)
        children.append(pid)
    os.close(write_end)
    with pinned({first}):
        rates = {first: probe_rate(PROBE_SECONDS)}
    for pid in children:
        os.waitpid(pid, 0)
    with os.fdopen(read_end) as fh:
        for line in fh:
            cpu, rate = line.split()
            rates[int(cpu)] = float(rate)
    if len(rates) != len(cpus):
        raise RuntimeError(f"probed {sorted(rates)}, wanted {sorted(cpus)}")
    return rates


class Speed:
    """The machine's speed around each measurement, from probes run between them.

    On the 2-core VM the baseline was recorded on, each CPU's speed swings by
    up to 2.5x over tens of seconds, independently of the other CPU, so raw
    times taken minutes apart are not comparable.  A measurement runs pinned to the CPUs it needs, and those
    CPUs are probed together just before and just after it.  Its factor is
    the mean probe rate over ``PROBE_REFERENCE_RATE``: dividing a rate by
    it, or multiplying a time by it, gives the value at the reference speed.
    """

    def __init__(self):
        self.last = {}  # frozenset of cpus -> their mean rate at the latest probe
        self.rates = []  # (cpus, mean rate) in probe order
        for jobs in (1, 2):
            self.factor(cpus_for(jobs))

    def factor(self, cpus):
        """Factor of the measurement just taken on ``cpus``."""
        key = frozenset(cpus)
        rate = statistics.mean(probe_rates(cpus).values())
        before = self.last.get(key, rate)
        self.last[key] = rate
        self.rates.append((sorted(cpus), rate))
        return (before + rate) / 2 / PROBE_REFERENCE_RATE


# ---------------------------------------------------------------------------
# output tables and the correctness gate


def read_table(path):
    """(columns, rows) of a CSV written by ``write_tables``; rows map column -> cell."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    columns = next(reader)
    return columns, [dict(zip(columns, cells)) for cells in reader]


def check_wire_exact(columns, rows, sweep_rows=None):
    """Problems where mean messages differ from the closed form, if any.

    The table's cells are compared as written; ``sweep_rows`` (the values
    ``run_sweep`` returned) are compared as floats, exactly.
    """
    problems = []
    algorithms = [c[: -len("_mean_messages")] for c in columns if c.endswith("_mean_messages")]
    if not algorithms:
        problems.append("table has no *_mean_messages column")
    for row in rows:
        for a in algorithms:
            if row[f"{a}_mean_messages"] != row.get(f"{a}_analytic_messages"):
                problems.append(
                    f"{columns[0]}={row[columns[0]]} {a}: messages {row[f'{a}_mean_messages']}"
                    f" != analytic {row.get(f'{a}_analytic_messages')}"
                )
    for sweep_row in sweep_rows or ():
        for a, s in sweep_row.stats.items():
            if s.mean_messages != s.mean_analytic:
                problems.append(
                    f"value={sweep_row.value} {a}: mean_messages {s.mean_messages!r}"
                    f" != mean_analytic {s.mean_analytic!r}"
                )
    return problems


def check_shape(workload, trials, columns, rows):
    """Problems if the table does not cover the grid at ``trials`` per point."""
    problems = []
    if columns[0] != workload.sweep:
        problems.append(f"first column is {columns[0]!r}, expected {workload.sweep!r}")
        return problems
    values = [int(r[workload.sweep]) for r in rows]
    if values != workload.grid_values():
        problems.append(f"swept values {values} != grid {workload.grid_values()}")
    if any(int(r["trials"]) != trials for r in rows):
        problems.append(f"a row ran other than {trials} trials")
    return problems


def check_same_rows(expected, actual, what):
    """Problems where ``actual`` differs from ``expected`` on ``expected``'s columns."""
    exp_columns, exp_rows = expected
    act_columns, act_rows = actual
    missing = [c for c in exp_columns if c not in act_columns]
    if missing:
        return [f"{what}: columns {missing} missing"]
    if len(exp_rows) != len(act_rows):
        return [f"{what}: {len(act_rows)} rows, expected {len(exp_rows)}"]
    problems = []
    for exp, act in zip(exp_rows, act_rows):
        for c in exp_columns:
            if exp[c] != act[c]:
                problems.append(f"{what}: {exp_columns[0]}={exp[exp_columns[0]]} {c} {act[c]} != {exp[c]}")
    return problems


# ---------------------------------------------------------------------------
# running sweeps


@contextlib.contextmanager
def tap_rows(experiments):
    """Collect what ``experiments.run_sweep`` returns while the block runs."""
    captured = []
    original = getattr(experiments, "run_sweep", None)
    if original is None:
        yield captured
        return

    def run_sweep(*args, **kwargs):
        rows = original(*args, **kwargs)
        captured.append(rows)
        return rows

    experiments.run_sweep = run_sweep
    try:
        yield captured
    finally:
        experiments.run_sweep = original


@dataclasses.dataclass
class Sweep:
    seed: int
    jobs: int
    wall_s: float
    trials: int  # completed, summed from the table
    table: tuple  # (columns, rows)
    ok: bool
    factor: float  # machine speed over the sweep, see Speed

    @property
    def trials_per_s(self):
        """Trials per second at the reference speed."""
        return self.trials / self.wall_s / self.factor


class Runner:
    """Runs sweeps of one workload and keeps the operation tally."""

    def __init__(self, workload, dcsp):
        self.workload = workload
        self.dcsp = dcsp
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.speed = Speed()

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems)
        for p in problems:
            print(f"perfbench: GATE FAILED: {p}", file=sys.stderr)

    def sweep(self, seed, jobs, trials=None, tracer=None):
        """One CLI sweep; its table is checked before it counts as done."""
        w = self.workload
        trials = trials or w.trials
        out = OUT / f"{w.name}-seed{seed}-jobs{jobs}-trials{trials}"
        argv = w.argv(seed, jobs, trials, out)
        main = self.dcsp.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        self.attempted += 1
        sink = io.StringIO()
        try:
            cpus = cpus_for(jobs)
            with tap_rows(self.dcsp.experiments) as captured, contextlib.redirect_stdout(sink):
                with pinned(cpus):
                    t0 = time.perf_counter()
                    status = main(argv)
                    wall = time.perf_counter() - t0
            factor = self.speed.factor(cpus)
            if status != 0:
                raise RuntimeError(f"dcsp {' '.join(argv)} exited {status}")
            table = read_table(f"{out}.csv")
        except Exception:  # a crashed sweep is a failed operation, not a crashed benchmark
            self.fail([f"sweep seed={seed} jobs={jobs} raised:\n{traceback.format_exc()}"])
            return None
        problems = check_shape(w, trials, *table)
        problems += check_wire_exact(*table, captured[-1] if captured else None)
        if problems:
            self.fail(problems)
        done = sum(int(r["trials"]) for r in table[1])
        return Sweep(seed, jobs, wall, done, table, not problems, factor)

    def compare(self, expected, actual, what):
        """Count ``actual`` failed if its rows differ from the ``expected`` table."""
        if expected is None or actual is None or not actual.ok:
            return
        problems = check_same_rows(expected, actual.table, what)
        if problems:
            actual.ok = False
            self.fail(problems)

    def reference_check(self, jobs):
        """The reference sweep at the default seed must give the recorded rows."""
        actual = self.sweep(REFERENCE_SEED, jobs, REFERENCE_TRIALS)
        if actual is None:
            return
        expected = read_table(HERE / self.workload.reference)
        self.compare(expected, actual, f"reference {self.workload.reference}")


def rep_seed(seed, r):
    return seed * 1000 + r


def other_jobs(jobs):
    return 2 if jobs == 1 else 1


def median_tps(sweeps):
    return statistics.median(s.trials_per_s for s in sweeps if s is not None)


def run_end_to_end(runner, seed, seconds):
    """Repeat the workload's sweep, each followed by a set-up sample, for ``seconds``."""
    w = runner.workload
    setup_seconds(w, seed)  # warms the page and bytecode caches; not counted
    sweeps, setups = [], []

    def sample_setup():
        cpus = cpus_for(1)  # one interpreter: one CPU, in every workload
        with pinned(cpus):
            raw = setup_seconds(w, seed)
        setups.append((raw, runner.speed.factor(cpus)))

    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        s = runner.sweep(rep_seed(seed, r), w.jobs)
        r += 1
        if s is not None:
            sweeps.append(s)
        sample_setup()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:  # the next round would end late
            break
    while len(setups) < SETUP_SPAWNS:
        sample_setup()
    if not sweeps:
        raise RuntimeError("no sweep completed")
    # the same inputs at the other job count must give the same rows
    runner.compare(sweeps[0].table, runner.sweep(sweeps[0].seed, other_jobs(w.jobs)), "jobs 1 vs 2")
    runner.reference_check(w.jobs)
    metrics = {
        "trials_per_s": (median_tps(sweeps), "1/s"),
        "setup_s": (statistics.median(raw * f for raw, f in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "raw_trials_per_s": statistics.median(s.trials / s.wall_s for s in sweeps),
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "setup_samples": setups,
        "sweeps": [dataclasses.asdict(s) | {"table": None} for s in sweeps],
        "probe_rates": runner.speed.rates,
    }
    return metrics, detail


def run_traced(runner, seed):
    import tracing

    w = runner.workload
    jobs2 = other_jobs(w.jobs)
    tracer = tracing.Tracer()
    plain, traced = {w.jobs: [], jobs2: []}, []
    # Interleaved per seed, so that the ratios below compare neighbours in time.
    for r in range(TRACE_SWEEPS):
        plain[w.jobs].append(runner.sweep(rep_seed(seed, r), w.jobs))
        with tracing.traced(tracer):
            traced.append(runner.sweep(rep_seed(seed, r), w.jobs, tracer=tracer))
        plain[jobs2].append(runner.sweep(rep_seed(seed, r), jobs2))
    if any(s is None for s in traced + plain[1] + plain[2]):
        raise RuntimeError("a traced-run sweep did not complete")
    for a, b, t in zip(plain[w.jobs], plain[jobs2], traced):
        runner.compare(a.table, b, "jobs 1 vs 2")
        runner.compare(a.table, t, "traced vs untraced")
    runner.reference_check(w.jobs)

    trials = traced[0].trials
    factor = statistics.mean(s.factor for s in traced)
    metrics = {  # times at the reference speed, like the end-to-end metrics
        name: (value * factor if unit in ("s", "ms") else value, unit)
        for name, (value, unit) in tracing.summarize(tracer, len(traced), trials).items()
    }
    redraws = sum(
        int(row[c]) for s in traced for row in s.table[1] for c in s.table[0] if c.endswith("_aborted")
    )

    def raw(s):
        return s.trials / s.wall_s

    # Raw rates: the probes of a --jobs 2 sweep load both CPUs, so its
    # reference-speed rate would hide what running two workers costs.
    efficiency = statistics.median(raw(b) / (2 * raw(a)) for a, b in zip(plain[1], plain[2]))
    overhead = statistics.median(t.trials_per_s / a.trials_per_s for a, t in zip(plain[w.jobs], traced))
    metrics.update({
        "experiments.redraws": (redraws / len(traced), "count"),
        "experiments.trials": (trials, "count"),
        "experiments.parallel_efficiency": (efficiency, "ratio"),
        "experiments.trials_per_s_j1": (statistics.median(map(raw, plain[1])), "1/s"),
        "experiments.trials_per_s_j2": (statistics.median(map(raw, plain[2])), "1/s"),
        "trace.untraced_trials_per_s": (median_tps(plain[w.jobs]), "1/s"),
        "trace.traced_trials_per_s": (median_tps(traced), "1/s"),
        "trace.throughput_ratio": (overhead, "ratio"),
    })
    detail = {
        "sweeps": {name: [dataclasses.asdict(s) | {"table": None} for s in group]
                   for name, group in (("untraced", plain[w.jobs]), ("other_jobs", plain[jobs2]),
                                       ("traced", traced))},
        "probe_rates": runner.speed.rates,
        "layer_table": {k: {"calls": c, "self_s": s, "total_s": t}
                        for k, (c, s, t) in tracing.layer_table(tracer).items()},
    }
    return metrics, detail


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the result object the last line prints."""
    dcsp = import_program()
    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, dcsp)
    if trace:
        metrics, detail = run_traced(runner, seed)
    else:
        metrics, detail = run_end_to_end(runner, seed, seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "manifest": manifest(), "result": result, "detail": detail,
        "problems": runner.problems,
    }
    path = OUT / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"perfbench: manifest {json.dumps(record['manifest'])}", file=sys.stderr)
    print(f"perfbench: wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return result, record


# ---------------------------------------------------------------------------
# all workloads from one command


def run_all(seed, seconds, out):
    """Every workload untraced and traced, each in a fresh interpreter."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        summary["workloads"][name] = entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exited {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
            entry["trace" if trace else "end_to_end"] = record
            summary["manifest"] = record["manifest"]
            all_correct &= result["correct"]
            print(f"{name} (trace={trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    Path(out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT / "summary.json"), help="summary file of --workload all")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    pin_environment()
    try:
        if args.workload == "all":
            OUT.mkdir(exist_ok=True)
            return run_all(args.seed, args.seconds, args.out)
        result, _ = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

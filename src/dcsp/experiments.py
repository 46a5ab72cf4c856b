"""Monte Carlo sweeps over measurement count and network scale.

The harness reproduces the standard views of the recovery problem with
one call, ``run_sweep``: success frequency vs measurements per node (an M
sweep, figure fig1) and, from one network-scale sweep (an L sweep, figure
fig2), transmitted messages and executed iterations vs network scale: the
``*_mean_messages`` and ``*_mean_iterations`` columns of the same table.
With ``out`` set, results are emitted as CSV plus a gnuplot-style ``.dat``
twin, each naming its figure; plotting is left to external tools.  One
trial needs no sweep: ``run_batch(algorithms, [generate(config)], topology)``.

Reproducibility: the seed of trial ``i`` at sweep value ``v`` is
``base_seed XOR splitmix64-chain(v, i, attempt)``, so any point can be
re-run in isolation.  Each trial draws one instance and runs every
algorithm on it.  If any algorithm hits a rank-deficient projection, the
trial is redrawn for all algorithms together with the attempt counter
bumped, so the algorithms of a trial always share one draw and report the
same count in their ``aborted`` columns; a trial with no full-rank draw
in ``_MAX_REDRAWS + 1`` attempts stops the sweep with an error naming it.

Trial batching: a point runs its trials in the fewest batches of
consecutive trials whose dictionaries fit BATCH_BYTES (a single trial
always fits), split as evenly as possible.  A batch is drawn in one
:func:`~dcsp.problems.generate_batch` call into one (B, L, M, N) stack,
and one :func:`~dcsp.pursuit.run_batch` call, handed the stack to read in
place and the point's ring topology, runs every algorithm on it, so that
each round's numpy calls serve ssp and dcsp together.  A batch that hits a
rank-deficient projection runs again one trial at a time through the
redraw loop, so every record, seed and ``aborted`` count equals
one-at-a-time running.  Workers return per-batch records that are merged
in trial order, so parallel and serial runs produce identical tables.

Only a pooled sweep imports ``concurrent.futures.ProcessPoolExecutor``, so
importing this module, and any serial sweep, never loads
``concurrent.futures`` or ``multiprocessing``.
"""

import os
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostParams, cost_table1
from .linalg import RankDeficientError, _integer
from .network import ring_topology
from .problems import ProblemConfig, generate_batch, success
from .pursuit import SIMULATED_ALGORITHMS, _check_algorithms, run_batch

_MASK64 = (1 << 64) - 1
_MAX_REDRAWS = 5
# dictionary bytes per trial batch (module docstring): 10 draws at L=6,
# M=50, N=200, so each point of the default fig1 sweep at 10 trials runs
# as one batch.  Larger batches trade peak RSS for fewer pursuit calls
BATCH_BYTES = 4_800_000


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(base_seed, sweep_value, trial_index, attempt=0):
    """Deterministic per-trial seed: base_seed XOR a splitmix64 chain."""
    h = _splitmix64(sweep_value & _MASK64)
    h = _splitmix64(h ^ (trial_index & _MASK64))
    h = _splitmix64(h ^ (attempt & _MASK64))
    return (base_seed ^ h) & _MASK64


Figure = namedtuple("Figure", "name about fixed grid trials references")
# each sweep's figure, keyed by the swept dimension: its command and help,
# the dimension held fixed, the default grid and trials (None takes
# ExperimentConfig's), and the analytic-only curves that its table adds
FIGURES = {
    "M": Figure("fig1", "success frequency vs measurements per node", "L",
                tuple(range(22, 51, 2)), None, ()),
    "L": Figure("fig2", "transmitted messages and iterations vs network scale", "M",
                tuple(range(5, 41, 5)), 100, ("jsp_jomp", "somp", "dcomp")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: which variable moves, what stays fixed, how many trials.

    An M sweep needs g <= L; an L sweep clips g to each point's L."""

    sweep: str  # a key of FIGURES
    values: tuple
    N: int = 200
    K: int = 10
    M: int = 50  # fixed measurement count for L sweeps
    L: int = 6  # fixed node count for M sweeps
    g: int = 3
    trials: int = 500
    seed: int = 1
    algorithms: tuple = SIMULATED_ALGORITHMS
    jobs: int = 1
    out: str = None

    def __post_init__(self):
        if self.sweep not in tuple(FIGURES):  # by ==: an unhashable sweep is no TypeError
            raise ValueError(f"sweep must be {' or '.join(map(repr, FIGURES))}")
        least = dict(g=2, trials=1, jobs=1)
        for name in ("N", "K", "M", "L", "g", "trials", "seed", "jobs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least.get(name)))
        for name in ("values", "algorithms"):
            items = getattr(self, name)
            try:
                if isinstance(items, str):  # tuple() would split it into letters
                    raise TypeError
                object.__setattr__(self, name, tuple(items))
            except TypeError:  # not iterable, a 0-d array among them
                raise ValueError(f"need a sequence, got {name}={items!r}") from None
        values = tuple(_integer(self.sweep, v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("sweep range is empty")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"values={values} names {repeated[0]} twice")
        _check_algorithms(self.algorithms)
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"need a path, got out={self.out!r}")
        # "/tmp/" would write /tmp/.csv, "" nothing, a directory's stem its tables beside it
        if self.out is not None and (not os.path.basename(self.out) or os.path.isdir(self.out)):
            raise ValueError(f"out={self.out}: need a file name stem, not a directory")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(
                f"out={self.out}: directory {os.path.dirname(self.out)} does not exist"
            )
        for value in self.values:
            try:  # ProblemConfig holds the dimension and seed rules
                self.point(value)
            except ValueError as err:
                raise ValueError(f"{self.sweep}={value}: {err}") from None
        if self.sweep == "M":  # an L sweep clips g to each point's L
            _integer("g", self.g, 2, ("L", self.L))

    def point(self, value):
        """One sweep point: its :class:`ProblemConfig`, with the base seed,
        which each draw replaces, and its dcsp ``g``, clipped to its L."""
        dims = dict(N=self.N, M=self.M, K=self.K, L=self.L)
        dims[self.sweep] = value
        problem = ProblemConfig(**dims, seed=self.seed)
        return problem, min(self.g, problem.L)


@dataclass
class AlgorithmStats:
    success_rate: float
    mean_iterations: float
    mean_messages: float
    mean_analytic: float
    aborted: int


@dataclass
class SweepRow:
    """Aggregates of one sweep point, keyed by algorithm name."""

    value: int
    trials: int
    stats: dict
    references: dict = field(default_factory=dict)  # analytic-only curves


def _attempt(config: ExperimentConfig, value, trials, topology, attempt):
    """Draw ``trials`` of one point at ``attempt`` into one stack and run
    the algorithms on it, dcsp on ``topology``: {algorithm: (success,
    iterations, messages, redraws)} per trial, or RankDeficientError."""
    problem, _ = config.point(value)
    # every batch takes a whole budget's block and fills what it needs, so
    # that malloc reuses one freed block for all of them: blocks of mixed
    # sizes can leave a freed one resident beside a new one (README)
    size = len(trials) * problem.L * problem.M * problem.N
    stack = np.empty(max(size, BATCH_BYTES // 8))[:size].reshape(
        len(trials), problem.L, problem.M, problem.N)
    draws = generate_batch([replace(problem, seed=derive_trial_seed(config.seed, value, trial, attempt))
                            for trial in trials], out=stack)
    runs = run_batch(config.algorithms, draws, topology, dictionaries=stack)
    return [{a: (bool(success(runs[a][i].support, draw)), runs[a][i].iterations,
                 runs[a][i].wire.total, attempt) for a in runs}
            for i, draw in enumerate(draws)]


def _run_trials(config: ExperimentConfig, value, trials, topology):
    """Records of consecutive ``trials`` of one point, run as one batch or,
    if it hits a rank-deficient projection, one at a time through the
    redraw loop.  A trial whose ``_MAX_REDRAWS + 1`` draws are all rank
    deficient raises RankDeficientError naming the point, trial and seeds."""
    if len(trials) > 1:
        try:
            return _attempt(config, value, trials, topology, 0)
        except RankDeficientError:
            pass
    records = []
    for trial in trials:
        for attempt in range(_MAX_REDRAWS + 1):
            try:
                records += _attempt(config, value, (trial,), topology, attempt)
                break
            except RankDeficientError as err:
                last_error = err
        else:
            seeds = [derive_trial_seed(config.seed, value, trial, a) for a in range(attempt + 1)]
            raise RankDeficientError(
                f"{config.sweep}={value} trial {trial}: all {len(seeds)} draws were "
                f"rank deficient (seeds {seeds})"
            ) from last_error
    return records


def _batches(trials, problem):
    """Trials ``0..trials-1`` of one point in the fewest consecutive ranges
    whose dictionaries fit BATCH_BYTES, sizes differing by at most one."""
    fit = max(1, BATCH_BYTES // (8 * problem.L * problem.M * problem.N))
    count = -(-trials // fit)
    return [range(trials * i // count, trials * (i + 1) // count) for i in range(count)]


def run_sweep(config: ExperimentConfig):
    """Execute the sweep and aggregate one :class:`SweepRow` per point;
    with ``config.out`` set, also write the rows' tables."""
    tasks = []
    for value in config.values:
        problem, g = config.point(value)
        topology = ring_topology(problem.L, g)  # built once per point, shared by its trials
        tasks += [(config, value, trials, topology) for trials in _batches(config.trials, problem)]
    # whatever the start method, a worker past the batch count finds no task and
    # one past the CPUs this process may run on only contends, so start neither
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.jobs, len(tasks), cpus or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_trials, *zip(*tasks), chunksize=8))
    else:
        batches = list(map(_run_trials, *zip(*tasks)))
    records = [record for batch in batches for record in batch]

    rows = []
    for i, value in enumerate(config.values):
        point = records[i * config.trials : (i + 1) * config.trials]
        problem, g = config.point(value)
        costs = CostParams(N=problem.N, K=problem.K, L=problem.L, g=g)
        stats = {}
        for algorithm in config.algorithms:
            oks, iters, wires, redraws = zip(*(rec[algorithm] for rec in point))
            cost = {T: cost_table1(algorithm, replace(costs, T=T)) for T in set(iters)}
            analytic = [cost[T] for T in iters]
            stats[algorithm] = AlgorithmStats(
                success_rate=float(np.mean(oks)),
                mean_iterations=float(np.mean(iters)),
                mean_messages=float(np.mean(wires)),
                mean_analytic=float(np.mean(analytic)),
                aborted=int(sum(redraws)),
            )
        # dcomp, never simulated, adds one index per iteration: T = K
        references = {name: cost_table1(name, replace(costs, T=problem.K))
                      for name in FIGURES[config.sweep].references}
        rows.append(SweepRow(value, config.trials, stats, references))
    if config.out:
        write_tables(rows, config)
    return rows


# ---------------------------------------------------------------------------
# output tables


def _cells(config: ExperimentConfig, row: SweepRow):
    """One table row as (column, cell) pairs."""
    cells = [(config.sweep, str(row.value)), ("trials", str(row.trials))]
    for a in config.algorithms:
        s = row.stats[a]
        cells += [
            (f"{a}_success", f"{s.success_rate:.6g}"),
            (f"{a}_mean_iterations", f"{s.mean_iterations:.6g}"),
            (f"{a}_mean_messages", f"{s.mean_messages:.6g}"),
            (f"{a}_analytic_messages", f"{s.mean_analytic:.6g}"),
            (f"{a}_aborted", str(s.aborted)),
        ]
    for ref, cost in row.references.items():
        cells.append((f"{ref}_analytic_messages", str(cost)))
    return cells


def _header_lines(config: ExperimentConfig):
    figure = FIGURES[config.sweep]
    fixed = f"{figure.fixed}={getattr(config, figure.fixed)}"
    lines = [
        f"figure: {figure.name}",
        f"sweep: {config.sweep} over {list(config.values)}",
        f"fixed: N={config.N} K={config.K} g={config.g} {fixed}",
        f"trials-per-point: {config.trials}  base-seed: {config.seed}",
        "success = frequency of exact support-set recovery; messages in scalars",
        "analytic_messages = per-trial closed form at that trial's iteration count",
    ]
    if figure.references:
        lines.append(
            f"reference curves assume T_dcomp = K = {config.K}; jsp_jomp/somp are T-free"
        )
    return lines


def write_tables(rows, config: ExperimentConfig):
    """Write ``<out>.csv`` and a gnuplot-style ``<out>.dat``, each naming
    the sweep's figure in :data:`FIGURES`."""
    table = [_cells(config, row) for row in rows]
    header = _header_lines(config)
    # the .dat twin separates with spaces and comments out the column names
    for suffix, sep, mark in ((".csv", ",", ""), (".dat", " ", "# ")):
        with open(f"{config.out}{suffix}", "w") as fh:
            fh.writelines(f"# {line}\n" for line in header)
            fh.write(mark + sep.join(column for column, _ in table[0]) + "\n")
            fh.writelines(sep.join(cell for _, cell in cells) + "\n" for cells in table)

import concurrent.futures
import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsp import experiments, pursuit
from dcsp.experiments import FIGURES, ExperimentConfig, derive_trial_seed, run_sweep
from dcsp.linalg import RankDeficientError
from dcsp.problems import ProblemConfig


def small_m_config(**kw):
    base = dict(
        sweep="M", values=(16, 20), N=40, K=3, L=4, g=3, trials=6, seed=11
    )
    base.update(kw)
    return ExperimentConfig(**base)


def small_l_config(**kw):
    base = dict(
        sweep="L", values=(2, 4), N=40, K=3, M=20, g=3, trials=5, seed=7
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(5, 26, 3) == derive_trial_seed(5, 26, 3)

    def test_sensitive_to_all_inputs(self):
        base = derive_trial_seed(5, 26, 3)
        assert derive_trial_seed(6, 26, 3) != base
        assert derive_trial_seed(5, 27, 3) != base
        assert derive_trial_seed(5, 26, 4) != base
        assert derive_trial_seed(5, 26, 3, attempt=1) != base

    def test_fits_in_64_bits(self):
        assert 0 <= derive_trial_seed(2**63, 40, 499) < 2**64

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_base_seed_outside_64_bits_rejected(self, seed):
        # trial seeds keep the low 64 bits: 2**64 + 1 would draw seed 1's rows
        message = f"need 0 <= seed < 2**64, got seed={seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_m_config(seed=seed)

    def test_largest_base_seed_runs(self):
        rows = run_sweep(small_m_config(seed=2**64 - 1, trials=1))
        assert rows[0].trials == 1


class TestConfigValidation:
    def test_bad_sweep(self):
        # an unhashable sweep is rejected like any other, not a TypeError
        for sweep in ("K", ["M"], None, "fig1", "m"):
            with pytest.raises(ValueError, match="sweep must be 'M' or 'L'"):
                ExperimentConfig(sweep=sweep, values=(30,))

    def test_empty_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep="M", values=())
        # a value that is no sequence at all names the field
        for values in (22, None):
            with pytest.raises(ValueError, match=f"got values={values}"):
                ExperimentConfig(sweep="M", values=values)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep="M", values=(30,), algorithms=("somp",))
        # a plain string is one value, not a sequence of letters
        with pytest.raises(ValueError, match="got algorithms='ssp'"):
            ExperimentConfig(sweep="M", values=(30,), algorithms="ssp")
        for algorithms in (None, 5, ("ssp", ["x"])):  # ["x"] cannot go into a set
            with pytest.raises(ValueError, match=re.escape(f"algorithms={algorithms}")):
                ExperimentConfig(sweep="M", values=(30,), algorithms=algorithms)

    def test_m_below_2k_rejected(self):
        with pytest.raises(ValueError, match="M=15: need M >= 2K"):
            ExperimentConfig(sweep="M", values=(30, 15), N=50, K=10, L=4)
        with pytest.raises(ValueError, match="L=4: need M >= 2K, got M=15"):
            ExperimentConfig(sweep="L", values=(4,), N=50, K=10, M=15)
        ExperimentConfig(sweep="M", values=(20,), N=50, K=10, L=4)  # M = 2K runs

    def test_g_below_2_rejected(self):
        with pytest.raises(ValueError, match="need g >= 2, got g=1"):
            ExperimentConfig(sweep="L", values=(5,), g=1)
        ExperimentConfig(sweep="L", values=(5,), g=2)
        # trials and jobs share the bound check, which names the value
        for name in ("trials", "jobs"):
            with pytest.raises(ValueError, match=f"need {name} >= 1, got {name}=0"):
                ExperimentConfig(sweep="L", values=(5,), **{name: 0})

    def test_l_below_2_rejected(self):
        with pytest.raises(ValueError, match="L=1: need L >= 2, got L=1"):
            ExperimentConfig(sweep="L", values=(5, 1))
        with pytest.raises(ValueError, match="M=30: need L >= 2, got L=1"):
            ExperimentConfig(sweep="M", values=(30,), L=1)
        ExperimentConfig(sweep="L", values=(2,))

    def test_m_sweep_g_above_l_rejected(self):
        with pytest.raises(ValueError, match="need g <= L, got g=10 and L=6"):
            ExperimentConfig(sweep="M", values=(30,), g=10, L=6)
        ExperimentConfig(sweep="M", values=(30,), g=6, L=6)
        # an L sweep clips g to each point's L
        config = ExperimentConfig(sweep="L", values=(2, 5), g=3)
        assert [config.point(v)[1] for v in config.values] == [2, 3]

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ValueError, match=r"got algorithms=\(\)"):
            ExperimentConfig(sweep="M", values=(30,), algorithms=())

    def test_missing_out_directory_rejected(self, tmp_path):
        missing = tmp_path / "missing" / "x"
        message = f"directory {tmp_path / 'missing'} does not exist"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(sweep="M", values=(30,), out=str(missing))
        ExperimentConfig(sweep="M", values=(30,), out=str(tmp_path / "x"))
        ExperimentConfig(sweep="M", values=(30,), out="x")  # the working directory
        with pytest.raises(ValueError, match="need a path, got out=5"):
            ExperimentConfig(sweep="M", values=(30,), out=5)

    def test_out_without_a_file_name_rejected(self, tmp_path):
        # "dir/" wrote the hidden dir/.csv, "" no table at all, and a
        # directory's stem put the tables beside it
        for out in (f"{tmp_path}/", str(tmp_path), tmp_path, ""):
            with pytest.raises(ValueError, match="need a file name stem, not a directory"):
                ExperimentConfig(sweep="M", values=(30,), out=out)
        ExperimentConfig(sweep="M", values=(30,), out=tmp_path / "fig1")

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ValueError, match=r"algorithms=\('ssp', 'ssp'\) names one twice"):
            ExperimentConfig(sweep="M", values=(30,), algorithms=("ssp", "ssp"))
        ExperimentConfig(sweep="M", values=(30,), algorithms=("dcsp", "ssp"))

    def test_k_below_1_rejected(self):
        with pytest.raises(ValueError, match="need K >= 1, got K=0"):
            ExperimentConfig(sweep="M", values=(30,), K=0)
        ExperimentConfig(sweep="M", values=(30,), K=1)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="need K <= N, got K=10 and N=8"):
            ExperimentConfig(sweep="L", values=(5,), N=8, K=10, M=20)
        ExperimentConfig(sweep="L", values=(5,), N=10, K=10, M=20)  # K = N runs

    @pytest.mark.parametrize("field, value", [
        ("N", 60.0), ("K", 2.5), ("M", 30.5), ("L", 4.0), ("g", 2.5),
        ("trials", 1.5), ("seed", 1.5), ("jobs", 1.5), ("seed", "7"),
    ])
    def test_non_integer_rejected(self, field, value):
        kw = dict(sweep="M", values=(30,), N=60, K=3, L=4, trials=3)
        kw[field] = value
        message = f"need an integer {field}, got {field}={value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**kw)

    def test_non_integer_sweep_value_rejected(self):
        with pytest.raises(ValueError, match=re.escape("need an integer M, got M=30.0")):
            ExperimentConfig(sweep="M", values=(26, 30.0), N=60, K=3)
        with pytest.raises(ValueError, match=re.escape("need an integer L, got L=2.5")):
            ExperimentConfig(sweep="L", values=(2.5,), N=60, K=3, M=20)

    def test_integer_like_values_stored_as_int(self):
        config = ExperimentConfig(sweep="M", values=(np.int64(30),), N=np.int64(60), K=3)
        assert config.values == (30,) and type(config.values[0]) is int
        assert type(config.N) is int

    def test_repeated_value_rejected(self):
        with pytest.raises(ValueError, match=re.escape("values=(20, 26, 20) names 20 twice")):
            ExperimentConfig(sweep="M", values=(20, 26, 20), N=40, K=3)
        ExperimentConfig(sweep="M", values=(20, 26), N=40, K=3)

    def test_default_grids(self):
        assert FIGURES["M"].grid[0] == 22 and FIGURES["M"].grid[-1] == 50
        assert FIGURES["L"].grid == (5, 10, 15, 20, 25, 30, 35, 40)


class TestRunSweep:
    def test_rows_shape_and_bounds(self):
        rows = run_sweep(small_m_config())
        assert [r.value for r in rows] == [16, 20]
        for row in rows:
            assert row.trials == 6
            for name in ("ssp", "dcsp"):
                s = row.stats[name]
                assert 0.0 <= s.success_rate <= 1.0
                assert s.mean_iterations >= 1.0
                assert s.mean_messages > 0
                assert s.aborted == 0

    # each example starts a process pool, so keep them few
    @given(
        st.sampled_from("LM"),
        st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=4, deadline=None)
    def test_parallel_matches_serial(self, sweep, values, trials, seed):
        # L sweeps take the values as node counts, M sweeps as M - 2K
        config = small_l_config if sweep == "L" else small_m_config
        kw = dict(values=values if sweep == "L" else [6 + v for v in values],
                  trials=trials, seed=seed)
        serial = run_sweep(config(**kw))
        parallel = run_sweep(config(jobs=2, **kw))
        assert len(serial) == len(parallel) == len(values)
        for rs, rp in zip(serial, parallel):
            assert rs.value == rp.value and rs.trials == rp.trials
            assert rs.stats == rp.stats
            assert rs.references == rp.references

    def test_parallel_sweep_starts_the_patched_pool(self, monkeypatch):
        # hooks that swap concurrent.futures' pool class must see every jobs > 1 sweep
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_sweep(small_l_config(trials=2, jobs=2))
        assert started == [{"max_workers": 2}]
        run_sweep(small_l_config(trials=1))
        assert len(started) == 1  # a jobs=1 sweep starts no pool

    def test_pool_starts_no_more_workers_than_batches(self, monkeypatch):
        # a recording stand-in that starts no process and maps in order
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cpus = [64]  # the CPUs this process may run on
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus[0])),
                            raising=False)
        serial = run_sweep(small_l_config(values=(2, 3, 4), trials=2))
        assert run_sweep(small_l_config(values=(2, 3, 4), trials=2, jobs=64)) == serial
        assert started == [3]  # one batch per point
        one = run_sweep(small_l_config(values=(2,), trials=2, jobs=64))
        assert started == [3] and one == serial[:1]  # one batch runs serially
        cpus[0] = 2  # fewer CPUs than batches
        assert run_sweep(small_l_config(values=(2, 3, 4), trials=2, jobs=64)) == serial
        assert started == [3, 2]
        cpus[0] = 1  # one CPU runs serially
        assert run_sweep(small_l_config(values=(2, 3, 4), trials=2, jobs=64)) == serial
        assert started == [3, 2]

    def test_wire_exactness_carries_into_means(self):
        # analytic column averages the closed form at each trial's own
        # iteration count, which the counter matches exactly
        for row in run_sweep(small_l_config()):
            for s in row.stats.values():
                assert s.mean_messages == s.mean_analytic

    def test_single_trial_frequency_is_zero_or_one(self):
        rows = run_sweep(small_m_config(trials=1, values=(20,)))
        for s in rows[0].stats.values():
            assert s.success_rate in (0.0, 1.0)

    def test_minimal_network_boundary(self):
        rows = run_sweep(small_l_config(values=(2,), trials=2))
        for s in rows[0].stats.values():
            assert s.mean_messages > 0

    @pytest.mark.parametrize("make, figure, references", [
        (small_m_config, "fig1", []), (small_l_config, "fig2", ["jsp_jomp", "somp", "dcomp"]),
    ], ids=("fig1", "fig2"))
    def test_writes_tables_named_by_the_sweep(self, tmp_path, make, figure, references):
        config = make(out=str(tmp_path / "table"))
        rows = run_sweep(config)
        csv_lines, dat_lines = ((tmp_path / f"table{suffix}").read_text().splitlines()
                                for suffix in (".csv", ".dat"))
        assert csv_lines[0] == dat_lines[0] == f"# figure: {figure}"
        columns, *data = [line.split(",") for line in csv_lines if not line.startswith("#")]
        assert [line.split() for line in dat_lines if not line.startswith("#")] == data
        assert columns[0] == config.sweep and len(data) == len(rows)
        for cells, row in zip(data, rows):
            cell = dict(zip(columns, cells))
            assert (cell[config.sweep], cell["trials"]) == (str(row.value), str(row.trials))
            for a, s in row.stats.items():
                assert cell[f"{a}_success"] == f"{s.success_rate:.6g}"
                assert cell[f"{a}_mean_iterations"] == f"{s.mean_iterations:.6g}"
                assert cell[f"{a}_mean_messages"] == f"{s.mean_messages:.6g}"
                assert cell[f"{a}_aborted"] == str(s.aborted)
            assert list(row.references) == references
            for name, cost in row.references.items():
                assert cell[f"{name}_analytic_messages"] == str(cost)

    def test_without_out_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_sweep(small_l_config(trials=1))
        assert list(tmp_path.iterdir()) == []

    def test_l_sweep_clip_makes_dcsp_ssp(self):
        # where L <= g, point() clips g to L: each neighborhood is the whole
        # network, so dcsp(g=L) recovers and stops as ssp does
        rows = run_sweep(ExperimentConfig(sweep="L", values=(2, 3, 4), N=40, K=3, M=12, g=3,
                                          trials=20, seed=5))
        for row in rows[:2]:  # L=2 and L=3
            ssp, dcsp = row.stats["ssp"], row.stats["dcsp"]
            assert (dcsp.success_rate, dcsp.mean_iterations) == (
                ssp.success_rate, ssp.mean_iterations)


@st.composite
def sweep_kwargs(draw):
    # a valid sweep, then now and then one field swapped for a wide value
    # (negative, zero, large, a float) or a repeated or unknown entry
    sweep = draw(st.sampled_from("ML"))
    K = draw(st.integers(1, 5))
    point = st.integers(2, 6) if sweep == "L" else st.integers(2 * K, 2 * K + 20)
    kwargs = dict(
        sweep=sweep,
        values=draw(st.lists(point, min_size=1, max_size=3, unique=True)),
        N=draw(st.integers(K, 60)),
        K=K,
        M=draw(st.integers(2 * K, 40)),
        L=draw(st.integers(2, 6)),
        g=draw(st.integers(2, 7)),
        trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(-2**70, 2**70)),
        algorithms=draw(st.lists(st.sampled_from(["ssp", "dcsp"]), min_size=1, unique=True)),
        # each jobs=2 example starts a process pool, so keep them rare
        jobs=draw(st.sampled_from([1] * 5 + [2])),
    )
    if not draw(st.booleans()):
        return kwargs
    field = draw(st.sampled_from(
        ("N", "K", "M", "L", "g", "trials", "seed", "values", "algorithms")
    ))

    def wide(valid):
        return draw(st.sampled_from([valid + 0.5, float(valid), -1, 0, valid + 40]))

    if field == "values":
        values = kwargs["values"]
        values.append(draw(st.sampled_from([values[0], wide(values[0])])))
    elif field == "algorithms":
        kwargs["algorithms"] = draw(st.sampled_from([[], ["ssp", "ssp"], ["dcsp", "somp"]]))
    else:
        kwargs[field] = wide(kwargs[field])
    return kwargs


@given(sweep_kwargs())
@example(dict(sweep="M", values=(30,), N=60, K=3, L=4, trials=3, g=2.5))
@settings(max_examples=25, deadline=None)
def test_config_space_rejected_or_runs_exactly(kwargs):
    # every config either fails at construction or sweeps to exact wire tallies
    try:
        config = ExperimentConfig(**kwargs)
    except ValueError:
        return
    rows = run_sweep(dataclasses.replace(config, trials=1))
    assert [row.value for row in rows] == list(config.values)
    for row in rows:
        assert list(row.stats) == list(config.algorithms)
        for s in row.stats.values():
            assert s.mean_messages == s.mean_analytic


# the fabric round that only one algorithm's correlations travel through
CORRELATION_FABRIC = {"ssp": "broadcast_all", "dcsp": "exchange_neighbors"}


def _fail_correlations(monkeypatch, algorithm, when):
    """Make ``algorithm``'s correlation round raise RankDeficientError
    whenever ``when()`` holds, inside the one pursuit loop."""
    name = CORRELATION_FABRIC[algorithm]
    share = getattr(pursuit, name)

    def round_(payloads, topology, counter, length, label):
        if label == "correlation" and when():
            raise RankDeficientError(f"forced in the {algorithm} correlation round")
        return share(payloads, topology, counter, length, label)

    monkeypatch.setattr(pursuit, name, round_)


@pytest.mark.parametrize("failing", ["ssp", "dcsp"])
def test_redraw_is_shared_by_all_algorithms(monkeypatch, failing):
    # one algorithm fails on the trial's first draw: both must move to the redraw
    calls = []
    run_batch = experiments.run_batch

    def recording(algorithms, instances, *args, **kwargs):
        calls.append((list(algorithms), [instance.config.seed for instance in instances]))
        return run_batch(algorithms, instances, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_batch", recording)
    _fail_correlations(monkeypatch, failing, lambda: len(calls) == 1)
    config = small_m_config(values=(20,), trials=1)
    rows = run_sweep(config)

    first, redrawn = (derive_trial_seed(config.seed, 20, 0, attempt) for attempt in (0, 1))
    assert calls == [(["ssp", "dcsp"], [first]), (["ssp", "dcsp"], [redrawn])]
    assert rows[0].stats["ssp"].aborted == rows[0].stats["dcsp"].aborted == 1


def test_redraw_exhaustion_names_the_trial(monkeypatch):
    # every draw fails: the error must say which trial to rerun
    draws = []
    errors = []
    generate_batch = experiments.generate_batch

    def counting_generate(configs, out=None):
        draws.extend(cfg.seed for cfg in configs)
        return generate_batch(configs, out)

    def always_deficient(algorithms, instances, *args, **kwargs):
        seeds = [instance.config.seed for instance in instances]
        errors.append(RankDeficientError(f"forced on seeds {seeds}"))
        raise errors[-1]

    monkeypatch.setattr(experiments, "generate_batch", counting_generate)
    monkeypatch.setattr(experiments, "run_batch", always_deficient)
    config = small_m_config(values=(20,), trials=2)
    with pytest.raises(RankDeficientError) as excinfo:
        run_sweep(config)

    # the two trials fail as one batch, then trial 0 redraws alone
    batch = [derive_trial_seed(config.seed, 20, trial) for trial in range(2)]
    tried = [
        derive_trial_seed(config.seed, 20, 0, attempt)
        for attempt in range(experiments._MAX_REDRAWS + 1)
    ]
    assert draws == batch + tried
    message = str(excinfo.value)
    assert message.startswith("M=20 trial 0: ")
    assert str(tried) in message
    assert excinfo.value.__cause__ is errors[-1]


@pytest.mark.parametrize("failing", ["ssp", "dcsp"])
def test_redraw_inside_a_batch_matches_one_at_a_time(monkeypatch, failing):
    # the first draw of trial 2, in the middle of a batch of 5, is rank
    # deficient for one algorithm: the sweep must match running each trial
    # alone, row for row, redraw for redraw and seed for seed
    config = small_m_config(values=(20,), L=2, g=2, trials=5)
    draw = 8 * config.L * 20 * config.N  # dictionary bytes of one draw
    assert experiments.BATCH_BYTES // draw >= config.trials  # one batch
    deficient = derive_trial_seed(config.seed, 20, 2)
    run_batch = experiments.run_batch
    current = []  # the seeds of the running batch
    _fail_correlations(monkeypatch, failing, lambda: deficient in current)

    def sweep(budget):
        used, sizes = set(), []

        def run(algorithms, instances, *args, **kwargs):
            current[:] = [instance.config.seed for instance in instances]
            sizes.append(len(current))
            results = run_batch(algorithms, instances, *args, **kwargs)
            used.update((algorithm, seed) for algorithm in algorithms for seed in current)
            return results

        monkeypatch.setattr(experiments, "run_batch", run)
        monkeypatch.setattr(experiments, "BATCH_BYTES", budget)
        return run_sweep(config), used, sizes

    rows, used, sizes = sweep(experiments.BATCH_BYTES)
    reference, reference_used, reference_sizes = sweep(draw - 1)  # batches of one
    assert max(sizes) == config.trials and max(reference_sizes) == 1
    assert rows == reference
    assert used == reference_used
    redrawn = derive_trial_seed(config.seed, 20, 2, attempt=1)
    for algorithm in ("ssp", "dcsp"):
        assert rows[0].stats[algorithm].aborted == 1
        assert (algorithm, redrawn) in used
        assert (algorithm, deficient) not in used


@given(
    trials=st.integers(1, 40),
    L=st.integers(2, 12),
    M=st.integers(2, 60),
    N=st.integers(1, 300),
    budget=st.integers(1, 3_000_000),
)
@settings(max_examples=200, deadline=None)
def test_batch_plan_splits_trials_evenly_within_the_budget(trials, L, M, N, budget):
    draw = 8 * L * M * N
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "BATCH_BYTES", budget)
        plan = experiments._batches(trials, ProblemConfig(N=N, M=M, K=1, L=L, seed=0))
    assert [t for batch in plan for t in batch] == list(range(trials))
    sizes = [len(batch) for batch in plan]
    assert max(sizes) - min(sizes) <= 1
    assert all(size * draw <= budget or size == 1 for size in sizes)
    assert len(plan) == -(-trials // max(1, budget // draw))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep, values", [("M", (12, 20)), ("L", (2, 5))])
def test_rows_do_not_depend_on_the_batch_budget(monkeypatch, sweep, values, jobs):
    # 7 trials at the largest point's draws: batches of one, a ragged
    # 2 + 2 + 3 split, the default budget and the whole point in one batch
    config = (small_m_config if sweep == "M" else small_l_config)(
        values=values, trials=7, jobs=jobs)
    draw = 8 * max(
        problem.L * problem.M * problem.N for problem, _ in map(config.point, values))
    reference = None
    for budget in (1, 3 * draw, experiments.BATCH_BYTES, 7 * draw):
        monkeypatch.setattr(experiments, "BATCH_BYTES", budget)
        rows = run_sweep(config)
        reference = reference or rows
        assert rows == reference


@pytest.mark.parametrize("sweep, values", [("M", (12, 16, 20)), ("L", (2, 3, 6))])
def test_algorithm_choice_does_not_change_a_column(sweep, values):
    # each algorithm's columns must not depend on which other algorithms
    # share its batches, or in which order
    config = (small_m_config if sweep == "M" else small_l_config)(values=values, trials=8)
    stats = {}
    for algorithms in (("ssp", "dcsp"), ("dcsp", "ssp"), ("dcsp",), ("ssp",)):
        rows = run_sweep(dataclasses.replace(config, algorithms=algorithms))
        for algorithm in algorithms:
            stats.setdefault(algorithm, []).append([row.stats[algorithm] for row in rows])
    for runs in stats.values():
        assert all(s.aborted == 0 for s in runs[0])  # no redraw moves a column
        assert all(run == runs[0] for run in runs[1:])


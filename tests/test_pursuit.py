import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsp.costs import cost_dcsp_general
from dcsp import pursuit
from dcsp.linalg import RankDeficientError, correlate, max_occ, resid
from dcsp.network import WireCounter, exchange_neighbors, ring_topology, topology_from_listing
from dcsp.problems import ProblemConfig, ProblemInstance, generate, generate_batch, success
from dcsp.pursuit import (
    _ordered_sum, _residual_states, dcsp_run, run_batch, ssp_run,
)
from oracle import TooLargeError, exhaustive_decoder
from reference import reference_run


def tiny_instance(seed, N=12, M=8, K=2, L=3):
    return generate(ProblemConfig(N=N, M=M, K=K, L=L, seed=seed))


def _residual_state(instance, support, memo=None):
    """One instance's residual state, as a batch of one, kept in ``memo``."""
    return _residual_states({} if memo is None else memo, instance.config.L, [0], [support],
                            instance.dictionaries, instance.measurements)[0]


class TestSspRun:
    def test_hand_built_two_column_case(self):
        # K=1, N=2, M=2, L=2; support {1} dominates both correlation votes
        A1 = np.array([[1.0, 0.2], [0.0, 1.0]])
        A2 = np.array([[1.0, -0.3], [0.5, 1.0]])
        x = np.array([2.0, 0.0])
        cfg = ProblemConfig(N=2, M=2, K=1, L=2, seed=0)
        inst = ProblemInstance(
            cfg, np.array([A1, A2]), np.array([x, x]), np.array([A1 @ x, A2 @ x]),
            np.array([1], dtype=np.int64),
        )
        result = ssp_run(inst)
        assert result.support.tolist() == [1]
        assert result.iterations == 1

    def test_recovers_generously_sampled_instance(self):
        inst = generate(ProblemConfig(N=60, M=30, K=4, L=4, seed=42))
        result = ssp_run(inst)
        assert success(result.support, inst)

    def test_immediate_fit_stops_at_one_iteration(self):
        # pick a seed where the initialization already selects the truth
        for seed in range(100):
            inst = generate(ProblemConfig(N=40, M=30, K=3, L=4, seed=seed))
            probe = ssp_run(inst)
            if np.array_equal(probe.support_trace[0], inst.true_support):
                assert probe.iterations == 1
                assert np.array_equal(probe.support, probe.support_trace[0])
                assert probe.residual_trace[0] <= 1e-18 * sum(
                    float(y @ y) for y in inst.measurements
                )
                return
        pytest.fail("no seed produced an immediately correct initialization")

    def test_rank_deficient_propagates(self):
        cfg = ProblemConfig(N=12, M=8, K=2, L=3, seed=3)
        inst = generate(cfg)
        inst.dictionaries[1][:, :] = 0.0  # force a degenerate projection
        inst.measurements[1] = inst.dictionaries[1] @ inst.signals[1]
        with pytest.raises(RankDeficientError):
            ssp_run(inst)

    def test_trace_is_strictly_decreasing_before_stop(self):
        for seed in range(20):
            result = ssp_run(tiny_instance(seed))
            trace = result.residual_trace
            for a, b in zip(trace[:-2], trace[1:-1]):
                assert b < a
            if not result.hit_max_iters:
                assert trace[-1] >= trace[-2] or len(trace) == 1


class TestDcspRun:
    def test_recovers_with_neighborhood_collaboration(self):
        inst = generate(ProblemConfig(N=60, M=30, K=4, L=6, seed=7))
        result = dcsp_run(inst, ring_topology(6, 3))
        assert success(result.support, inst)

    def test_topology_size_mismatch_names_both_sizes(self):
        with pytest.raises(ValueError, match="topology has 4 nodes, problem has L=3"):
            dcsp_run(tiny_instance(1), ring_topology(4, 2))

    def test_candidate_sizes_bounded(self):
        K = 3
        for seed in range(15):
            inst = generate(ProblemConfig(N=30, M=16, K=K, L=5, seed=seed))
            result = dcsp_run(inst, ring_topology(5, 3))
            for sizes in result.candidate_sizes:
                assert len(sizes) == 5
                assert all(K <= s <= 2 * K for s in sizes)

    def test_full_collaboration_matches_ssp(self):
        # separate draws of one config, so no cached state is shared
        for seed in range(25):
            a = ssp_run(tiny_instance(seed, N=24, M=14, K=3, L=4))
            b = dcsp_run(tiny_instance(seed, N=24, M=14, K=3, L=4), ring_topology(4, 4))
            assert np.array_equal(a.support, b.support)
            assert a.iterations == b.iterations
            assert len(a.support_trace) == len(b.support_trace)
            for sa, sb in zip(a.support_trace, b.support_trace):
                assert np.array_equal(sa, sb)

    def test_local_support_states_are_k_sets(self):
        inst = tiny_instance(11, N=30, M=16, K=3, L=5)
        result = dcsp_run(inst, ring_topology(5, 3))
        assert result.support.size == 3

    def test_deterministic_repeat(self):
        # a fresh draw per run, so the second run recomputes everything;
        # every field compares, support trace, candidate sizes and wire
        # rounds included
        for dims, topo in ((dict(), ring_topology(3, 2)),
                           (dict(N=40, M=20, K=3, L=4), ring_topology(4, 3))):
            a, b = (dcsp_run(tiny_instance(5, **dims), topo) for _ in range(2))
            assert _run_fields(a) == _run_fields(b)

    def test_prints_nothing(self, capsys):
        # the transcript is the CLI's: the library prints nothing
        run = dcsp_run(tiny_instance(9), ring_topology(3, 2))
        assert capsys.readouterr().out == ""
        assert run.wire.total > 0


@given(
    K=st.integers(1, 4),
    extra_m=st.integers(0, 8),
    extra_n=st.integers(1, 20),
    L=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(K=1, extra_m=0, extra_n=1, L=2, seed=0)  # M = 2K, K = 1, L = 2
@example(K=3, extra_m=0, extra_n=10, L=2, seed=1)
@example(K=3, extra_m=8, extra_n=10, L=4, seed=0)  # N=24, M=14
@settings(max_examples=60, deadline=None)
def test_full_collaboration_bit_identical_to_ssp(K, extra_m, extra_n, L, seed):
    M = 2 * K + extra_m
    config = ProblemConfig(N=M + extra_n, M=M, K=K, L=L, seed=seed)
    # each driver gets its own draw of the config, so the two runs share no
    # cached residual state and the comparison tests the arithmetic
    try:
        a = ssp_run(generate(config))
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            dcsp_run(generate(config), ring_topology(L, L))
        return
    b = dcsp_run(generate(config), ring_topology(L, L))
    assert np.array_equal(a.support, b.support)
    assert a.iterations == b.iterations
    assert a.residual_trace == b.residual_trace  # exact float equality
    assert len(a.support_trace) == len(b.support_trace)
    for sa, sb in zip(a.support_trace, b.support_trace):
        assert np.array_equal(sa, sb)


class TestStoppingRule:
    def test_reported_support_minimizes_trace(self):
        # the revert-on-non-improvement rule means the reported support is
        # the last strictly improving one
        for seed in range(20):
            inst = tiny_instance(seed, N=20, M=10, K=2, L=3)
            result = ssp_run(inst)
            if result.hit_max_iters:
                continue
            best_t = int(np.argmin(result.residual_trace))
            if best_t == len(result.residual_trace) - 1:
                best_t -= 1  # final entry ties the previous one
            assert np.array_equal(result.support, result.support_trace[best_t])

    def test_successful_final_support_fits_exactly(self):
        inst = generate(ProblemConfig(N=60, M=30, K=4, L=4, seed=17))
        result = ssp_run(inst)
        assert success(result.support, inst)
        total = sum(
            float(np.linalg.norm(resid(np.column_stack([A[:, result.support - 1], y])[None])) ** 2)
            for A, y in zip(inst.dictionaries, inst.measurements)
        )
        energy = sum(float(y @ y) for y in inst.measurements)
        assert total <= 1e-9 * energy


class TestExhaustiveDecoder:
    def test_small_enumeration_counts(self):
        inst = tiny_instance(2, N=5, M=4, K=1, L=2)
        assert exhaustive_decoder(inst).size == 1

    def test_finds_true_support(self):
        for seed in range(10):
            inst = tiny_instance(seed)
            assert np.array_equal(exhaustive_decoder(inst), inst.true_support)

    def test_cap_enforced(self):
        inst = tiny_instance(0, N=40, M=20, K=8, L=2)
        with pytest.raises(TooLargeError):
            exhaustive_decoder(inst, cap=1000)

    def test_agrees_with_dcsp_when_dcsp_succeeds(self):
        agree = 0
        for seed in range(30):
            inst = tiny_instance(seed)
            result = dcsp_run(inst, ring_topology(3, 3))
            if success(result.support, inst):
                assert np.array_equal(result.support, exhaustive_decoder(inst))
                agree += 1
        assert agree > 0


def test_residual_energies_match_norms():
    inst = tiny_instance(9)
    state = _residual_state(inst, inst.true_support)
    assert len(state.energies) == 3
    for A, y, energy in zip(inst.dictionaries, inst.measurements, state.energies):
        r = resid(np.column_stack([A[:, inst.true_support - 1], y])[None])[0]
        true_norm = float(r @ r)
        assert abs(energy - true_norm) <= 1e-12 * max(true_norm, 1.0)


def _run_fields(run):
    """Every field of a RunResult, as plain comparable values."""
    return (
        run.support.tolist(),
        run.iterations,
        run.residual_trace,
        [s.tolist() for s in run.support_trace],
        [list(map(int, sizes)) for sizes in run.candidate_sizes],
        run.wire.rounds,
        run.hit_max_iters,
    )


def _outcome(driver, inst):
    try:
        return _run_fields(driver(inst))
    except RankDeficientError:
        return "rank deficient"


@given(
    K=st.integers(1, 4),
    extra_m=st.integers(0, 8),
    extra_n=st.integers(1, 20),
    L=st.integers(2, 12),
    g_offset=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(K=1, extra_m=0, extra_n=1, L=2, g_offset=0, seed=0)  # M = 2K, K = 1, L = 2
@settings(max_examples=60, deadline=None)
def test_shared_draw_matches_fresh_draws(K, extra_m, extra_n, L, g_offset, seed):
    # the per-draw memo must not let one driver's run change another's
    M = 2 * K + extra_m
    config = ProblemConfig(N=M + extra_n, M=M, K=K, L=L, seed=seed)
    g = 2 + g_offset % (L - 1)
    drivers = (ssp_run, lambda inst: dcsp_run(inst, ring_topology(L, g)))
    fresh = [_outcome(driver, generate(config)) for driver in drivers]
    for order in ((0, 1), (1, 0)):
        shared = generate(config)
        for i in order:
            assert _outcome(drivers[i], shared) == fresh[i]


def test_cached_state_is_read_only(monkeypatch):
    states = []

    def keeping_states(*args):
        made = _residual_states(*args)
        states.extend(made)
        return made

    monkeypatch.setattr(pursuit, "_residual_states", keeping_states)
    inst = tiny_instance(4)
    run_batch(("ssp", "dcsp"), [inst], ring_topology(3, 2))
    assert states
    for state in states:
        with pytest.raises(ValueError):
            state.correlations[0, 0] = 1.0
    empty = _residual_state(inst, np.empty(0, dtype=np.int64))
    assert np.array_equal(empty.correlations, correlate(inst.dictionaries, inst.measurements))
    inst.measurements[0, 0] = inst.measurements[0, 0]  # the instance stays writeable


def test_state_is_computed_once_per_support():
    inst, memo = tiny_instance(6), {}
    first = _residual_state(inst, inst.true_support, memo)
    assert _residual_state(inst, inst.true_support.copy(), memo) is first
    support = inst.true_support
    both = _residual_states({}, 3, [0, 0], [support, support.copy()],
                            inst.dictionaries, inst.measurements)
    assert both[0] is both[1]


def test_each_miss_state_equals_its_own_round(monkeypatch):
    # ssp and dcsp of one batch reach different supports of a draw in one
    # round, so that draw misses twice: each state must be the one its draw
    # and support make in a round of their own, correlated on a view of the
    # draw's rows of the batch stack
    rounds, views = [], []

    def recording_states(memo, L, draws, supports, A, Y):
        fresh = {(d, s.tobytes()): (d, s) for d, s in zip(draws, supports)
                 if (d, s.tobytes()) not in memo}
        views.clear()
        made = _residual_states(memo, L, draws, supports, A, Y)
        rounds.append((fresh, {(d, s.tobytes()): m for d, s, m in zip(draws, supports, made)},
                       A, list(views)))
        return made

    def recording_correlate(A, r):
        views.append(A)
        return correlate(A, r)

    monkeypatch.setattr(pursuit, "_residual_states", recording_states)
    monkeypatch.setattr(pursuit, "correlate", recording_correlate)
    config = ProblemConfig(N=40, M=12, K=3, L=4, seed=0)
    draws = [generate(dataclasses.replace(config, seed=s)) for s in range(8)]
    run_batch(("ssp", "dcsp"), draws, ring_topology(4, 2))
    monkeypatch.undo()

    twice = [fresh for fresh, _, _, _ in rounds
             if len({d for d, _ in fresh.values()}) < len(fresh)]
    assert twice  # some draw had two misses in one round
    for fresh, made, A, called in rounds:
        assert len(called) == len(fresh)  # one correlate per miss
        for view in called:
            assert view.shape == (4, 12, 40) and np.shares_memory(view, A)
        for key, (d, support) in fresh.items():
            alone = _residual_state(draws[d], support)
            assert np.array_equal(made[key].correlations, alone.correlations)
            assert made[key].energies == alone.energies


def test_rank_deficient_support_is_not_cached():
    inst = tiny_instance(8)
    inst.dictionaries[1][:, 1] = inst.dictionaries[1][:, 0]  # columns 1 and 2 coincide
    support, memo = np.array([1, 2], dtype=np.int64), {}
    for _ in range(2):
        with pytest.raises(RankDeficientError):
            _residual_state(inst, support, memo)
    assert not memo


@st.composite
def irregular_listing(draw, L=st.integers(2, 10)):
    """Neighborhood listing with mixed sizes and asymmetric links."""
    L = draw(L)
    nodes = st.integers(1, L)
    groups = [draw(st.sets(nodes, max_size=L)) | {l} for l in range(1, L + 1)]
    return ";".join(",".join(map(str, sorted(g))) for g in groups), groups


@given(
    listing=irregular_listing(),
    K=st.integers(1, 3),
    extra_m=st.integers(0, 6),
    extra_n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_irregular_topology_wire_matches_closed_form(listing, K, extra_m, extra_n, seed):
    text, groups = listing
    topo = topology_from_listing(text)
    links = sum(len(g) - 1 for g in groups)
    assert topo.neighbor_link_count == links
    L, M = len(groups), 2 * K + extra_m
    N = M + extra_n
    inst = generate(ProblemConfig(N=N, M=M, K=K, L=L, seed=seed))
    try:
        run = dcsp_run(inst, topo)
    except RankDeficientError:
        return
    T = run.iterations
    assert run.wire.total == cost_dcsp_general(N, K, L, T, links)
    assert run.wire.broadcast_scalars == cost_dcsp_general(N, K, L, T, 0)


@given(listing=irregular_listing(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_padded_view_sum_equals_per_node_sum(listing, seed):
    text, groups = listing
    topo = topology_from_listing(text)
    payloads = np.abs(np.random.default_rng(seed).standard_normal((len(groups), 7)))
    view = exchange_neighbors(payloads, topo, [WireCounter()], 7, "correlation")
    sums = _ordered_sum(view)
    for l, g in enumerate(groups):
        members = sorted(g)
        expected = payloads[members[0] - 1].copy()
        for j in members[1:]:
            expected += payloads[j - 1]
        assert np.array_equal(sums[l], expected)


def _sender_loop(view):
    """A view summed over its sender axis one sender row at a time, in order."""
    total = view[..., 0, :].copy()
    for k in range(1, view.shape[-2]):
        total += view[..., k, :]
    return total


def _magnitudes(seed, shape):
    # non-negative payloads over 16 decades, so that a reordered sum rounds
    # differently
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-8, 8, shape)


@given(listing=irregular_listing(L=st.integers(2, 40)), runs=st.integers(1, 4),
       width=st.sampled_from([1, 2, 3, 9, 200]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_ordered_sum_adds_neighbor_views_in_sender_order(listing, runs, width, seed):
    # dcsp's views: each node's neighbors in ascending order, then zero pads
    topo = topology_from_listing(listing[0])
    payloads = _magnitudes(seed, (runs * topo.L, width))
    view = exchange_neighbors(payloads, topo, [WireCounter() for _ in range(runs)], width,
                              "correlation")
    assert np.array_equal(_ordered_sum(view), _sender_loop(view))


@given(L=st.integers(2, 40), runs=st.integers(1, 12),
       width=st.sampled_from([1, 2, 3, 9, 200]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
@example(L=40, runs=1, width=200, seed=0)
@example(L=40, runs=12, width=1, seed=1)
def test_ordered_sum_adds_ssp_views_in_sender_order(L, runs, width, seed):
    # ssp's views: every run's L node rows, summed network-wide
    view = _magnitudes(seed, (runs * L, width)).reshape(runs, L, width)
    assert np.array_equal(_ordered_sum(view), _sender_loop(view))


@st.composite
def batches(draw):
    """A batch of draws of one config: (config, seeds, g, listing, cap)."""
    K = draw(st.integers(1, 4))
    M = 2 * K + draw(st.integers(0, 8))
    L = draw(st.integers(2, 12))
    config = ProblemConfig(N=M + draw(st.integers(1, 20)), M=M, K=K, L=L, seed=0)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True))
    listing, _ = draw(irregular_listing(st.just(L)))
    # a third of the batches stop at a 1-2 iteration cap, so that runs in a
    # batch stop at different rounds and some at the cap
    cap = draw(st.sampled_from([None, None, 1, None, None, 2]))
    return config, seeds, draw(st.integers(2, L)), listing, cap


def _fields_with_split(run):
    return _run_fields(run) + (run.wire.neighbor_scalars, run.wire.broadcast_scalars)


# each batch call, (algorithms, topology): ssp alone on every topology, and
# dcsp on each topology beside ssp in both orders and alone
BATCH_CALLS = [(("ssp",), name) for name in (None, "ring", "full", "graph")] + [
    (algorithms, name) for name in ("ring", "full", "graph")
    for algorithms in (("ssp", "dcsp"), ("dcsp", "ssp"), ("dcsp",))
]


@given(batches())
@settings(max_examples=40, deadline=None)
def test_batch_matches_single_runs(batch):
    config, seeds, g, listing, cap = batch
    L = config.L
    topologies = {
        None: None,
        "ring": ring_topology(L, g),
        "full": ring_topology(L, L),
        "graph": topology_from_listing(listing),
    }

    def draw(seed):
        return generate(dataclasses.replace(config, seed=seed))

    def fields(run):  # one run per seed, or None if any is rank deficient
        try:
            return {s: _fields_with_split(run(draw(s))) for s in seeds}
        except RankDeficientError:
            return None

    # ssp's single runs take no topology: every batch's ssp runs equal them
    ssp = fields(lambda inst: ssp_run(inst, cap))
    single = {("ssp", name): ssp for name in topologies}
    single.update({("dcsp", name): fields(lambda inst: dcsp_run(inst, topology, cap))
                   for name, topology in topologies.items() if name is not None})

    for order in (seeds, seeds[::-1]):
        for algorithms, name in BATCH_CALLS:
            stack = None
            if order is seeds:  # drawn into one stack, as a sweep draws a batch
                stack = np.empty((len(order), L, config.M, config.N))
                draws = generate_batch(
                    [dataclasses.replace(config, seed=s) for s in order], out=stack)
            else:
                draws = [draw(s) for s in order]
            if any(single[a, name] is None for a in algorithms):
                with pytest.raises(RankDeficientError):
                    run_batch(algorithms, draws, topologies[name], cap, stack)
                continue
            runs = run_batch(algorithms, draws, topologies[name], cap, stack)
            assert list(runs) == list(algorithms)
            for algorithm in algorithms:
                assert [_fields_with_split(r) for r in runs[algorithm]] == \
                    [single[algorithm, name][s] for s in order]
            if name == "full" and len(algorithms) == 2:  # dcsp(g=L) beside ssp
                for a, b in zip(runs["ssp"], runs["dcsp"]):
                    assert a.residual_trace == b.residual_trace  # exact float equality
                    assert _run_fields(a)[:2] == _run_fields(b)[:2]
                    assert _run_fields(a)[3] == _run_fields(b)[3]


@st.composite
def reference_cases(draw):
    """Draws of one config, the algorithms in call order, dcsp's topology,
    a cap and whether the draws share one stack."""
    # M near 2K and N well above M, so that nodes disagree and fusion ties
    K = draw(st.integers(1, 3))
    M = 2 * K + draw(st.integers(0, 4))
    L = draw(st.integers(2, 8))
    config = ProblemConfig(N=M + draw(st.integers(1, 30)), M=M, K=K, L=L, seed=0)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True))
    topology = draw(st.sampled_from([
        None, ring_topology(L, draw(st.integers(2, L))),
        topology_from_listing(draw(irregular_listing(st.just(L)))[0]),
    ]))
    algorithms = draw(st.sampled_from([("ssp",), ("dcsp",), ("ssp", "dcsp"), ("dcsp", "ssp")]))
    cap = draw(st.sampled_from([None, 1, 2, 3]))
    return config, seeds, algorithms, topology, cap, draw(st.booleans())


@given(reference_cases())
@settings(max_examples=100, deadline=None)
# a fusion tie at the cut, and a second draw that misses a support
@example((ProblemConfig(N=17, M=4, K=2, L=3, seed=0), [0],
          ("dcsp",), topology_from_listing("1,3;1,2;2,3"), None, False))
@example((ProblemConfig(N=3, M=2, K=1, L=2, seed=0), [0, 3], ("ssp",), None, None, False))
def test_batch_matches_the_reference_pursuit(case):
    # tests/reference.py runs each draw, node and message alone, so every
    # field of every run must come out of the batched loop bit for bit
    config, seeds, algorithms, topology, cap, stacked = case
    configs = [dataclasses.replace(config, seed=s) for s in seeds]
    stack = np.empty((len(seeds), config.L, config.M, config.N)) if stacked else None
    draws = generate_batch(configs, out=stack)
    try:
        expected = {a: [_fields_with_split(reference_run(a, d, topology, cap)) for d in draws]
                    for a in algorithms}
    except RankDeficientError:
        with pytest.raises(RankDeficientError):
            run_batch(algorithms, draws, topology, cap, stack)
        return
    runs = run_batch(algorithms, draws, topology, cap, stack)
    assert {a: [_fields_with_split(r) for r in rs] for a, rs in runs.items()} == expected


@pytest.mark.parametrize("g", [2, 4])
def test_support_reached_by_both_algorithms_is_computed_once(monkeypatch, g):
    # ssp and dcsp run in one batch reach many supports of a draw in the
    # same round (at g = L, all of them): each (draw, support) pair must
    # reach resid once, one slice per node
    slices = []

    def counting_resid(Ay):
        slices.append(len(Ay))
        return resid(Ay)

    monkeypatch.setattr(pursuit, "resid", counting_resid)
    config = ProblemConfig(N=40, M=12, K=3, L=4, seed=0)
    draws = [generate(dataclasses.replace(config, seed=s)) for s in range(8)]
    runs = run_batch(("ssp", "dcsp"), draws, ring_topology(4, g))
    shared = sum(
        len({s.tobytes() for s in a.support_trace} & {s.tobytes() for s in b.support_trace})
        for a, b in zip(runs["ssp"], runs["dcsp"])
    )
    assert shared >= len(draws)  # at least the initial supports coincide
    # each support a run computes joins its support trace; the empty one
    # needs no resid
    distinct = sum(len({s.tobytes() for s in a.support_trace + b.support_trace})
                   for a, b in zip(runs["ssp"], runs["dcsp"]))
    assert sum(slices) == config.L * distinct


def test_projections_never_form_q(monkeypatch):
    # lstsq_augmented reads Q.T @ y off the raw R factor of the [A | y]
    # that _project_candidates gathers, and resid takes its c from
    # lstsq_augmented: each call factors once, in raw mode, and no Q is formed
    calls = []
    qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        if sys._getframe(1).f_globals["__name__"] == "dcsp.linalg":
            calls[-1][1].append(mode)
        return qr(a, mode)

    def recording(name, function):
        def record(*args):
            calls.append((name, []))
            return function(*args)
        return record

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(pursuit, "lstsq_augmented",
                        recording("lstsq_augmented", pursuit.lstsq_augmented))
    monkeypatch.setattr(pursuit, "resid", recording("resid", pursuit.resid))
    config = ProblemConfig(N=40, M=12, K=3, L=4, seed=0)
    draws = [generate(dataclasses.replace(config, seed=s)) for s in range(4)]
    run_batch(("ssp", "dcsp"), draws, ring_topology(4, 2))
    assert {name for name, _ in calls} == {"lstsq_augmented", "resid"}
    assert all(modes == ["raw"] for _, modes in calls)


def test_projection_group_holds_two_augmented_stacks():
    # one size group gathers straight into its [A | y] buffer, so only qr's
    # working copy of it joins it, plus O(n k); a separately gathered A
    # beside both would make about three
    n, m, k, N = 96, 50, 20, 60
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, m, N))
    Y = rng.standard_normal((n, m))
    candidates = np.zeros((n, N), dtype=bool)
    for row in candidates:
        row[rng.choice(N, size=k, replace=False)] = True
    rows = np.arange(n)
    pursuit._project_candidates(A, Y, rows, candidates)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        magnitudes, sizes = pursuit._project_candidates(A, Y, rows, candidates)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sizes.tolist() == [k] * n and np.count_nonzero(magnitudes) == n * k
    assert peak <= 2.4 * n * m * (k + 1) * 8


def test_fusion_ranks_every_run_of_a_round_in_one_call(monkeypatch):
    # settle hands max_occ one (runs, L*K) stack per round: a dcsp run takes
    # part in its initialization and in each of its iterations
    stacks = []

    def counting_max_occ(m, K):
        stacks.append(len(m))
        return max_occ(m, K)

    monkeypatch.setattr(pursuit, "max_occ", counting_max_occ)
    config = ProblemConfig(N=40, M=12, K=3, L=4, seed=0)
    draws = [generate(dataclasses.replace(config, seed=s)) for s in range(8)]
    runs = run_batch(("ssp", "dcsp"), draws, ring_topology(4, 2))["dcsp"]
    iterations = [run.iterations for run in runs]
    assert len(stacks) == 1 + max(iterations)
    assert sum(stacks) == len(draws) + sum(iterations)


def test_batch_rejects_mixed_dimensions():
    draws = [tiny_instance(1), tiny_instance(2, M=9)]
    with pytest.raises(ValueError, match="one N, M, K and L"):
        run_batch(("ssp",), draws, None)
    with pytest.raises(ValueError, match="one or more draws"):
        run_batch(("ssp",), [], None)


def test_batch_rejects_a_repeated_algorithm_and_the_old_map_form():
    draws = [tiny_instance(1)]
    with pytest.raises(ValueError, match=re.escape("algorithms=('ssp', 'ssp') names one twice")):
        run_batch(["ssp", "ssp"], draws, None)
    old_form = {"ssp": None, "dcsp": ring_topology(3, 2)}  # {algorithm: topology}
    with pytest.raises(TypeError):  # it leaves out the topology
        run_batch(old_form, draws)
    with pytest.raises(ValueError, match="need a Topology or None, got topology=2"):
        run_batch(old_form, draws, 2)  # an old call's cap in the topology's place


def test_batch_reads_a_passed_stack_in_place():
    # a sweep draws a batch into one stack, which the pursuit must not
    # copy: without the stack it copies the dictionaries once, with it never
    config = ProblemConfig(N=400, M=40, K=4, L=4, seed=0)
    stack = np.empty((4, 4, 40, 400))
    draws = generate_batch([dataclasses.replace(config, seed=s) for s in range(4)], out=stack)
    topology = ring_topology(4, 2)

    def traced(dictionaries):
        tracemalloc.start()
        try:
            runs = run_batch(("dcsp",), draws, topology, dictionaries=dictionaries)["dcsp"]
            return [_run_fields(r) for r in runs], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(stack)  # first use loads modules lazily
    copied, copied_peak = traced(None)
    in_place, in_place_peak = traced(stack)
    assert in_place == copied
    # the copy is held for the whole run; less would be part of it
    assert copied_peak - in_place_peak > 0.9 * stack.nbytes
    with pytest.raises(ValueError, match=r"need a \(4, L, M, N\) dictionary stack"):
        run_batch(("dcsp",), draws, topology, dictionaries=stack[:3])

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsp import problems
from dcsp.costs import CostParams, cost_table1
from dcsp.linalg import RankDeficientError, resid
from dcsp.network import ring_topology
from dcsp.problems import ProblemConfig, generate, generate_batch, success
from dcsp.pursuit import RunResult, run_batch


@pytest.fixture(scope="module")
def full_scale_instance():
    return generate(ProblemConfig(N=200, M=50, K=10, L=6, seed=20240601))


class TestGenerate:
    def test_shapes(self, full_scale_instance):
        inst = full_scale_instance
        assert len(inst.dictionaries) == 6
        assert all(A.shape == (50, 200) for A in inst.dictionaries)
        assert all(x.shape == (200,) for x in inst.signals)
        assert all(y.shape == (50,) for y in inst.measurements)
        assert inst.true_support.size == 10

    def test_same_seed_bit_identical(self):
        cfg = ProblemConfig(N=40, M=20, K=4, L=3, seed=99)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.true_support, b.true_support)
        for l in range(3):
            assert np.array_equal(a.dictionaries[l], b.dictionaries[l])
            assert np.array_equal(a.signals[l], b.signals[l])
            assert np.array_equal(a.measurements[l], b.measurements[l])

    def test_stress_full_support(self):
        inst = generate(ProblemConfig(N=5, M=10, K=5, L=2, seed=1))
        assert inst.true_support.tolist() == [1, 2, 3, 4, 5]

    def test_shared_support_and_exact_measurements(self, full_scale_instance):
        inst = full_scale_instance
        mask = np.zeros(200, dtype=bool)
        mask[inst.true_support - 1] = True
        for l in range(6):
            assert np.all(inst.signals[l][~mask] == 0.0)
            assert np.all(inst.signals[l][mask] != 0.0)
            assert np.array_equal(
                inst.measurements[l], inst.dictionaries[l] @ inst.signals[l]
            )

    def test_true_support_explains_data(self, full_scale_instance):
        inst = full_scale_instance
        for l in range(6):
            sub = inst.dictionaries[l][:, inst.true_support - 1]
            r = resid(np.column_stack([sub, inst.measurements[l]])[None])[0]
            assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(inst.measurements[l])

    def test_adding_nodes_keeps_earlier_draws(self):
        small = generate(ProblemConfig(N=30, M=15, K=3, L=2, seed=5))
        large = generate(ProblemConfig(N=30, M=15, K=3, L=5, seed=5))
        assert np.array_equal(small.true_support, large.true_support)
        for l in range(2):
            assert np.array_equal(small.dictionaries[l], large.dictionaries[l])
            assert np.array_equal(small.signals[l], large.signals[l])

    def test_config_validation(self):
        # the K, L and K <= N bounds are test_bound_messages_name_the_values'
        with pytest.raises(ValueError, match=re.escape("need 0 <= seed < 2**64, got seed=-5")):
            ProblemConfig(N=10, M=5, K=2, L=2, seed=-5)
        with pytest.raises(ValueError, match="need M >= 2K, got M=3 and K=2"):
            ProblemConfig(N=10, M=3, K=2, L=2, seed=0)
        ProblemConfig(N=10, M=4, K=2, L=2, seed=2**64 - 1)  # M = 2K and the largest seed

    @pytest.mark.parametrize("kw, message", [
        (dict(K=0), "need K >= 1, got K=0"),
        (dict(L=1), "need L >= 2, got L=1"),
        (dict(M=0), "need M >= 2K, got M=0"),
        (dict(N=8, K=10, M=20), "need K <= N, got K=10 and N=8"),
    ])
    def test_bound_messages_name_the_values(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ProblemConfig(**dict(dict(N=10, M=5, K=2, L=2, seed=0), **kw))

    @pytest.mark.parametrize("field", ["N", "M", "K", "L", "seed"])
    def test_float_dimension_rejected(self, field):
        kw = dict(N=60, M=30, K=3, L=4, seed=1)
        kw[field] = float(kw[field])
        message = f"need an integer {field}, got {field}={kw[field]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ProblemConfig(**kw)

    def test_numpy_integers_stored_as_int(self):
        config = ProblemConfig(N=np.int64(60), M=np.int32(30), K=3, L=np.int64(4), seed=1)
        assert all(type(getattr(config, f)) is int for f in ("N", "M", "K", "L", "seed"))
        assert generate(config).dictionaries.shape == (4, 30, 60)



def spawn_key_reference(config):
    # the seeding scheme of the module docstring, one SeedSequence per key
    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))

    N, M, K, L = config.N, config.M, config.K, config.L
    support = np.sort(stream(0, 0).choice(N, size=K, replace=False) + 1)
    dictionaries = np.array([stream(1, l).standard_normal((M, N)) for l in range(1, L + 1)])
    signals = np.zeros((L, N))
    for l in range(1, L + 1):
        signals[l - 1, support - 1] = stream(2, l).standard_normal(K)
    measurements = np.array([A @ x for A, x in zip(dictionaries, signals)])
    return support, dictionaries, signals, measurements


def assert_matches_spawn_keys(config, inst=None):
    inst = generate(config) if inst is None else inst
    support, dictionaries, signals, measurements = spawn_key_reference(config)
    assert np.array_equal(inst.true_support, support)
    assert np.array_equal(inst.dictionaries, dictionaries)
    assert np.array_equal(inst.signals, signals)
    assert np.array_equal(inst.measurements, measurements)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_generate_matches_spawn_key_streams(seed):
    assert_matches_spawn_keys(ProblemConfig(N=30, M=12, K=3, L=40, seed=seed))


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError, match=re.escape(f"need 0 <= seed < 2**64, got seed={seed}")):
        ProblemConfig(N=30, M=12, K=3, L=40, seed=seed)


@given(st.integers(0, 2**64 - 1), st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_generate_matches_spawn_key_streams_property(seed, L):
    assert_matches_spawn_keys(ProblemConfig(N=20, M=8, K=3, L=L, seed=seed))


# seeds of one or two 32-bit words pad to SeedSequence's 4-word pool
SEED_SIZES = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))


@given(st.lists(SEED_SIZES, min_size=1, max_size=12), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
@example([0, 2**32 - 1, 2**32, 2**64 - 1, 7], 2)
@example([2**64 - 1, 0], 12)
def test_generate_batch_matches_spawn_key_streams(seeds, L):
    # one batch of mixed seed sizes draws what each seed's own streams give
    configs = [ProblemConfig(N=20, M=8, K=3, L=L, seed=seed) for seed in seeds]
    out = np.empty((len(seeds), L, 8, 20))
    instances = generate_batch(configs, out=out)
    assert [inst.config for inst in instances] == configs
    for b, (config, inst) in enumerate(zip(configs, instances)):
        assert np.shares_memory(inst.dictionaries, out[b])
        assert_matches_spawn_keys(config, inst)


def test_generate_batch_needs_one_shape(monkeypatch):
    configs = [ProblemConfig(N=20, M=8, K=3, L=2, seed=1), ProblemConfig(N=20, M=9, K=3, L=2, seed=1)]
    with pytest.raises(ValueError, match="a batch needs configs of one N, M, K and L"):
        generate_batch(configs)
    # an out of another shape or dtype is rejected before any stream is seeded
    monkeypatch.setattr(problems, "_streams", None)
    config = ProblemConfig(N=30, M=12, K=3, L=3, seed=1)
    for shape, dtype in (((1, 3, 14, 30), np.float64), ((2, 3, 12, 30), np.float64),
                         ((1, 3, 12, 30), np.float32)):
        with pytest.raises(ValueError, match=re.escape(
                "need out of shape (1, 3, 12, 30) and dtype float64, "
                f"got shape {shape} and dtype {np.dtype(dtype)}")):
            generate_batch([config], out=np.empty(shape, dtype))


@given(N=st.integers(1, 12), M=st.integers(1, 12), K=st.integers(1, 4), L=st.integers(2, 5),
       seed=st.integers(0, 2**64 + 1))
@settings(max_examples=60, deadline=None)
@example(N=3, M=2, K=1, L=2, seed=2**64 - 1)  # M = 2K, K = 1, L = 2, the largest seed
@example(N=3, M=1, K=1, L=2, seed=0)  # M < 2K
@example(N=3, M=2, K=1, L=2, seed=2**64)
def test_config_is_rejected_or_runs_to_exact_wire_totals(N, M, K, L, seed):
    # every accepted config draws an instance that both drivers run to a
    # result (or to a rank-deficient projection, which a sweep redraws)
    try:
        config = ProblemConfig(N=N, M=M, K=K, L=L, seed=seed)
    except ValueError:
        return
    inst = generate(config)
    for g, algorithm in ((None, "ssp"), (2, "dcsp")):
        topology = None if g is None else ring_topology(L, g)
        try:
            result = run_batch((algorithm,), [inst], topology)[algorithm][0]
        except RankDeficientError:
            continue
        assert isinstance(result, RunResult)
        params = CostParams(N=N, K=K, L=L, g=g, T=result.iterations)
        assert result.wire.total == cost_table1(algorithm, params)


class TestSuccess:
    def test_exact_match(self, full_scale_instance):
        assert success(full_scale_instance.true_support, full_scale_instance)

    def test_missing_index(self, full_scale_instance):
        trimmed = full_scale_instance.true_support[:-1]
        assert not success(trimmed, full_scale_instance)
        swapped = full_scale_instance.true_support.copy()
        swapped[0] = 1 if swapped[0] != 1 else 2
        if np.unique(swapped).size == swapped.size:
            assert not success(swapped, full_scale_instance)

    def test_order_free(self, full_scale_instance):
        shuffled = full_scale_instance.true_support[::-1].copy()
        assert success(shuffled, full_scale_instance)


import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsp.linalg import (
    RankDeficientError,
    as_index_set,
    correlate,
    lstsq_augmented,
    max_ind,
    max_occ,
    resid,
)


def normal_equations(A, y):
    # independent oracle: explicit Gram-matrix solve
    return np.linalg.solve(A.T @ A, A.T @ y)


def augmented(A, y):
    """The stack of one ``[A | y]`` that :func:`lstsq_augmented` and
    :func:`resid` take."""
    return np.column_stack([A, y])[None]


class TestLstsq:
    def test_identity(self):
        assert np.allclose(lstsq_augmented(augmented(np.eye(3), [1.0, 2.0, 3.0])), [[1.0, 2.0, 3.0]])

    def test_single_column(self):
        assert np.allclose(lstsq_augmented(augmented([[1.0], [1.0]], [2.0, 2.0])), [[2.0]])

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        expected = normal_equations(A, y)
        got = lstsq_augmented(augmented(A, y))[0]
        assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # duplicated direction
        with pytest.raises(RankDeficientError):
            lstsq_augmented(augmented(A, np.ones(3)))

    def test_zero_matrix_raises(self):
        with pytest.raises(RankDeficientError):
            lstsq_augmented(augmented(np.zeros((3, 2)), np.ones(3)))

    def test_wide_matrix_rejected(self):
        for kernel in (lstsq_augmented, resid):
            with pytest.raises(ValueError, match="need k <= M, got 3 columns and 2 rows"):
                kernel(np.ones((4, 2, 4)))

    @pytest.mark.parametrize("Ay, named", [
        (np.ones((3, 2)), "ndarray of shape (3, 2)"),
        ([[[1.0, 2.0]]], "list of shape (1, 1, 2)"),
        (np.ones((2, 3, 0)), "ndarray of shape (2, 3, 0)"),  # no y column
    ])
    def test_non_stack_rejected(self, Ay, named):
        # both kernels take one stack form, under one rule and one message
        for kernel in (lstsq_augmented, resid):
            with pytest.raises(ValueError, match=re.escape(f"array [A | y], got {named}")):
                kernel(Ay)

    @pytest.mark.parametrize("A_shape, y_shape", [((5, 3), (4,)), ((2, 5, 3), (5,))])
    def test_mismatched_y_rejected(self, A_shape, y_shape):
        A, y = np.ones(A_shape), np.ones(y_shape)
        message = f"need y of shape {A_shape[:-1]} for A of shape {A_shape}, got {y_shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            correlate(A, y)

    @pytest.mark.parametrize("A_shape, y_shape", [((3,), (3,)), ((1, 1, 3, 2), (1, 1, 3))])
    def test_correlate_names_both_shapes_of_a_non_matrix(self, A_shape, y_shape):
        message = f"got A of shape {A_shape} and y of shape {y_shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            correlate(np.ones(A_shape), np.ones(y_shape))

    def test_stacked_call_holds_two_augmented_stacks(self):
        # the caller's [A | y] and qr's working copy of it, plus O(n k): R
        # is read in place from the raw factor, with no triangular copy
        n, m, k = 96, 50, 20
        rng = np.random.default_rng(0)
        # column-major slices, as pursuit._project_candidates gathers them
        Ay = rng.standard_normal((n, k + 1, m)).transpose(0, 2, 1)
        lstsq_augmented(Ay)  # first-call allocations are not the call's own
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lstsq_augmented(Ay)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * Ay.nbytes


class TestResid:
    def test_coordinate_projection(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(resid(augmented(A, [3.0, 4.0, 5.0])), [[0.0, 0.0, 5.0]])

    def test_in_span_gives_zero(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 3))
        y = A @ rng.standard_normal(3)
        r = resid(augmented(A, y))[0]
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(y)

    def test_orthogonal_to_columns(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((8, 4))
        y = rng.standard_normal(8)
        assert np.max(np.abs(A.T @ resid(augmented(A, y))[0])) <= 1e-8

    @pytest.mark.parametrize("column_major", [False, True])
    def test_subtracts_the_projection(self, column_major):
        # resid's c is lstsq_augmented's bit for bit, and A c reads the
        # stack in place in either layout
        n, m, k = 6, 12, 4
        rng = np.random.default_rng(19)
        if column_major:  # as pursuit._augmented gathers it
            Ay = rng.standard_normal((n, k + 1, m)).transpose(0, 2, 1)
        else:
            Ay = rng.standard_normal((n, m, k + 1))
        expected = Ay[..., k] - (Ay[..., :k] @ lstsq_augmented(Ay)[..., None])[..., 0]
        assert np.array_equal(resid(Ay), expected)


class TestMaxInd:
    def test_magnitudes(self):
        assert max_ind([0.1, -5.0, 2.0, 0.3], 2).tolist() == [2, 3]

    def test_tie_break_lowest_index(self):
        assert max_ind([1.0, 1.0, 1.0], 2).tolist() == [1, 2]

    def test_k_equals_n(self):
        assert max_ind([0.5, -0.1, 3.0], 3).tolist() == [1, 2, 3]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            max_ind([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            max_ind(np.ones((2, 2)), 3)

    def test_stacked_ties_and_extremes(self):
        v = np.array([[1.0, -1.0, 1.0], [0.0, 2.0, -2.0]])
        assert max_ind(v, 1).tolist() == [[1], [2]]
        assert max_ind(v, 2).tolist() == [[1, 2], [2, 3]]
        assert max_ind(v, 3).tolist() == [[1, 2, 3], [1, 2, 3]]


class TestMaxOcc:
    def test_counts(self):
        assert max_occ([1, 1, 2, 3, 3, 3], 2).tolist() == [1, 3]

    def test_all_equal_counts(self):
        assert max_occ([4, 5], 2).tolist() == [4, 5]

    def test_tie_break_lowest_value(self):
        assert max_occ([7, 7, 2, 2, 9], 2).tolist() == [2, 7]

    def test_insufficient_distinct(self):
        with pytest.raises(ValueError, match="need 2 distinct values, multiset has 1"):
            max_occ([3, 3, 3], 2)

    def test_negative_value_rejected_in_any_row(self):
        # a stack counts row i from offset i * width, where a negative
        # value would land among the previous row's counts
        for m in ([-1, 2], [[1, 2], [-1, 2]]):
            with pytest.raises(ValueError):
                max_occ(m, 1)


class TestCorrelate:
    def test_identity(self):
        assert np.allclose(correlate(np.eye(2), [-1.0, 2.0]), [1.0, 2.0])

    def test_zero_residual(self):
        assert np.allclose(correlate(np.ones((3, 4)), np.zeros(3)), np.zeros(4))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((6, 9))
        r = rng.standard_normal(6)
        naive = np.array([abs(sum(A[i, j] * r[i] for i in range(6))) for j in range(9)])
        assert np.max(np.abs(correlate(A, r) - naive)) <= 1e-10


def test_as_index_set_canonicalizes():
    assert as_index_set([5, 2, 9]).tolist() == [2, 5, 9]
    with pytest.raises(ValueError, match="distinct, got 2 more than once"):
        as_index_set([2, 3, 2])
    with pytest.raises(ValueError, match="1-based, got index 0"):
        as_index_set([0, 1])
    assert as_index_set([]).tolist() == []
    assert as_index_set([]).dtype == np.int64
    assert max_occ([], 0).tolist() == []


@given(st.lists(st.one_of(st.integers(-3, 12), st.integers(-2**63, 2**63 - 1)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_index_set_is_the_unique_of_distinct_positive_entries(entries):
    # a set of distinct entries >= 1 comes back as np.unique gives it;
    # any other integer list is a ValueError
    if len(set(entries)) == len(entries) and min(entries, default=1) >= 1:
        expected = np.unique(np.array(entries, dtype=np.int64))
        result = as_index_set(entries)
        assert result.dtype == expected.dtype and result.tolist() == expected.tolist()
    else:
        with pytest.raises(ValueError):
            as_index_set(entries)


@pytest.mark.parametrize("operator, args, message", [
    (max_ind, ([3.0, 1.0, 2.0], -1), "got K=-1"),
    (max_ind, ([3.0, 1.0, 2.0], 1.5), "got K=1.5"),
    (max_ind, (np.ones((2, 3)), -1), "got K=-1"),
    (max_occ, ([3, 1, 2], -1), "got K=-1"),
    (max_occ, ([3, 1, 2], 1.5), "got K=1.5"),
    (max_occ, ([[3, 1], [2, 2]], -1), "got K=-1"),
    (as_index_set, ([[1, 2], [3, 4]],), "got shape (2, 2)"),
    (as_index_set, ([2.7, 1],), "need integer entries in an index set, got 2.7"),
    (as_index_set, (["3"],), "need integer entries in an index set, got '3'"),
    (max_occ, ([1.7, 1.2, 3], 1), "need integer entries in a multiset, got 1.7"),
    # an integer past int64 is named, not the valid entry before it
    (as_index_set, ([1, 2**70],), f"need entries in an index set that fit int64, got {2**70}"),
    (max_occ, ([3, 2**64], 1), f"need entries in a multiset that fit int64, got {2**64}"),
    (as_index_set, ([[1, 1]],), "index sets are 1-d, got shape (1, 2)"),
    (as_index_set, (np.empty((0, 2), dtype=np.int64),), "index sets are 1-d, got shape (0, 2)"),
    # the first entry that repeats in input order is named, not the smallest
    (as_index_set, ([3, 1, 3, 1],), "index set entries must be distinct, got 3 more than once"),
    (as_index_set, ([-4, 2],), "index sets are 1-based, got index -4"),
    (as_index_set, ([0, 1],), "index sets are 1-based, got index 0"),
    # a 3-d multiset was ranked with row offsets broadcast over its middle
    # axis, and a 0-d v raised IndexError
    (max_occ, ([[[1, 1, 1], [2, 2, 2]], [[3, 3, 3], [4, 4, 4]]], 1), "got shape (2, 2, 3)"),
    (max_ind, (np.ones((2, 2, 3)), 1), "max_ind ranks a 1-d or 2-d v, got shape (2, 2, 3)"),
    (max_ind, (5.0, 1), "max_ind ranks a 1-d or 2-d v, got shape ()"),
])
def test_bad_selection_size_or_index_set_shape_named(operator, args, message):
    # a negative K once sliced off the last entries, a 2-d index set was
    # reported as repeating its entries, and a non-integer entry was cast
    # (2.7 to 2, "3" to 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        operator(*args)


# ---------------------------------------------------------------------------
# property suites


@st.composite
def solvable_system(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, m))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal(m)


@given(solvable_system())
@settings(max_examples=150, deadline=None)
def test_residual_orthogonality(system):
    A, y = system
    try:
        r = resid(augmented(A, y))[0]
    except RankDeficientError:
        return  # degenerate draw, outside the contract
    bound = 1e-8 * np.linalg.norm(A, "fro") * np.linalg.norm(y)
    assert np.max(np.abs(A.T @ r)) <= bound


@given(solvable_system())
@settings(max_examples=150, deadline=None)
def test_projection_plus_residual_recovers_input(system):
    A, y = system
    try:
        recomposed = A @ lstsq_augmented(augmented(A, y))[0] + resid(augmented(A, y))[0]
    except RankDeficientError:
        return
    assert np.linalg.norm(recomposed - y) <= 1e-9 * max(np.linalg.norm(y), 1.0)


@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.data())
@settings(max_examples=150, deadline=None)
def test_max_ind_permutation_invariant(seed, n, data):
    rng = np.random.default_rng(seed)
    # distinct magnitudes so the selected set is permutation-independent
    v = np.sign(rng.standard_normal(n)) * (1.0 + np.arange(n)) * rng.uniform(1.0, 2.0)
    k = data.draw(st.integers(1, n))
    perm = rng.permutation(n)
    base = max_ind(v, k)
    permuted = max_ind(v[perm], k)
    mapped_back = np.sort(perm[permuted - 1] + 1)
    assert np.array_equal(mapped_back, base)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_max_ind_matches_rows(seed, n, N, data):
    rng = np.random.default_rng(seed)
    # few distinct magnitudes with both signs, so exact ties are common
    v = rng.integers(-3, 4, size=(n, N)).astype(float)
    K = data.draw(st.integers(1, N))
    stacked = max_ind(v, K)
    assert stacked.shape == (n, K)
    for row, picked in zip(v, stacked):
        assert np.array_equal(picked, max_ind(row, K))


def stable_max_ind(v, K):
    # reference: one stable argsort of -|v| per row, smaller index first on ties
    order = np.argsort(-np.abs(np.asarray(v, dtype=float)), axis=-1, kind="stable")
    return np.sort(order[..., :K] + 1, axis=-1)


# few distinct values, so ties (and NaN) across the K-th place are frequent
tied_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, np.nan])


@given(st.integers(1, 64), st.integers(1, 12), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_max_ind_matches_stable_argsort(rows, N, tied, data):
    values = tied_values if tied else st.floats()
    v = np.array(data.draw(st.lists(values, min_size=rows * N, max_size=rows * N)))
    v = v.reshape(rows, N)
    K = data.draw(st.integers(0, N))
    expected = stable_max_ind(v, K)
    assert np.array_equal(max_ind(v, K), expected)
    assert max_ind(v, K).dtype == np.int64
    assert np.array_equal(max_ind(v[0], K), expected[0])


@given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_selection_operators_deterministic(values, k):
    v = np.array(values, dtype=float)
    if k <= v.size:
        assert np.array_equal(max_ind(v, k), max_ind(v.copy(), k))
    if np.unique(values).size >= k:
        assert np.array_equal(max_occ(values, k), max_occ(list(values), k))


def unique_max_occ(m, K):
    # reference: the np.unique formulation, ranked by count, ties to the smaller value
    values, counts = np.unique(np.asarray(m, dtype=np.int64), return_counts=True)
    if values.size < K:
        raise ValueError(f"only {values.size} distinct")
    return np.sort(values[np.argsort(-counts, kind="stable")[:K]])


# few distinct values over many draws, so count ties are frequent
@given(st.lists(st.integers(1, 200), min_size=1, max_size=9, unique=True), st.data())
@settings(max_examples=200, deadline=None)
def test_max_occ_matches_unique_formulation(pool, data):
    m = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    distinct = len(set(m))
    K = data.draw(st.one_of(st.just(distinct), st.integers(1, distinct + 2)))
    if K > distinct:
        with pytest.raises(ValueError, match="distinct values"):
            max_occ(m, K)
    else:
        assert np.array_equal(max_occ(m, K), unique_max_occ(m, K))


# rows of a few shared values, so count ties are frequent within a row
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True), st.data())
@settings(max_examples=200, deadline=None)
def test_stacked_max_occ_matches_row_calls(pool, data):
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 24))
    m = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n * k, max_size=n * k)))
    m = m.reshape(n, k)
    K = data.draw(st.integers(0, len(pool) + 1))
    rows = []
    for row in m:
        try:
            rows.append(max_occ(row, K))
        except ValueError:
            with pytest.raises(ValueError, match="distinct values"):
                max_occ(m, K)
            return
    assert np.array_equal(max_occ(m, K), np.array(rows).reshape(n, K))
    assert max_occ(m, K).dtype == np.int64


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_correlate_nonnegative(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((5, 7))
    r = rng.standard_normal(5)
    assert np.all(correlate(A, r) >= 0.0)


# ---------------------------------------------------------------------------
# stacked calls: a leading axis of independent slices


def stacked_system_of(seed, n, m, k, N=7):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, m, k)),
        rng.standard_normal((n, m)),
        rng.standard_normal((n, m, N)),
    )


@st.composite
def stacked_system(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, m))
    return stacked_system_of(seed, n, m, k)


def _raises_rank(fn, *args):
    try:
        return False, fn(*args)
    except RankDeficientError:
        return True, None


@given(stacked_system())
@example(stacked_system_of(1, 1, 5, 3))  # a stack of one
@example(stacked_system_of(2, 4, 5, 0))  # no columns
@example(stacked_system_of(3, 4, 5, 5))  # square slices, k = M: [A | y] is wider than tall
@example(stacked_system_of(4, 3, 6, 5))  # k = M - 1: [A | y] is square
@settings(max_examples=150, deadline=None)
def test_stacked_calls_match_each_slice(system):
    A, y, D = system
    Ay = np.concatenate([A, y[..., None]], -1)
    Ay0 = Ay.copy()
    per_slice = [_raises_rank(lstsq_augmented, Ay[i:i + 1]) for i in range(A.shape[0])]
    stacked_failed, c = _raises_rank(lstsq_augmented, Ay)
    assert stacked_failed == any(failed for failed, _ in per_slice)
    if not stacked_failed:
        r = resid(Ay)
        assert c.shape == A.shape[::2] and r.shape == y.shape
        # no result is a view of an input, not even r at k = 0, where r == y
        assert not np.shares_memory(r, Ay) and not np.shares_memory(c, Ay)
        for i, (_, ci) in enumerate(per_slice):
            assert np.array_equal(c[i], ci[0])
            assert np.array_equal(r[i], resid(Ay[i:i + 1])[0])
    # lstsq_augmented and resid write only into arrays of their own
    assert Ay.tobytes() == Ay0.tobytes()
    corr = correlate(D, y)
    assert corr.shape == (D.shape[0], D.shape[2])
    for i in range(D.shape[0]):
        assert np.array_equal(corr[i], correlate(D[i], y[i]))


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_one_deficient_slice_fails_the_stack(seed, n, m, data):
    k = data.draw(st.integers(2, m))
    bad = data.draw(st.integers(0, n - 1))
    A, y, _ = stacked_system_of(seed, n, m, k)
    A[bad][:, -1] = 2.0 * A[bad][:, 0]  # repeated direction in one slice only
    Ay = np.concatenate([A, y[..., None]], -1)
    with pytest.raises(RankDeficientError, match=f"slice {bad} "):
        lstsq_augmented(Ay)
    with pytest.raises(RankDeficientError):
        resid(Ay)


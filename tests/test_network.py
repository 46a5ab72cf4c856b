import numbers
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcsp.network import (
    Topology,
    WireCounter,
    broadcast_all,
    exchange_neighbors,
    full_topology,
    ring_topology,
    topology_from_listing,
)


def offset_formula_neighbors(L, g, l):
    # oracle: direct evaluation of the 1-based wraparound offset formula
    return sorted({l} | {(l + i) % L + 1 for i in range(1, g)})


class TestRingTopology:
    def test_six_nodes_degree_three(self):
        topo = ring_topology(6, 3)
        assert topo.neighbors[0].tolist() == [1, 3, 4]
        for l in range(1, 7):
            assert topo.neighbors[l - 1].tolist() == offset_formula_neighbors(6, 3, l)

    def test_degree_equals_size(self):
        topo = ring_topology(6, 3)
        assert all(len(g) == 3 for g in topo.neighbors)

    def test_full_collaboration(self):
        topo = ring_topology(5, 5)
        assert all(g.tolist() == [1, 2, 3, 4, 5] for g in topo.neighbors)
        assert topo == full_topology(5)

    def test_two_nodes(self):
        topo = ring_topology(2, 2)
        assert topo.neighbors[0].tolist() == [1, 2]
        assert topo.neighbors[1].tolist() == [1, 2]

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="need g >= 2, got g=1"):
            ring_topology(4, 1)
        with pytest.raises(ValueError, match="need g <= L, got g=5 and L=4"):
            ring_topology(4, 5)

    @pytest.mark.parametrize("g", [2.5, 3.0, "3", 2.7])
    def test_non_integer_degree_rejected(self, g):
        with pytest.raises(ValueError, match=re.escape(f"need an integer g, got g={g!r}")):
            ring_topology(6, g)
        assert ring_topology(6, np.int64(3)).neighbor_link_count == 12
        # the same value as a neighbor id is rejected too, naming its node
        message = f"node 2 neighbors: need integer entries in an index set, got {g!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Topology(3, [[1, 2], [2, g], [3]])
        assert Topology(3, [[1, 2], np.array([2, 3], dtype=np.int32), [3]]).index.tolist() == \
            [[0, 1], [1, 2], [2, 3]]

    @pytest.mark.parametrize("L,g", [(2, 2), (5, 2), (6, 3), (8, 5), (9, 9)])
    def test_link_count_matches_formula(self, L, g):
        assert ring_topology(L, g).neighbor_link_count == L * (g - 1)


class TestTopologyValidation:
    def test_must_contain_self(self):
        with pytest.raises(ValueError):
            Topology(2, [np.array([2]), np.array([1, 2])])

    def test_ids_in_range(self):
        with pytest.raises(ValueError):
            Topology(2, [np.array([1, 3]), np.array([1, 2])])

    def test_tuple_of_lists_accepted(self):
        topo = Topology(3, ([1, 2], [2, 3], [3, 1]))
        assert [g.tolist() for g in topo.neighbors] == [[1, 2], [2, 3], [1, 3]]
        assert topo.index.tolist() == [[0, 1], [1, 2], [0, 2]]

    def test_callers_list_left_unchanged(self):
        neighbors = [[2, 1], [2, 3], [3, 1]]
        topo = Topology(3, neighbors)
        assert neighbors == [[2, 1], [2, 3], [3, 1]]
        assert topo.neighbors is not neighbors
        assert topo.neighbors[0].tolist() == [1, 2]


class TestTopologyFromListing:
    def test_explicit_groups(self):
        topo = topology_from_listing("1,3,4; 2,4,5; 3,5,6; 4,6,1; 5,1,2; 6,2,3")
        assert topo.L == 6
        assert topo.neighbors[0].tolist() == [1, 3, 4]
        assert topo.neighbors[5].tolist() == [2, 3, 6]

    def test_self_is_added_when_omitted(self):
        topo = topology_from_listing("2,3; 1,3; 1,2")
        assert all(l in topo.neighbors[l - 1] for l in range(1, 4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"node 1 has neighbor id 5, outside \[1, L=2\]"):
            topology_from_listing("1,5; 1,2")

    @pytest.mark.parametrize("text,groups", [
        ("2;;1", [[1, 2], [2], [1, 3]]),  # an empty group is its node alone
        (" ;1,2", [[1], [1, 2]]),
        ("1,2;2,1;", [[1, 2], [1, 2]]),  # a trailing ";" adds no node
    ])
    def test_empty_groups_keep_node_numbers(self, text, groups):
        topo = topology_from_listing(text)
        assert topo.L == len(groups)
        assert [g.tolist() for g in topo.neighbors] == groups


@pytest.mark.parametrize("build,message", [
    (lambda: full_topology(2.5), "need an integer L, got L=2.5"),
    (lambda: Topology(2.0, [[1, 2], [1, 2]]), "need an integer L, got L=2.0"),
    (lambda: ring_topology(6.0, 3), "need an integer L, got L=6.0"),
    (lambda: full_topology(-1), "need L >= 1, got L=-1"),
    (lambda: Topology(0, []), "need L >= 1, got L=0"),
    (lambda: topology_from_listing(""), "need L >= 1, got L=0"),
    (lambda: Topology(3, [[1], [2, 4], [3]]), r"node 2 has neighbor id 4, outside \[1, L=3\]"),
    # a neighbor list with no length was a TypeError from len()
    (lambda: Topology(2, None), "need a sequence of neighbor sets, got neighbors=None"),
    (lambda: Topology(2, 5), "need a sequence of neighbor sets, got neighbors=5"),
    (lambda: Topology(2, np.array(5)), r"need a sequence of neighbor sets, got neighbors=array\(5\)"),
    # what `dcsp trial --topology "1,99999999999999999999"` prints before it exits 2
    pytest.param(lambda: topology_from_listing("1,99999999999999999999"),
                 "node 1 neighbors: need entries in an index set that fit int64, "
                 "got 99999999999999999999", id="listing-past-int64"),
])
def test_node_count_and_ids_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _per_id_topology(L, neighbors):
    """(index, neighbor_link_count) built by checking each id alone, the
    reference that Topology's whole-set checks must agree with; a
    ValueError where it rejects the listing."""
    if len(neighbors) != L:
        raise ValueError("need one neighbor set per node")
    for l, g in enumerate(neighbors, start=1):
        for v in g:
            if not isinstance(v, numbers.Integral):
                raise ValueError(f"node {l} has a non-integer neighbor id {v!r}")
            if not 1 <= v <= L:
                raise ValueError(f"node {l} has neighbor id {v}, outside [1, L={L}]")
    neighbors = [np.sort(np.asarray(g, dtype=np.int64)) for g in neighbors]
    index = np.full((L, max(map(len, neighbors))), L)
    for l, g in enumerate(neighbors, start=1):
        if l not in g:
            raise ValueError(f"node {l} missing from its own neighborhood")
        if np.unique(g).size != g.size:
            raise ValueError("neighbor ids must be distinct")
        index[l - 1, : g.size] = g - 1
    return index, int(np.count_nonzero(index < L)) - L


# node 2's set at L = 3, or the whole listing
@pytest.mark.parametrize("neighbors, message", [
    ([[1, 2], [2, 2.7], [3]], "node 2 neighbors: need integer entries in an index set, got 2.7"),
    ([[1, 2], [2, "3"], [3]], "node 2 neighbors: need integer entries in an index set, got '3'"),
    ([[1, 2], [0, 2], [3]], "node 2 neighbors: index sets are 1-based, got index 0"),
    ([[1, 2], [2, 4], [3]], "node 2 has neighbor id 4, outside [1, L=3]"),
    ([[1, 2], [2, 2**70], [3]],
     f"node 2 neighbors: need entries in an index set that fit int64, got {2**70}"),
    ([[1, 2], [2, 3, 3], [3]],
     "node 2 neighbors: index set entries must be distinct, got 3 more than once"),
    ([[1, 2], [1, 3], [3]], "node 2 missing from its own neighborhood"),
    ([[1, 2], [2]], "need one neighbor set per node, got 2 sets"),
], ids=["float", "str", "zero", "above-L", "past-int64", "repeat", "no-self", "set-count"])
def test_rejected_neighbor_sets_name_their_node(neighbors, message):
    # every listing rejected id by id is still rejected, naming its node
    # and the offending id
    with pytest.raises(ValueError):
        _per_id_topology(3, neighbors)
    with pytest.raises(ValueError, match=re.escape(message)):
        Topology(3, neighbors)


@st.composite
def neighbor_lists(draw):
    """(L, neighbors): per node a list of ids drawn from 0..L+1, so that
    out-of-range ids, repeats and missing nodes occur beside valid sets."""
    L = draw(st.integers(1, 7))
    sets = st.lists(st.integers(0, L + 1), max_size=L + 2)
    return L, draw(st.lists(sets, min_size=L, max_size=L))


@given(neighbor_lists())
@settings(max_examples=300, deadline=None)
def test_whole_set_checks_match_per_id_checks(case):
    L, neighbors = case
    try:
        index, links = _per_id_topology(L, neighbors)
    except ValueError:
        with pytest.raises(ValueError, match="^node "):
            Topology(L, neighbors)
        return
    topo = Topology(L, neighbors)
    assert topo.index.tolist() == index.tolist()
    assert topo.neighbor_link_count == links


@st.composite
def valid_neighbor_lists(draw):
    """(L, neighbors): per node its own id and any others, in any order."""
    L = draw(st.integers(1, 8))
    neighbors = []
    for l in range(1, L + 1):
        ids = draw(st.sets(st.integers(1, L))) | {l}
        neighbors.append(draw(st.permutations(sorted(ids))))
    return L, neighbors


@given(valid_neighbor_lists())
@settings(max_examples=200, deadline=None)
def test_valid_sets_build_the_per_id_index(case):
    L, neighbors = case
    index, links = _per_id_topology(L, neighbors)
    topo = Topology(L, neighbors)
    assert topo.index.tolist() == index.tolist()
    assert topo.neighbor_link_count == links


def test_equality_compares_node_count_and_neighborhoods():
    # a list of arrays once made == raise "truth value ... is ambiguous"
    assert (ring_topology(4, 2) == ring_topology(4, 2)) is True
    assert (ring_topology(4, 2) != ring_topology(4, 3)) is True
    assert ring_topology(4, 4) == full_topology(4) == topology_from_listing("1,2,3,4;" * 4)
    assert ring_topology(4, 2) != ring_topology(5, 2)
    assert Topology(2, [[1], [2]]) != Topology(2, [[1, 2], [2]])
    assert ring_topology(4, 2) != "ring"
    topo = ring_topology(6, 3)
    copy = pickle.loads(pickle.dumps(topo))
    assert copy == topo and copy.neighbor_link_count == topo.neighbor_link_count


class TestExchangeNeighbors:
    def test_full_mesh_count(self):
        topo = full_topology(3)
        counter = WireCounter()
        exchange_neighbors(np.zeros((3, 5)), topo, [counter], 5, "correlation")
        assert counter.total == 2 * 3 * 5 == 30

    def test_ring_count_matches_cost_term(self):
        topo = ring_topology(6, 3)
        counter = WireCounter()
        exchange_neighbors(np.zeros((6, 200)), topo, [counter], 200, "correlation")
        assert counter.neighbor_scalars == 200 * 6 * 2 == 2400

    def test_inbox_holds_own_neighborhood(self):
        # row k of node l's view is the payload of its k-th neighbor,
        # ascending; rows past a short neighborhood are zero
        for topo in (ring_topology(6, 3), topology_from_listing("2,3; 1; 1,2")):
            L = topo.L
            payloads = np.repeat(np.arange(1.0, L + 1)[:, None], 2, axis=1)
            view = exchange_neighbors(payloads, topo, [WireCounter()], 2, "projection")
            assert view.shape == (L, 3, 2)
            for l in range(1, L + 1):
                g = topo.neighbors[l - 1]
                assert np.all(view[l - 1, : g.size] == g[:, None])
                assert np.all(view[l - 1, g.size :] == 0.0)

    def test_conservation(self):
        # charge = (view rows that are neither self nor pad) x frame
        for topo in (ring_topology(7, 4), topology_from_listing("2,3,4; 1; 5; 1,2,3,5; 2")):
            L = topo.L
            counter = WireCounter()
            exchange_neighbors(np.arange(3.0 * L).reshape(L, 3), topo, [counter], 3, "projection")
            received = sum(
                1 for l in range(L) for j in topo.index[l] if j not in (l, L)
            )
            assert received * 3 == counter.total


class TestBroadcastAll:
    def test_support_frame(self):
        counter = WireCounter()
        broadcast_all([np.arange(10)] * 6, full_topology(6), [counter], 10, "local support")
        assert counter.broadcast_scalars == 10 * 5 * 6 == 300

    def test_two_node_scalar(self):
        counter = WireCounter()
        broadcast_all([1.0, 2.0], full_topology(2), [counter], 1, "residual norm")
        assert counter.total == 2

    def test_residual_norm_round(self):
        counter = WireCounter()
        broadcast_all([0.0] * 6, full_topology(6), [counter], 1, "residual norm")
        assert counter.total == 30

    def test_everyone_hears_everyone(self):
        # every node's view is all L payloads in node order; each node is
        # charged for the L - 1 that are not its own
        counter = WireCounter()
        payloads = np.arange(4.0)
        view = broadcast_all(payloads, full_topology(4), [counter], 1, "residual norm")
        assert np.array_equal(view, payloads)
        assert 4 * (4 - 1) == counter.total


def test_counter_breakdown_and_determinism():
    def run():
        topo = ring_topology(5, 3)
        counter = WireCounter()
        exchange_neighbors(np.zeros((5, 4)), topo, [counter], 4, "correlation")
        broadcast_all([np.zeros(2)] * 5, topo, [counter], 2, "local support")
        broadcast_all([0.0] * 5, topo, [counter], 1, "residual norm")
        return counter

    a, b = run(), run()
    assert a.neighbor_scalars == 5 * 2 * 4
    assert a.broadcast_scalars == 5 * 4 * 2 + 5 * 4
    assert a.rounds == b.rounds
    assert a.total == b.total
    labels = [r[0] for r in a.rounds]
    assert labels == ["correlation", "local support", "residual norm"]

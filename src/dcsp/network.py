"""Round-synchronous message passing with per-scalar wire accounting.

Communication cost is counted in transmitted scalars, pairwise (every
recipient is charged separately; there is no broadcast discount).  Message
payloads are charged at a fixed frame length declared by the caller, so an
undersized payload (e.g. a candidate support smaller than 2K) still costs
the full frame.  This makes the empirical tallies match the closed-form
cost expressions with strict integer equality.

Node ids are 1-based.  A node's neighborhood ``G_l`` always contains the
node itself.  A round takes the nodes' payloads stacked along a leading
node axis and returns every node's view of the round at once, with no
per-message objects.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _integer, as_index_set


@dataclass
class Topology:
    """Node count and per-node neighbor sets over ids {1..L}.

    ``index`` is built with the topology: an (L, g_max) array whose row
    l-1 lists node l's neighbors as 0-based rows in ascending order,
    padded with the sentinel row L (which :func:`exchange_neighbors`
    reads as a zero payload).
    """

    L: int
    neighbors: list  # per node, an index set (sorted 1-based array) holding the node
    index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.L = _integer("L", self.L, 1)
        try:
            count = len(self.neighbors)
        except TypeError:  # None, an int, a 0-d array
            raise ValueError(f"need a sequence of neighbor sets, got neighbors={self.neighbors!r}") from None
        if count != self.L:
            raise ValueError(f"need one neighbor set per node, got {count} sets")
        sets = []  # a new list: the caller's sequence (a tuple, say) is left as it was
        for l, g in enumerate(self.neighbors, start=1):
            try:
                sets.append(as_index_set(g))
            except ValueError as err:
                raise ValueError(f"node {l} neighbors: {err}") from None
        self.neighbors = sets
        self.index = np.full((self.L, max(map(len, sets))), self.L)
        for l, g in enumerate(sets, start=1):
            if g.size and g[-1] > self.L:
                raise ValueError(f"node {l} has neighbor id {g[-1]}, outside [1, L={self.L}]")
            if l not in g:
                raise ValueError(f"node {l} missing from its own neighborhood")
            self.index[l - 1, : g.size] = g - 1
        self.neighbor_link_count = sum(map(len, sets)) - self.L  # sum over nodes of |G_l| - 1

    def __eq__(self, other):  # one row of index per node, so equal indexes mean equal L
        return isinstance(other, Topology) and np.array_equal(self.index, other.index)


def full_topology(L: int) -> Topology:
    """Full collaboration: every node neighbors every other."""
    L = _integer("L", L, 1)
    return Topology(L, list(np.tile(np.arange(1, L + 1), (L, 1))))


def ring_topology(L: int, g: int) -> Topology:
    """Symmetric-network neighborhoods of size ``g``.

    For g < L, node l's neighborhood is {l} joined with the 1-based
    wraparound offsets ``mod(l+i, L) + 1`` for i = 1..g-1.  For g = L the
    neighborhood is the whole network (full collaboration), at which point
    DCSP degenerates into decentralized SSP.
    """
    L = _integer("L", L, 1)
    g = _integer("g", g, 2, ("L", L))
    if g == L:
        return full_topology(L)
    l = np.arange(1, L + 1)[:, None]
    return Topology(L, list(np.hstack([l, (l + np.arange(1, g)) % L + 1])))


def topology_from_listing(text) -> Topology:
    """Topology from an explicit adjacency listing.

    One semicolon-separated group of comma-separated node ids per node,
    e.g. ``"1,3,4; 2,4,5; 3,5,6; ..."``; group l is node l's neighborhood
    and is completed with l itself if the listing omits it, so an empty
    group is node l alone.  A trailing ``;`` ends the last group.
    """
    groups = str(text).split(";")
    if not groups[-1].strip():
        groups.pop()
    neighbors = []
    for l, grp in enumerate(groups, start=1):
        ids = {l}
        for tok in filter(str.strip, grp.split(",")):
            try:
                ids.add(int(tok))
            except ValueError:
                raise ValueError(f"bad node id {tok.strip()!r} in listing {text!r}") from None
        neighbors.append(sorted(ids))
    return Topology(len(groups), neighbors)


@dataclass
class WireCounter:
    """Transmitted scalars, one (label, class, scalars) entry per charged
    round, class "neighbor" or "broadcast"; the tallies are sums of it."""

    rounds: list = field(default_factory=list)

    @property
    def neighbor_scalars(self):
        return sum(s for _, kind, s in self.rounds if kind == "neighbor")

    @property
    def broadcast_scalars(self):
        return sum(s for _, kind, s in self.rounds if kind == "broadcast")

    @property
    def total(self):
        return sum(s for _, _, s in self.rounds)


def _charge(counters, topology, payloads, kind, label, scalars):
    """Charge ``scalars`` to each run's counter; returns the run count."""
    if len(payloads) != len(counters) * topology.L:
        raise ValueError("need one payload per node")
    for c in counters:
        c.rounds.append((label, kind, scalars))
    return len(counters)


def exchange_neighbors(payloads, topology: Topology, counters, declared_length: int, label: str):
    """Neighborhood exchange: node l receives from every j in G_l \\ {l}.

    ``counters`` holds one WireCounter per run, and ``payloads`` stacks
    the runs' node payloads in turn along its first axis (row r L + l-1
    for node l of run r).  Adds ``topology.neighbor_link_count *
    declared_length`` scalars to each counter and returns every node's view
    as one array of shape (runs L, g_max, ...): row k of node l's view is
    the payload of its k-th neighbor in ascending order (its own payload
    included), and pad rows past |G_l| are zero.
    """
    payloads = np.asarray(payloads)
    runs = _charge(counters, topology, payloads, "neighbor", label,
                   topology.neighbor_link_count * declared_length)
    L, rest = topology.L, payloads.shape[1:]
    padded = np.zeros((runs, L + 1) + rest, dtype=payloads.dtype)
    padded[:, :L] = payloads.reshape((runs, L) + rest)
    return padded[:, topology.index].reshape((-1,) + topology.index.shape[1:] + rest)


def broadcast_all(payloads, topology: Topology, counters, declared_length: int, label: str):
    """Network-wide exchange: node l receives from every other node.

    Adds (L - 1) * L * declared_length scalars to each run's counter of
    ``counters``, stacked as in :func:`exchange_neighbors`.  Every node's
    view is all L payloads in node order, so the stack is returned as is.
    """
    L = topology.L
    _charge(counters, topology, payloads, "broadcast", label, (L - 1) * L * declared_length)
    return payloads

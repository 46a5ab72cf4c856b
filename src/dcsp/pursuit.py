"""Decentralized subspace-pursuit style support recovery.

One pursuit loop, :func:`run_batch`, runs ssp (full collaboration) and
dcsp (collaboration within one topology's neighborhoods) on a batch of
draws; one algorithm on one draw is a batch of one.  Each iteration
merges the support with the K strongest summed residual correlations
into each node's candidate set, projects onto it, and ranks the K
largest summed coefficient magnitudes, scattered into an (L, N) stack,
as the next support.  ssp broadcasts both rounds and ranks
one shared K-set; dcsp exchanges them with neighbors, each node ranks its
own K-set, and a broadcast of the local K-sets is fused by majority
(``max_occ``).  A run stops, keeping its previous support, once the
network-wide residual energy fails to decrease.  All traffic goes through
:mod:`dcsp.network`, whose wire counter matches :mod:`dcsp.costs` to the
integer.

Floating-point determinism: every cross-node reduction (correlation sums,
scattered coefficient magnitudes, residual-energy sums) adds in ascending
node order.  With full collaboration every node then computes
bit-identical aggregates, which is what makes dcsp with g = L coincide
with ssp support for support: majority fusion of L equal K-sets returns
that K-set.

Batching: each round makes one stacked :mod:`dcsp.linalg` call per step
over the node rows of every live run of every algorithm.  A stacked call
is bit-identical per slice to the call on that slice, so each result
equals the run on its own draw; a rank-deficient projection in any run
raises for the whole batch.

Residual memo: a support's residual energies and correlations depend only
on the draw and the support, so one ``run_batch`` call computes them once
per (draw, support) and keeps them, the correlations read-only.  A memo
hit is therefore what a recomputation returns, bit for bit, and a
projection that raises caches nothing.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .linalg import _integer, correlate, lstsq_augmented, max_ind, max_occ, resid
from .network import (
    Topology,
    WireCounter,
    broadcast_all,
    exchange_neighbors,
    full_topology,
)

SIMULATED_ALGORITHMS = ("ssp", "dcsp")


@dataclass
class RunResult:
    """Outcome of one simulated run.

    ``residual_trace[t]`` is the network-wide residual energy after
    iteration t (entry 0 is the initialization).  ``support_trace`` holds
    the support computed at each step before any final revert;
    ``candidate_sizes[t-1]`` lists each node's candidate-set size at
    iteration t.
    """

    support: np.ndarray
    iterations: int
    wire: WireCounter
    residual_trace: list
    support_trace: list = field(default_factory=list)
    candidate_sizes: list = field(default_factory=list)
    hit_max_iters: bool = False


def _ordered_sum(view):
    """Sum a C-contiguous view over its sender axis (-2), sequentially in
    sender order.

    numpy reduces an axis that is not the innermost one row after row, in
    order, so ``sum(axis=-2)`` adds sender 0, then 1, and so on.  A view
    one column wide would leave the sender axis innermost, which numpy
    sums pairwise, so it runs as a running sum instead.  Every summand is
    a non-negative magnitude, so the zero pad rows of a neighbor view and
    the zeros off a node's candidate set add ``+0.0`` exactly; the first
    addend is always a real row, since every node is in its own
    neighborhood.
    """
    if view.shape[-1] == 1:
        return np.add.accumulate(view, axis=-2)[..., -1, :]
    return view.sum(axis=-2)


@dataclass
class _ResidualState:
    """What the pursuit reads of every node's residual ``r_l`` against one
    support: ``correlations``, the read-only (L, N) stack ``|A_l.T @ r_l|``,
    and ``energies``, the residual energies ``r_l @ r_l`` in node order."""

    correlations: np.ndarray
    energies: tuple


def _node_stack(arrays):
    """Per-draw (L, ...) arrays as one (B*L, ...) node-row stack; a batch of
    one is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _rows(draws, L):
    """Stack rows of the nodes of batch draws ``draws``, draw after draw."""
    return (np.multiply(draws, L)[:, None] + np.arange(L)).ravel()


def _augmented(A, Y, rows, cols):
    """The (n, M, k + 1) stack of ``[A[rows[i]][:, cols[i]] | Y[rows[i]]]``
    for the (n, k) 0-based column lists ``cols``, gathered through the
    (n, N, M) view into one (n, k + 1, M) buffer: one index pair per
    column, not one triple per entry, and no gathered ``A`` or ``y`` lives
    beside the copy that qr takes."""
    n, k = cols.shape
    stack = np.empty((n, k + 1, A.shape[1]))
    stack[:, :k] = A.transpose(0, 2, 1)[rows[:, None], cols]
    stack[:, k] = Y[rows]
    return stack.transpose(0, 2, 1)


def _residual_states(memo, L, draws, supports, A, Y):
    """The :class:`_ResidualState` of batch draw ``draws[j]`` against
    ``supports[j]`` (sorted, all one size), from ``memo`` when an earlier
    round made it, else from one stacked :func:`resid` over the distinct
    (draw, support) misses and one :func:`correlate` per miss, which join
    ``memo``; ``A``, ``Y`` are the node stacks of ``L`` rows per draw."""
    keys = [(d, s.tobytes()) for d, s in zip(draws, supports)]
    # one position per distinct miss, which every run that made it shares
    miss = list({key: j for j, key in enumerate(keys) if key not in memo}.values())
    if miss:
        rows = _rows([draws[j] for j in miss], L)
        cols = np.repeat(np.array([supports[j] for j in miss]) - 1, L, axis=0)
        stacked = resid(_augmented(A, Y, rows, cols))
        # one stacked product makes the same dot per row as r @ r does
        energies = np.matmul(stacked[:, None, :], stacked[:, :, None]).ravel().tolist()
        for n, j in enumerate(miss):
            span = slice(n * L, (n + 1) * L)
            # the draw's own rows of A are a view, so correlating takes no copy
            correlations = correlate(A[draws[j] * L:(draws[j] + 1) * L], stacked[span])
            correlations.flags.writeable = False
            memo[keys[j]] = _ResidualState(correlations, tuple(energies[span]))
    return [memo[key] for key in keys]


def _project_candidates(A, Y, rows, candidates):
    """Magnitudes of each node's least-squares coefficients on its own
    candidate set (a row of the (n, N) mask ``candidates``, for the node at
    stack row ``rows[i]``), scattered into an (n, N) stack, and the sizes.
    Nodes with equal-size sets share one :func:`lstsq_augmented` call on
    their :func:`_augmented` stack, in ascending size."""
    sizes = np.count_nonzero(candidates, axis=1)
    magnitudes = np.zeros(candidates.shape)
    # rows by ascending size, in stack order within a size, so each size
    # group's column lists are one run of the sorted mask's nonzeros
    order = np.argsort(sizes, kind="stable")
    cols = np.nonzero(candidates[order])[1]
    counts = np.bincount(sizes)
    first = taken = 0  # rows and column entries of the groups before
    # distinct sizes in ascending order, without np.unique (it imports numpy.ma)
    for size in np.flatnonzero(counts):
        nodes = order[first:first + counts[size]]
        group = cols[taken:taken + nodes.size * size].reshape(nodes.size, size)
        first, taken = first + nodes.size, taken + group.size
        coefficients = lstsq_augmented(_augmented(A, Y, rows[nodes], group))
        magnitudes[nodes[:, None], group] = np.abs(coefficients)
    return magnitudes, sizes


def _check_algorithms(algorithms):
    """The rule for a tuple of algorithm names, a run's or a sweep's: one
    or more distinct simulated ones."""
    if not algorithms:
        raise ValueError("need at least one algorithm, got algorithms=()")
    unknown = [a for a in algorithms if a not in SIMULATED_ALGORITHMS]
    if unknown:  # before set(), which an unhashable name would break
        raise ValueError(f"cannot simulate {unknown}, got algorithms={algorithms}")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"algorithms={algorithms} names one twice")


def _run_limits(config, algorithms, topology, max_iters):
    """Check run arguments against the :class:`ProblemConfig` ``config``;
    returns dcsp's topology, ``None`` made full, and the cap, default
    ``3 * K``."""
    _check_algorithms(tuple(algorithms))
    topology = full_topology(config.L) if topology is None else topology
    if not isinstance(topology, Topology):
        raise ValueError(f"need a Topology or None, got topology={topology!r}")
    if topology.L != config.L:
        raise ValueError(f"topology has {topology.L} nodes, problem has L={config.L}")
    if max_iters is None:
        return topology, 3 * config.K
    return topology, _integer("max_iters", max_iters, 1)


def run_batch(algorithms, instances, topology, max_iters=None, dictionaries=None):
    """Run each of ``algorithms``, distinct names "ssp" or "dcsp", on each
    of ``instances``, draws of one N, M, K and L, under one cap,
    ``max_iters`` (default ``3 * K``): the pursuit loop of the module
    docstring.  dcsp collaborates within ``topology``'s neighborhoods
    (``None``: full); ssp reads only its L.  Returns {algorithm: one
    :class:`RunResult` per instance}, each equal to the run on its draw
    alone, its ``hit_max_iters`` set if the cap fired before the residual
    stopping rule; raises RankDeficientError if any run does.

    A projection message carries the sender's candidate set beside its
    coefficients, which are meaningless without their positions, and is
    charged at the 2K frame, as :mod:`dcsp.costs` prices it.

    ``dictionaries`` is the (B, L, M, N) array that holds the instances'
    dictionaries in order, if the caller drew them into one (as a sweep
    does); it is read in place.  Without it, a batch of several draws
    copies their dictionaries into one stack.
    """
    if len({(i.config.N, i.config.M, i.config.K, i.config.L) for i in instances}) != 1:
        raise ValueError("a batch needs one or more draws of one N, M, K and L")
    cfg = instances[0].config
    N, K, L = cfg.N, cfg.K, cfg.L
    topology, max_iters = _run_limits(cfg, algorithms, topology, max_iters)

    if dictionaries is None:
        A = _node_stack([instance.dictionaries for instance in instances])
    elif dictionaries.shape == (len(instances),) + instances[0].dictionaries.shape:
        A = dictionaries.reshape(-1, *dictionaries.shape[2:])
    else:
        raise ValueError(f"need a ({len(instances)}, L, M, N) dictionary stack, "
                         f"got shape {dictionaries.shape}")
    Y = _node_stack([instance.measurements for instance in instances])
    # run r is algorithm names[r // B] on draw r % B, so the runs of one
    # algorithm form one slice of any ascending list of runs
    names, B = list(algorithms), len(instances)
    counters = [WireCounter() for _ in range(len(names) * B)]
    memo = {}  # residual states by (draw, support), see the module docstring

    def split(live):
        # (algorithm, first and past-last position in live) per algorithm
        cuts = [bisect_left(live, a * B) for a in range(len(names) + 1)]
        return [(names[a], cuts[a], cuts[a + 1]) for a in range(len(names))
                if cuts[a] < cuts[a + 1]]

    def rank(parts, stack, wires, length, label):
        # one fabric round per algorithm, then one max_ind over dcsp's
        # per-node neighborhood sums and ssp's per-run network sums
        sums = []
        for name, lo, hi in parts:
            fuse = name == "dcsp"
            view = (exchange_neighbors if fuse else broadcast_all)(
                stack[lo * L:hi * L], topology, wires[lo:hi], length, label)
            sums.append(_ordered_sum(view if fuse else view.reshape(hi - lo, L, -1)))
        ranked, cuts = max_ind(_node_stack(sums), K), [0, *accumulate(map(len, sums))]
        return [ranked[a:b] for a, b in zip(cuts, cuts[1:])]

    def settle(parts, ranked, wires):
        # fusion: a broadcast round hands every dcsp node all L local K-sets
        # in node order, and the network keeps the K most frequent indices,
        # ranked for every run in one max_occ call
        supports = []
        for (name, lo, hi), part in zip(parts, ranked):
            if name == "dcsp":
                local = broadcast_all(part, topology, wires[lo:hi], K, "local support")
                part = max_occ(local.reshape(hi - lo, L * K), K)
            supports += list(part)
        return supports

    # initialization: share measurement correlations, pick the K strongest
    live = list(range(len(names) * B))  # the runs still improving
    parts, draws = split(live), [r % B for r in live]
    c0 = correlate(A, Y)[_rows(draws, L)]
    supports = settle(parts, rank(parts, c0, counters, N, "correlation"), counters)
    states = _residual_states(memo, L, draws, supports, A, Y)

    results = [RunResult(support, 0, counter, [sum(state.energies)], [support])
               for support, counter, state in zip(supports, counters, states)]

    for _ in range(max_iters):
        # share residual correlations, merge the K strongest into candidates
        parts, draws = split(live), [r % B for r in live]
        wires, rows = [counters[r] for r in live], _rows(draws, L)
        c = _node_stack([states[r].correlations for r in live])
        picked = rank(parts, c, wires, N, "correlation")
        nodes = np.arange(rows.size)[:, None]
        candidates = np.zeros((rows.size, N), dtype=bool)
        candidates[nodes, np.repeat([results[r].support for r in live], L, axis=0) - 1] = True
        # a dcsp node merges its own K-set, an ssp node its run's
        picked = [p if name == "dcsp" else np.repeat(p, L, axis=0)
                  for (name, _, _), p in zip(parts, picked)]
        candidates[nodes, np.concatenate(picked) - 1] = True
        magnitudes, sizes = _project_candidates(A, Y, rows, candidates)

        # share (candidate set, coefficients) and re-rank
        ranked = rank(parts, magnitudes, wires, 2 * K, "projection")
        new_supports = settle(parts, ranked, wires)

        new_states = _residual_states(memo, L, draws, new_supports, A, Y)
        for _, lo, hi in parts:
            broadcast_all([e for state in new_states[lo:hi] for e in state.energies],
                          topology, wires[lo:hi], 1, "residual norm")

        improved = []
        for j, r in enumerate(live):
            run = results[r]
            run.residual_trace.append(sum(new_states[j].energies))  # ascending node order
            run.support_trace.append(new_supports[j])
            run.candidate_sizes.append(sizes[j * L:(j + 1) * L].tolist())
            if run.residual_trace[-1] >= run.residual_trace[-2]:
                continue  # no improvement: keep the previous support and stop
            run.support, states[r] = new_supports[j], new_states[j]
            improved.append(r)
        live = improved
        if not live:
            break

    for r, run in enumerate(results):
        run.iterations, run.hit_max_iters = len(run.residual_trace) - 1, r in live
    return {name: results[a * B:(a + 1) * B] for a, name in enumerate(names)}

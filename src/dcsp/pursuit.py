"""Decentralized subspace-pursuit style support recovery.

Two full-network drivers are provided:

* :func:`ssp_run` — simultaneous subspace pursuit over a fully connected
  network: every node shares correlation vectors, projection coefficients
  and residual energies with every other node at each iteration.
* :func:`dcsp_run` — the collaborative variant: O(N)-length traffic stays
  inside each node's neighborhood, while only K-length local support
  estimates and scalar residual energies travel network-wide, fused by
  majority rule.

Both stop as soon as the network-wide residual energy fails to decrease,
reverting to the previous support.  All inter-node traffic is routed
through :mod:`dcsp.network`, so the attached wire counter reproduces the
closed-form message counts exactly.

Floating-point determinism: all cross-node reductions (correlation sums,
scattered coefficient magnitudes, residual-energy sums) are accumulated
sequentially in ascending node order.  With full collaboration every node
then computes bit-identical aggregates, which is what makes dcsp_run with
g = L coincide with ssp_run support-for-support.

Node batching: the per-node steps of a round (correlation, projection onto
candidate columns, residual update) run as one stacked :mod:`dcsp.linalg`
call over the instance's (L, M, N) dictionary stack; stacked calls are
bit-identical per slice to the per-node ones.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .errors import TooLargeError
from .linalg import column_submatrix, correlate, lstsq, max_ind, max_occ, resid
from .network import (
    Topology,
    WireCounter,
    broadcast_all,
    exchange_neighbors,
    full_topology,
)
from .problems import ProblemInstance

EXHAUSTIVE_CAP = 10**6


@dataclass
class NodeState:
    """One node's iterate."""

    node_id: int
    support: np.ndarray = None  # current global support estimate
    residual: np.ndarray = None
    residual_sq_norm: float = 0.0
    local_support: np.ndarray = None  # per-neighborhood estimate (collaborative runs)


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


def _ordered_sum(rows):
    # sequential reduction in the (ascending) order the caller assembled
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _gather(l, inboxes, payloads, topology):
    """Node l's view of a round: payloads of G_l in ascending sender order."""
    rows = []
    for j in topology.neighbors[l - 1]:
        rows.append(payloads[l - 1] if j == l else inboxes[l - 1][j].payload)
    return rows


def _scatter_magnitudes(N, pairs):
    """Accumulate |coefficients| at their ambient positions.

    ``pairs`` is a sequence of (index_set, coefficient_vector) in ascending
    sender order; coefficients live on their own candidate set and are
    scattered back to ambient coordinates before summation.
    """
    acc = np.zeros(N)
    for index_set, coeffs in pairs:
        acc[index_set - 1] += np.abs(coeffs)
    return acc


def _update_residuals(states, instance, support):
    """Every node's residual against ``support``, as one (L, M) stack."""
    residuals = resid(
        instance.measurements, column_submatrix(instance.dictionaries, support)
    )
    for state, r in zip(states, residuals):
        state.support = support
        state.residual = r
        state.residual_sq_norm = float(r @ r)
    return residuals


def _project_candidates(instance, candidates):
    """Each node's least-squares coefficients on its own candidate set.

    Nodes whose candidate sets have the same size share one stacked
    :func:`lstsq` call, each slice holding its own node's columns.
    """
    D, Y = instance.dictionaries, instance.measurements
    rows = np.arange(D.shape[1])[:, None]
    sizes = np.array([cand.size for cand in candidates])
    coeffs = [None] * len(candidates)
    for size in np.unique(sizes):
        nodes = np.flatnonzero(sizes == size)
        cols = np.stack([candidates[l] for l in nodes])[:, None, :] - 1
        sub = D[nodes[:, None, None], rows, cols]  # (nodes, M, size)
        for l, c in zip(nodes, lstsq(sub, Y[nodes])):
            coeffs[l] = c
    return coeffs


def ssp_run(instance: ProblemInstance, topology: Topology = None,
            max_iters: int = None) -> RunResult:
    """Simultaneous subspace pursuit over a fully connected network.

    Per iteration every node transmits an N-length correlation vector, a
    projection-coefficient message framed at 2K scalars and one residual
    energy scalar to each of the L-1 other nodes; initialization transmits
    the N-length correlations once.

    Parameters
    ----------
    instance : ProblemInstance
    topology : Topology, optional
        Must be fully connected; defaults to ``full_topology(L)``.
    max_iters : int, optional
        Iteration cap, default ``3 * K``.

    Returns
    -------
    RunResult
        ``hit_max_iters`` is set when the cap fired before the residual
        stopping rule.
    """
    cfg = instance.config
    N, K, L = cfg.N, cfg.K, cfg.L
    if topology is None:
        topology = full_topology(L)
    if topology.L != L:
        raise ValueError("topology size does not match instance")
    if not topology.is_full():
        raise ValueError("ssp_run requires full collaboration")
    if max_iters is None:
        max_iters = 3 * K
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    counter = WireCounter()
    states = [NodeState(l) for l in range(1, L + 1)]

    # initialization: share measurement correlations, pick the K strongest
    c0 = list(correlate(instance.dictionaries, instance.measurements))
    inboxes = broadcast_all(c0, topology, counter, N, "correlation")
    csum = _ordered_sum(_gather(1, inboxes, c0, topology))
    support = max_ind(csum, K)
    residuals = _update_residuals(states, instance, support)

    trace = [sum(s.residual_sq_norm for s in states)]
    support_trace = [support]
    candidate_sizes = []
    result_support = support
    hit_cap = False

    for t in range(1, max_iters + 1):
        # share residual correlations, merge the K strongest into a candidate
        c = list(correlate(instance.dictionaries, residuals))
        inboxes = broadcast_all(c, topology, counter, N, "correlation")
        csum = _ordered_sum(_gather(1, inboxes, c, topology))
        candidate = np.union1d(support, max_ind(csum, K))

        # project every node's data onto the shared candidate columns
        sub = column_submatrix(instance.dictionaries, candidate)
        d = list(lstsq(sub, instance.measurements))
        inboxes = broadcast_all(d, topology, counter, 2 * K, "projection")
        gathered = _gather(1, inboxes, d, topology)
        acc = _scatter_magnitudes(N, [(candidate, dj) for dj in gathered])
        new_support = max_ind(acc, K)

        residuals = _update_residuals(states, instance, new_support)
        norms = [s.residual_sq_norm for s in states]
        broadcast_all(norms, topology, counter, 1, "residual norm")
        new_sum = sum(norms)  # left-to-right, ascending node order

        trace.append(new_sum)
        support_trace.append(new_support)
        candidate_sizes.append([int(candidate.size)] * L)  # candidate is shared

        if new_sum >= trace[-2]:
            # no improvement: revert and stop
            result_support = support
            break
        support = new_support
        result_support = new_support
    else:
        hit_cap = True

    return RunResult(
        support=result_support,
        iterations=len(trace) - 1,
        wire=counter,
        residual_trace=trace,
        support_trace=support_trace,
        candidate_sizes=candidate_sizes,
        hit_max_iters=hit_cap,
    )


def dcsp_run(instance: ProblemInstance, topology: Topology,
             max_iters: int = None) -> RunResult:
    """Collaborative subspace pursuit with neighborhood-limited traffic.

    N-length correlation vectors and 2K-framed projection coefficients are
    exchanged only with neighbors; K-length local support estimates and
    scalar residual energies are exchanged network-wide and fused by
    occurrence count.  Each projection message carries the sender's
    candidate set alongside its coefficients (the coefficients are
    meaningless without their positions) and is charged at the 2K frame.

    Parameters and result semantics match :func:`ssp_run`.
    """
    cfg = instance.config
    N, K, L = cfg.N, cfg.K, cfg.L
    if topology.L != L:
        raise ValueError("topology size does not match instance")
    if max_iters is None:
        max_iters = 3 * K
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    counter = WireCounter()
    states = [NodeState(l) for l in range(1, L + 1)]

    # initialization: neighborhood correlation vote, then network-wide fusion;
    # a broadcast round hands every node all L local supports in node order
    c0 = list(correlate(instance.dictionaries, instance.measurements))
    inboxes = exchange_neighbors(c0, topology, counter, N, "correlation")
    locals0 = []
    for l in range(1, L + 1):
        csum = _ordered_sum(_gather(l, inboxes, c0, topology))
        locals0.append(max_ind(csum, K))
    broadcast_all(locals0, topology, counter, K, "local support")
    support = max_occ(np.concatenate(locals0), K)
    for state, g in zip(states, locals0):
        state.local_support = g
    residuals = _update_residuals(states, instance, support)

    trace = [sum(s.residual_sq_norm for s in states)]
    support_trace = [support]
    candidate_sizes = []
    result_support = support
    hit_cap = False

    for t in range(1, max_iters + 1):
        # neighborhood correlation exchange and per-node candidate sets
        c = list(correlate(instance.dictionaries, residuals))
        inboxes = exchange_neighbors(c, topology, counter, N, "correlation")
        candidates = []
        for l in range(1, L + 1):
            csum = _ordered_sum(_gather(l, inboxes, c, topology))
            candidates.append(np.union1d(support, max_ind(csum, K)))
        coeffs = _project_candidates(instance, candidates)

        # share (candidate set, coefficients) with neighbors; re-rank locally
        packets = list(zip(candidates, coeffs))
        inboxes = exchange_neighbors(packets, topology, counter, 2 * K, "projection")
        locals_t = []
        for l in range(1, L + 1):
            pairs = _gather(l, inboxes, packets, topology)
            locals_t.append(max_ind(_scatter_magnitudes(N, pairs), K))

        # network-wide majority fusion of the local K-sets
        broadcast_all(locals_t, topology, counter, K, "local support")
        new_support = max_occ(np.concatenate(locals_t), K)
        for state, g in zip(states, locals_t):
            state.local_support = g

        residuals = _update_residuals(states, instance, new_support)
        norms = [s.residual_sq_norm for s in states]
        broadcast_all(norms, topology, counter, 1, "residual norm")
        new_sum = sum(norms)  # left-to-right, ascending node order

        trace.append(new_sum)
        support_trace.append(new_support)
        candidate_sizes.append([int(cand.size) for cand in candidates])

        if new_sum >= trace[-2]:
            result_support = support
            break
        support = new_support
        result_support = new_support
    else:
        hit_cap = True

    return RunResult(
        support=result_support,
        iterations=len(trace) - 1,
        wire=counter,
        residual_trace=trace,
        support_trace=support_trace,
        candidate_sizes=candidate_sizes,
        hit_max_iters=hit_cap,
    )


def exhaustive_decoder(instance: ProblemInstance, cap: int = EXHAUSTIVE_CAP):
    """Jointly optimal noiseless decoder by exhaustive support search.

    Scans all C(N, K) supports and returns the one minimizing the total
    residual energy across nodes; ties keep the lexicographically first.
    Intended as a small-scale test oracle.

    Raises
    ------
    TooLargeError
        If C(N, K) exceeds ``cap``.
    """
    cfg = instance.config
    N, K = cfg.N, cfg.K
    n_subsets = comb(N, K)
    if n_subsets > cap:
        raise TooLargeError(f"C({N},{K}) = {n_subsets} exceeds cap {cap}")

    best_support, best_value = None, np.inf
    for combo in combinations(range(1, N + 1), K):
        s = np.array(combo, dtype=np.int64)
        value = 0.0
        for r in resid(instance.measurements, column_submatrix(instance.dictionaries, s)):
            value += float(r @ r)
        if value < best_value:
            best_support, best_value = s, value
    return best_support

"""A literal reference pursuit, the test oracle for ``pursuit.run_batch``.

Written from the module docstrings of :mod:`dcsp.pursuit`,
:mod:`dcsp.network` and :mod:`dcsp.linalg`, it runs one draw, one node and
one message at a time, with no stacking, memo or batching:

* each node correlates with the 2-d ``correlate``, projects with
  ``lstsq_augmented`` and ``resid`` on its own ``[A | y]``, and ranks its
  K-set with the 1-d ``max_ind``;
* a node adds the payloads it holds after a round one at a time, in
  ascending sender order, its own included;
* dcsp fuses the L local K-sets by counting occurrences here rather than
  through ``max_occ``: the K most frequent indices, ties to the smaller;
* every message charges its frame to its recipient, and the charges of a
  round form one ``(label, kind, scalars)`` entry of the run's rounds.
"""

import numpy as np

from dcsp.linalg import correlate, lstsq_augmented, max_ind, resid
from dcsp.network import WireCounter
from dcsp.pursuit import RunResult


def _augmented(A, y):
    """One node's ``[A | y]`` as a stack of one, column-major as the pursuit
    gathers it, since ``resid``'s bits follow the layout."""
    return np.asfortranarray(np.column_stack([A, y]))[None]


def _deliver(payloads, groups, frame, label, kind, rounds):
    """What each node holds after one round: node l gets the payloads of
    ``groups[l]`` (0-based senders, ascending, l among them) in order, and
    each message from another node charges ``frame`` scalars."""
    charged = 0
    for l, group in enumerate(groups):
        for j in group:
            if j != l:
                charged += frame
    rounds.append((label, kind, charged))
    return [[payloads[j] for j in group] for group in groups]


def _sum_in_order(received):
    total = received[0].copy()
    for payload in received[1:]:
        total += payload
    return total


def _fuse(local_sets, K):
    """The K indices that occur most often in ``local_sets``, ties to the
    smaller index, in ascending order."""
    counts = {}
    for local in local_sets:
        for index in local.tolist():
            counts[index] = counts.get(index, 0) + 1
    ranked = sorted(counts, key=lambda index: (-counts[index], index))
    return np.array(sorted(ranked[:K]), dtype=np.int64)


def reference_run(algorithm, instance, topology=None, max_iters=None):
    """Run ``algorithm`` ("ssp" or "dcsp", on ``topology``; ``None`` is
    full collaboration) on ``instance`` for at most ``max_iters``
    iterations (default ``3 * K``); returns its :class:`RunResult`."""
    cfg = instance.config
    N, K, L = cfg.N, cfg.K, cfg.L
    A, Y = instance.dictionaries, instance.measurements
    max_iters = 3 * K if max_iters is None else max_iters
    everyone = [list(range(L))] * L
    fuse = algorithm == "dcsp"
    # dcsp keeps the N-length and 2K-framed rounds inside neighborhoods
    groups = everyone
    if fuse and topology is not None:
        groups = [[int(j) - 1 for j in group] for group in topology.neighbors]
    kind = "neighbor" if fuse else "broadcast"
    rounds = []

    def rank(payloads, frame, label):
        # every node's K strongest entries of the sum of what it received
        received = _deliver(payloads, groups, frame, label, kind, rounds)
        return [max_ind(_sum_in_order(held), K) for held in received]

    def settle(local):
        # ssp's nodes all rank the same network sum; dcsp broadcasts the
        # local K-sets and every node fuses all L of them
        if not fuse:
            assert all(np.array_equal(s, local[0]) for s in local)
            return local[0]
        held = _deliver(local, everyone, K, "local support", "broadcast", rounds)
        fused = [_fuse(sets, K) for sets in held]
        assert all(np.array_equal(s, fused[0]) for s in fused)
        return fused[0]

    def state(support):
        # each node's correlations against its residual, and the energies
        residuals = [resid(_augmented(A[l][:, support - 1], Y[l]))[0] for l in range(L)]
        return [correlate(A[l], r) for l, r in enumerate(residuals)], [r @ r for r in residuals]

    support = settle(rank([correlate(A[l], Y[l]) for l in range(L)], N, "correlation"))
    correlations, energies = state(support)
    trace, supports, sizes = [sum(energies)], [support], []
    hit_max_iters = True
    for _ in range(max_iters):
        picked = rank(correlations, N, "correlation")
        candidates = [np.union1d(support, own) for own in picked]
        magnitudes = []
        for l, columns in enumerate(candidates):
            m = np.zeros(N)
            m[columns - 1] = np.abs(lstsq_augmented(_augmented(A[l][:, columns - 1], Y[l]))[0])
            magnitudes.append(m)
        new = settle(rank(magnitudes, 2 * K, "projection"))
        new_correlations, energies = state(new)
        held = _deliver(energies, everyone, 1, "residual norm", "broadcast", rounds)
        totals = [sum(received) for received in held]  # ascending node order
        trace.append(totals[0])
        supports.append(new)
        sizes.append([len(columns) for columns in candidates])
        if trace[-1] >= trace[-2]:
            hit_max_iters = False  # no improvement: keep the previous support
            break
        support, correlations = new, new_correlations
    return RunResult(support, len(trace) - 1, WireCounter(rounds), trace, supports, sizes,
                     hit_max_iters)

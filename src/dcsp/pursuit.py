"""Decentralized subspace-pursuit style support recovery.

One pursuit loop, ``_pursue``, runs both algorithms through two public
entry points:

* :func:`ssp_run` — simultaneous subspace pursuit over a fully connected
  network: every node shares correlation vectors, projection coefficients
  and residual energies with every other node at each iteration.
* :func:`dcsp_run` — the collaborative variant: O(N)-length traffic stays
  inside each node's neighborhood, while only K-length local support
  estimates and scalar residual energies travel network-wide, fused by
  majority rule.

The loop's private ``fuse`` flag is the whole difference.  Without it
(ssp) the N-length correlation and 2K-framed projection rounds are
broadcasts, so each round sums to one network-wide (N,) vector and ranks
one shared K-set, which is the next support.  With it (dcsp) those rounds
are neighbor exchanges, each node ranks its own K-set from an (L, N)
stack of neighborhood sums, and every ranked stack of K-sets goes through
a local-support broadcast and majority fusion (``max_occ``).  Either way
the candidate sets form an (L, N) mask and are projected by size group;
ssp's shared candidate is a single group.  Both stop as soon as the
network-wide residual energy fails to decrease, reverting to the previous
support.  All inter-node traffic is routed through :mod:`dcsp.network`,
so the attached wire counter reproduces the closed-form message counts
exactly.

Floating-point determinism: all cross-node reductions (correlation sums,
scattered coefficient magnitudes, residual-energy sums) are accumulated
sequentially in ascending node order.  With full collaboration every node
then computes bit-identical aggregates, which is what makes dcsp_run with
g = L coincide with ssp_run support-for-support: majority fusion of L
equal K-sets returns that K-set.

Node batching: the per-node steps of a round (correlation, projection onto
candidate columns, residual update, top-K selection) run as one stacked
:mod:`dcsp.linalg` call over the instance's (L, M, N) dictionary stack;
stacked calls are bit-identical per slice to the per-node ones.  The
fabric hands back every node's view of a round as one array, so a
neighborhood sum is one sequential sum over the view's sender axis.
Projection coefficients travel as their magnitudes scattered into an
(L, N) stack; the charge stays at the 2K frame, since a node still
transmits its candidate set and coefficients.

Per-draw memo: the residuals, residual energies and correlations against
a support depend only on the draw and the support, and both drivers keep
revisiting supports (each iteration starts from the support the last one
ended on; in the easy regime ssp and dcsp both sit on the true support
from initialization on).  So the (L, M) residual stack, the per-node
energies and the (L, N) correlation stack are computed at most once per
instance and support (the correlations on first use) and kept read-only
in ``instance.memo`` under ``support.tobytes()``; the empty support of the
initialization is a read-only view of the measurements.  A cached value
is what the same call on the same inputs recomputes, so results are
bit-identical; a projection that raises caches nothing.  An instance's
arrays must therefore not be modified once a driver has run on it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import column_submatrix, correlate, lstsq, max_ind, max_occ, resid
from .network import (
    Topology,
    WireCounter,
    broadcast_all,
    exchange_neighbors,
    full_topology,
)
from .problems import ProblemInstance, _integer

_NO_SUPPORT = np.empty(0, dtype=np.int64)


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
    """Sum a view over its sender axis (-2), sequentially in sender order.

    Every summand is a non-negative magnitude, so the zero pad rows of a
    neighbor view and the zeros off a node's candidate set add ``+0.0``
    exactly; the first addend is always a real row, since every node is in
    its own neighborhood.  The loop beats ``np.add.accumulate`` over the
    sender axis, which gives the same sums 13 times slower (226 against
    17 µs at L=40, g=3, N=200).
    """
    total = view[..., 0, :].copy()
    for k in range(1, view.shape[-2]):
        total += view[..., k, :]
    return total


@dataclass
class _ResidualState:
    """Every node's residual against one support, read-only.

    ``residuals`` is the (L, M) stack; ``energies`` the per-node residual
    energies in node order; ``correlations`` the (L, N) stack
    ``|A_l.T @ r_l|``, computed on first use.
    """

    dictionaries: np.ndarray
    residuals: np.ndarray

    @cached_property
    def energies(self):
        return tuple(float(r @ r) for r in self.residuals)

    @cached_property
    def correlations(self):
        c = correlate(self.dictionaries, self.residuals)
        c.flags.writeable = False
        return c


def _residual_state(instance, support):
    """The :class:`_ResidualState` of ``instance`` against the sorted index
    set ``support``, from the instance's memo when an earlier call (by
    either driver) computed it."""
    key = support.tobytes()
    state = instance.memo.get(key)
    if state is None:
        if support.size:
            residuals = resid(
                instance.measurements, column_submatrix(instance.dictionaries, support)
            )
        else:
            residuals = instance.measurements.view()
        residuals.flags.writeable = False
        state = instance.memo[key] = _ResidualState(instance.dictionaries, residuals)
    return state


def _project_candidates(instance, candidates):
    """Magnitudes of each node's least-squares coefficients on its own
    candidate set, scattered into an (L, N) stack.

    ``candidates`` is an (L, N) boolean mask with one candidate set per
    row.  Nodes whose candidate sets have the same size share one stacked
    :func:`lstsq` call, each slice holding its own node's columns.  Also
    returns the candidate sizes.
    """
    # gathering whole columns from the (L, N, M) view takes one index pair
    # per column rather than one index triple per entry
    columns = instance.dictionaries.transpose(0, 2, 1)
    Y = instance.measurements
    sizes = np.count_nonzero(candidates, axis=1)
    magnitudes = np.zeros(candidates.shape)
    for size in np.unique(sizes):
        nodes = np.flatnonzero(sizes == size)
        cols = np.nonzero(candidates[nodes])[1].reshape(nodes.size, size)
        sub = columns[nodes[:, None], cols].transpose(0, 2, 1)  # (nodes, M, size)
        magnitudes[nodes[:, None], cols] = np.abs(lstsq(sub, Y[nodes]))
    return magnitudes, sizes


def _run_limits(config, topology, max_iters):
    """Check a run's ``topology`` (if given) and iteration cap against the
    :class:`ProblemConfig` ``config``; returns the cap, default ``3 * K``."""
    if topology is not None and topology.L != config.L:
        raise ValueError(f"topology has {topology.L} nodes, problem has L={config.L}")
    if max_iters is None:
        return 3 * config.K
    max_iters = _integer("max_iters", max_iters)
    if max_iters < 1:
        raise ValueError(f"need max_iters >= 1, got max_iters={max_iters}")
    return max_iters


def _pursue(instance, topology, max_iters, fuse):
    """The pursuit loop behind :func:`ssp_run` (``fuse=False``) and
    :func:`dcsp_run` (``fuse=True``); see the module docstring."""
    cfg = instance.config
    N, K, L = cfg.N, cfg.K, cfg.L
    max_iters = _run_limits(cfg, topology, max_iters)

    counter = WireCounter()
    share = exchange_neighbors if fuse else broadcast_all
    nodes = np.arange(L)[:, None]

    def settle(ranked):
        # fusion: a broadcast round hands every node all L local K-sets in
        # node order, and the network keeps the K most frequent indices
        if not fuse:
            return ranked
        local = broadcast_all(ranked, topology, counter, K, "local support")
        return max_occ(local.ravel(), K)

    # initialization: share measurement correlations, pick the K strongest
    c0 = share(_residual_state(instance, _NO_SUPPORT).correlations,
               topology, counter, N, "correlation")
    support = settle(max_ind(_ordered_sum(c0), K))
    state = _residual_state(instance, support)

    trace = [sum(state.energies)]
    support_trace = [support]
    candidate_sizes = []
    hit_cap = False

    for _ in range(max_iters):
        # share residual correlations, merge the K strongest into candidates
        c = share(state.correlations, topology, counter, N, "correlation")
        candidates = np.zeros((L, N), dtype=bool)
        candidates[:, support - 1] = True
        candidates[nodes, max_ind(_ordered_sum(c), K) - 1] = True
        magnitudes, sizes = _project_candidates(instance, candidates)

        # share (candidate set, coefficients) and re-rank
        magnitudes = share(magnitudes, topology, counter, 2 * K, "projection")
        new_support = settle(max_ind(_ordered_sum(magnitudes), K))

        new_state = _residual_state(instance, new_support)
        broadcast_all(new_state.energies, topology, counter, 1, "residual norm")
        new_sum = sum(new_state.energies)  # left-to-right, ascending node order

        trace.append(new_sum)
        support_trace.append(new_support)
        candidate_sizes.append(sizes.tolist())

        if new_sum >= trace[-2]:
            break  # no improvement: keep the previous support and stop
        support, state = new_support, new_state
    else:
        hit_cap = True

    return RunResult(
        support=support,
        iterations=len(trace) - 1,
        wire=counter,
        residual_trace=trace,
        support_trace=support_trace,
        candidate_sizes=candidate_sizes,
        hit_max_iters=hit_cap,
    )


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
    if topology is None:
        topology = full_topology(instance.config.L)
    if not topology.is_full():
        raise ValueError("ssp_run requires full collaboration")
    return _pursue(instance, topology, max_iters, fuse=False)


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
    return _pursue(instance, topology, max_iters, fuse=True)


"""Decentralized joint sparsity-pattern recovery.

Greedy subspace-pursuit recovery of a support set shared by all nodes of a
network, under exact per-scalar communication accounting.  One pursuit
loop runs as a fully collaborative variant (``ssp_run``) or as a
neighborhood-collaborative variant with majority-rule fusion
(``dcsp_run``).  Closed-form cost models cover both plus the standard
comparison baselines, and a Monte Carlo harness, ``run_sweep``, sweeps
measurement count (figure fig1) or network scale (figure fig2, whose table
gives both the message and the iteration view).
"""

from .costs import (
    ALGORITHMS,
    CostParams,
    cost_dcsp_general,
    cost_table1,
)
from .experiments import (
    FIGURES,
    ExperimentConfig,
    SweepRow,
    derive_trial_seed,
    run_sweep,
)
from .linalg import (
    RankDeficientError,
    as_index_set,
    correlate,
    lstsq_augmented,
    max_ind,
    max_occ,
    resid,
)
from .network import (
    Topology,
    WireCounter,
    broadcast_all,
    exchange_neighbors,
    full_topology,
    ring_topology,
    topology_from_listing,
)
from .problems import (
    ProblemConfig,
    ProblemInstance,
    generate,
    success,
)
from .pursuit import RunResult, dcsp_run, ssp_run

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CostParams",
    "ExperimentConfig",
    "FIGURES",
    "ProblemConfig",
    "ProblemInstance",
    "RankDeficientError",
    "RunResult",
    "SweepRow",
    "Topology",
    "WireCounter",
    "as_index_set",
    "broadcast_all",
    "correlate",
    "cost_dcsp_general",
    "cost_table1",
    "dcsp_run",
    "derive_trial_seed",
    "exchange_neighbors",
    "full_topology",
    "generate",
    "lstsq_augmented",
    "max_ind",
    "max_occ",
    "resid",
    "ring_topology",
    "run_sweep",
    "ssp_run",
    "success",
    "topology_from_listing",
]

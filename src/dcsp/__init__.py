"""Decentralized joint sparsity-pattern recovery.

Greedy subspace-pursuit recovery of a support set shared by all nodes of a
network, under exact per-scalar communication accounting.  One pursuit
loop, ``run_batch``, runs a fully collaborative variant (ssp) and a
neighborhood-collaborative variant with majority-rule fusion (dcsp) on a
batch of draws.  Closed-form cost models cover both plus the standard
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
from .linalg import RankDeficientError
from .network import (
    Topology,
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
from .pursuit import RunResult, run_batch

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
    "cost_dcsp_general",
    "cost_table1",
    "derive_trial_seed",
    "full_topology",
    "generate",
    "ring_topology",
    "run_batch",
    "run_sweep",
    "success",
    "topology_from_listing",
]

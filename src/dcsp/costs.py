"""Closed-form communication-cost formulas.

Costs count transmitted scalars under pairwise accounting (each recipient
charged separately) with fixed message frames: N for correlation vectors,
2K for projection coefficients, K for support sets, 1 for residual
energies.  On ring topologies these expressions agree with the simulator's
wire counter to the integer, once T is set to the run's executed iteration
count.
"""

from dataclasses import dataclass

from .linalg import _integer

ALGORITHMS = ("jsp_jomp", "somp", "dcomp", "ssp", "dcsp")


@dataclass(frozen=True)
class CostParams:
    """Inputs to the cost formulas; ``g``/``T`` only where the row uses them."""

    N: int
    K: int
    L: int
    g: int = None
    T: int = None

    def __post_init__(self):
        # the bounds of ProblemConfig (K <= N) and ring_topology (2 <= g <= L)
        for name, least, most in (("N", 1, None), ("K", 1, "N"), ("L", 1, None),
                                  ("T", 0, None), ("g", 2, "L")):
            if name in ("N", "K", "L") or getattr(self, name) is not None:
                bound = most and (most, getattr(self, most))
                object.__setattr__(self, name, _integer(name, getattr(self, name), least, bound))

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"this cost formula needs {name}")


def cost_dcsp_general(N, K, L, T, neighbor_link_count) -> int:
    """DCSP cost on an arbitrary topology with the given sum of (|G_l| - 1)."""
    init = N * neighbor_link_count + K * (L - 1) * L
    per_iter = (N + 2 * K) * neighbor_link_count + (K + 1) * (L - 1) * L
    return init + T * per_iter


def cost_table1(algorithm: str, p: CostParams) -> int:
    """Transmitted-message count for any of the five compared algorithms.

    jsp_jomp  K(L-1)L
    somp      KN(L-1)L
    dcomp     T[(g-1)NL + (L-1)L]
    ssp       [N + T(N + 2K + 1)](L-1)L, fully collaborative subspace pursuit
    dcsp      N L(g-1) + K(L-1)L + T L[(g-1)(N + 2K) + (K+1)(L-1)]: on a
              symmetric network, neighborhood correlation and projection
              exchanges plus network-wide support and residual-energy rounds
    """
    if algorithm == "jsp_jomp":
        return p.K * (p.L - 1) * p.L
    if algorithm == "somp":
        return p.K * p.N * (p.L - 1) * p.L
    if algorithm == "dcomp":
        p.require("g", "T")
        return p.T * ((p.g - 1) * p.N * p.L + (p.L - 1) * p.L)
    if algorithm == "ssp":
        p.require("T")
        return (p.N + p.T * (p.N + 2 * p.K + 1)) * (p.L - 1) * p.L
    if algorithm == "dcsp":
        p.require("g", "T")
        return cost_dcsp_general(p.N, p.K, p.L, p.T, p.L * (p.g - 1))
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")

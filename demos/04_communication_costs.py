# Communication accounting: the analytic message-count formulas, their
# exact agreement with the simulator's wire counter, and the scaling
# comparison across network sizes.

from dcsp import (
    CostParams,
    ProblemConfig,
    cost_table1,
    dcsp_run,
    generate,
    ring_topology,
    ssp_run,
)

# 1) The wire counter reproduces the closed forms to the integer, once T
#    is set to the executed iteration count.
inst = generate(ProblemConfig(N=60, M=30, K=4, L=6, seed=11))
s = ssp_run(inst)
d = dcsp_run(inst, ring_topology(6, 3))
print("ssp : counted", s.wire.total, "| formula",
      cost_table1("ssp", CostParams(N=60, K=4, L=6, T=s.iterations)))
print("dcsp: counted", d.wire.total, "| formula",
      cost_table1("dcsp", CostParams(N=60, K=4, L=6, g=3, T=d.iterations)))
print("dcsp split: neighbor", d.wire.neighbor_scalars,
      "broadcast", d.wire.broadcast_scalars)

# 2) Analytic comparison across all five algorithms at one operating point.
p = CostParams(N=200, K=10, L=6, g=3, T=3)
print("\nmessage counts at N=200, K=10, L=6, g=3, T=3")
for name in ("jsp_jomp", "somp", "dcomp", "ssp", "dcsp"):
    print(f"  {name:>8}: {cost_table1(name, p):>8}")

# 3) Scaling with the network: the neighborhood variant replaces most of
#    the O(N)-length traffic with K-length support exchanges, so its cost
#    grows far more slowly than full collaboration.
print(f"\n{'L':>4} {'ssp':>10} {'dcsp':>10} {'ratio':>7}")
for L in (5, 10, 20, 40, 80):
    ssp_cost = cost_table1("ssp", CostParams(N=200, K=10, L=L, T=2))
    dcsp_cost = cost_table1("dcsp", CostParams(N=200, K=10, L=L, g=3, T=2))
    print(f"{L:>4} {ssp_cost:>10} {dcsp_cost:>10} {ssp_cost / dcsp_cost:>7.1f}")

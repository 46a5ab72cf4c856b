# Run both recovery algorithms on one seeded instance and inspect every
# iteration: supports, residual energies, and exactly what went over the
# wire.  `dcsp trial --algorithm ssp --seed 42` prints the full transcript
# of one such run.

from dcsp import ProblemConfig, generate, ring_topology, run_batch, success

instance = generate(ProblemConfig(N=200, M=50, K=10, L=6, seed=42))


def show(run):
    for t, (support, energy) in enumerate(zip(run.support_trace, run.residual_trace)):
        print(f"t={t}: support={support.tolist()} residual energy={energy:.3e}")
    for label, kind, scalars in run.wire.rounds:
        print(f"  {kind} round '{label}': {scalars} scalars")
    print("recovered the true support:", success(run.support, instance))


print("=== fully collaborative subspace pursuit ===")
ssp = run_batch(("ssp",), [instance], None)["ssp"][0]
show(ssp)

print("\n=== neighborhood-collaborative variant, g=3 ===")
dcsp = run_batch(("dcsp",), [instance], ring_topology(6, 3))["dcsp"][0]
show(dcsp)

ssp_scalars, dcsp_scalars = ssp.wire.total, dcsp.wire.total
print("\nmessage scalars: ssp =", ssp_scalars, " dcsp =", dcsp_scalars)
print("dcsp saves a factor of", round(ssp_scalars / dcsp_scalars, 2))

# With g = L the collaborative variant degenerates into the full version:
# identical supports, iteration for iteration.
print("\n=== same instance, g=L (degenerates into the full version) ===")
full = run_batch(("dcsp",), [instance], ring_topology(6, 6))["dcsp"][0]
print("g=L support equals ssp support:", (full.support == ssp.support).all())

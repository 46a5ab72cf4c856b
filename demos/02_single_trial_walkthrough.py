# Run both recovery algorithms on one seeded instance and inspect every
# iteration: supports, residual energies, and exactly what went over the
# wire.

from dcsp import ProblemConfig, run_single_trial

config = ProblemConfig(N=200, M=50, K=10, L=6, seed=42)

print("=== fully collaborative subspace pursuit ===")
ssp = run_single_trial(config, "ssp")

print("\n=== neighborhood-collaborative variant, g=3 ===")
dcsp = run_single_trial(config, "dcsp", g=3)

ssp_scalars, dcsp_scalars = ssp.run.wire.total, dcsp.run.wire.total
print("\nmessage scalars: ssp =", ssp_scalars, " dcsp =", dcsp_scalars)
print("dcsp saves a factor of", round(ssp_scalars / dcsp_scalars, 2))

# With g = L the collaborative variant degenerates into the full version:
# identical supports, iteration for iteration.
print("\n=== same instance, g=L (degenerates into the full version) ===")
full = run_single_trial(config, "dcsp", g=6, emit=None)
print("g=L support equals ssp support:", (full.run.support == ssp.run.support).all())

# Miniature measurement sweep: how the exact-recovery frequency climbs
# with the number of measurements per node.  The full-size figure uses
# N=200, K=10, 500 trials per point (see README for the CLI call); this
# scaled-down run finishes in a few seconds.

from dcsp import ExperimentConfig, run_sweep

config = ExperimentConfig(
    sweep="M",
    values=(8, 10, 12, 14, 16, 20),
    N=60,
    K=4,
    L=6,
    g=3,
    trials=40,
    seed=3,
)
rows = run_sweep(config)

print(f"N={config.N} K={config.K} L={config.L} g={config.g}, "
      f"{config.trials} trials per point\n")
print(f"{'M':>4}  {'ssp success':>12}  {'dcsp success':>12}")
for row in rows:
    print(f"{row.value:>4}  {row.stats['ssp'].success_rate:>12.2f}  "
          f"{row.stats['dcsp'].success_rate:>12.2f}")

print("\nBoth transition from failure to certainty as M grows; the full")
print("collaboration needs slightly fewer measurements than the g=3 variant.")

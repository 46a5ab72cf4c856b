# Walk through the building blocks: selection operators, least-squares
# projections, and the joint-sparsity problem generator.

import numpy as np

from dcsp import ProblemConfig, generate
from dcsp.linalg import correlate, lstsq_augmented, max_ind, max_occ, resid

# The selection operators work on magnitudes and break ties toward the
# smaller index, so repeated runs always agree.
v = np.array([0.1, -5.0, 2.0, 0.3])
print("max_ind([0.1, -5, 2, 0.3], K=2) ->", max_ind(v, 2))

votes = [1, 1, 2, 3, 3, 3]
print("max_occ({1,1,2,3,3,3}, K=2)     ->", max_occ(votes, 2))

# Least-squares projection and its residual, computed by QR.  Both take a
# stack of [A | y] matrices, here a stack of one.
rng = np.random.default_rng(0)
A = rng.standard_normal((6, 3))
y = rng.standard_normal(6)
Ay = np.column_stack([A, y])[None]
coeffs = lstsq_augmented(Ay)[0]
r = resid(Ay)[0]
print("\nprojection coefficients:", np.round(coeffs, 4))
print("residual is orthogonal to the columns:", np.round(A.T @ r, 12))

# A problem instance: L nodes share one K-sparse support, each with its
# own Gaussian dictionary and signal values.
config = ProblemConfig(N=40, M=16, K=3, L=4, seed=7)
inst = generate(config)
print("\ntrue support:", inst.true_support)
print("node 1 measurements shape:", inst.measurements[0].shape)

# The true support explains each node's data exactly (noiseless model).
for l in range(config.L):
    sub = inst.dictionaries[l][:, inst.true_support - 1]  # 1-based support
    r = resid(np.column_stack([sub, inst.measurements[l]])[None])[0]
    print(f"node {l + 1}: residual energy on the true support = {r @ r:.3e}")

# Correlation magnitudes |A^T y| concentrate on the support; summing them
# across nodes is what the recovery algorithms vote with.  The vote alone
# can miss indices at small M; the iterative pursuit corrects that.
total = sum(correlate(inst.dictionaries[l], inst.measurements[l]) for l in range(4))
print("\ntop-3 correlation vote:", max_ind(total, 3), "(truth:", inst.true_support, ")")

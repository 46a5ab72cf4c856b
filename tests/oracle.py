"""Exhaustive-search decoder, the test oracle for small instances."""

from itertools import combinations
from math import comb

import numpy as np

from dcsp.linalg import resid

EXHAUSTIVE_CAP = 10**6


class TooLargeError(Exception):
    """Exhaustive enumeration would exceed the subset cap."""


def exhaustive_decoder(instance, cap=EXHAUSTIVE_CAP):
    """Jointly optimal noiseless decoder by exhaustive support search.

    Scans all C(N, K) supports and returns the one minimizing the total
    residual energy across nodes; ties keep the lexicographically first.

    Raises
    ------
    TooLargeError
        If C(N, K) exceeds ``cap``.
    """
    cfg = instance.config
    N, K = cfg.N, cfg.K
    n_subsets = comb(N, K)
    if n_subsets > cap:
        raise TooLargeError(f"C({N},{K}) = {n_subsets} exceeds cap {cap}")

    A = instance.dictionaries
    y = instance.measurements[..., None]
    best_support, best_value = None, np.inf
    for combo in combinations(range(1, N + 1), K):
        s = np.array(combo, dtype=np.int64)
        value = 0.0
        for r in resid(np.concatenate([A[..., s - 1], y], 2)):
            value += float(r @ r)
        if value < best_value:
            best_support, best_value = s, value
    return best_support

"""Random joint-sparsity problem instances.

Every node observes ``y_l = A_l x_l`` where the ``x_l`` are K-sparse with a
single support set shared by all L nodes.  Dictionaries and nonzero entries
are standard i.i.d. Gaussian; measurements are noiseless.

Reproducibility: draws are keyed off ``ProblemConfig.seed`` through numpy
``SeedSequence`` spawn keys, one independent stream per object class and
node::

    spawn_key (0, 0)  -> support set
    spawn_key (1, l)  -> dictionary of node l   (l = 1..L)
    spawn_key (2, l)  -> signal values of node l

so enlarging the network never perturbs earlier nodes' draws.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSignalError
from .linalg import as_index_set

_ZERO_RETRIES = 100


@dataclass(frozen=True)
class ProblemConfig:
    """Problem dimensions and the master seed.

    N: ambient dimension, M: measurements per node, K: shared sparsity,
    L: node count.
    """

    N: int
    M: int
    K: int
    L: int
    seed: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.L < 2:
            raise ValueError("L must be >= 2")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.K > self.N:
            raise ValueError("K cannot exceed N")
        if not (self.N > self.M >= 2 * self.K):
            # recoverability regime; permitted for stress tests
            warnings.warn(
                f"outside the N > M >= 2K regime (N={self.N}, M={self.M}, K={self.K})",
                stacklevel=3,
            )


@dataclass
class ProblemInstance:
    """One generated problem: data for all L nodes plus the ground truth.

    The node data are stacked along a leading node axis, so that node l
    (1-based) owns row ``l - 1`` of each array and the pursuit drivers can
    run one stacked linear-algebra call over all nodes:

    * ``dictionaries``: float64 array of shape (L, M, N);
    * ``signals``: float64 array of shape (L, N);
    * ``measurements``: float64 array of shape (L, M).

    Per-node sequences (e.g. lists of matrices) are stacked on
    construction.  Treated as immutable after generation: ``memo`` caches
    the per-support residual state that :mod:`dcsp.pursuit` derives from
    the arrays, so they must not be modified once a driver has run.  Safe
    to share across parallel trial workers, each process holding its own
    copy and so its own memo.
    """

    config: ProblemConfig
    dictionaries: np.ndarray
    signals: np.ndarray
    measurements: np.ndarray
    true_support: np.ndarray = field(default=None)  # index set, size K
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dictionaries = np.asarray(self.dictionaries, dtype=np.float64)
        self.signals = np.asarray(self.signals, dtype=np.float64)
        self.measurements = np.asarray(self.measurements, dtype=np.float64)


def _stream(seed, class_id, node_id):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(class_id, node_id))
    )


def generate(config: ProblemConfig) -> ProblemInstance:
    """Draw a problem instance, fully determined by ``config``.

    Dictionary entries and the nonzero signal entries are i.i.d. standard
    Gaussian, the support is drawn uniformly without replacement, and
    measurements are exact matrix-vector products.
    """
    N, M, K, L = config.N, config.M, config.K, config.L

    support_rng = _stream(config.seed, 0, 0)
    support = np.sort(support_rng.choice(N, size=K, replace=False).astype(np.int64) + 1)

    dictionaries = np.empty((L, M, N))
    signals = np.zeros((L, N))
    measurements = np.empty((L, M))
    for l in range(1, L + 1):
        A = dictionaries[l - 1]
        _stream(config.seed, 1, l).standard_normal(out=A)
        sig_rng = _stream(config.seed, 2, l)
        values = sig_rng.standard_normal(K)
        for _ in range(_ZERO_RETRIES):
            zero = values == 0.0
            if not zero.any():
                break
            values[zero] = sig_rng.standard_normal(int(zero.sum()))
        else:
            raise DegenerateSignalError(f"node {l}: could not draw nonzero entries")
        signals[l - 1, support - 1] = values
        np.matmul(A, signals[l - 1], out=measurements[l - 1])

    return ProblemInstance(config, dictionaries, signals, measurements, support)


def success(estimate, instance: ProblemInstance) -> bool:
    """True iff ``estimate`` equals the instance's true support as a set."""
    return np.array_equal(as_index_set(estimate), instance.true_support)


def dump_instance(instance: ProblemInstance, path):
    """Write an instance to a plain-text file (debugging aid).

    Format, one whitespace-separated record per line:

    line 1: ``N M K L seed``
    line 2: the support set (K 1-based indices)
    then per node l = 1..L, three lines: dictionary entries flattened
    row-major (M*N floats), signal (N floats), measurement (M floats).
    Floats are written with 17 significant digits and round-trip exactly.
    """
    c = instance.config

    def fmt(a):
        return " ".join(format(x, ".17g") for x in np.asarray(a).ravel())

    with open(path, "w") as fh:
        fh.write(f"{c.N} {c.M} {c.K} {c.L} {c.seed}\n")
        fh.write(" ".join(str(i) for i in instance.true_support) + "\n")
        for l in range(c.L):
            fh.write(fmt(instance.dictionaries[l]) + "\n")
            fh.write(fmt(instance.signals[l]) + "\n")
            fh.write(fmt(instance.measurements[l]) + "\n")


def load_instance(path) -> ProblemInstance:
    """Read an instance written by :func:`dump_instance`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    N, M, K, L, seed = (int(v) for v in lines[0].split())
    config = ProblemConfig(N, M, K, L, seed)
    support = np.array([int(v) for v in lines[1].split()], dtype=np.int64)
    dictionaries, signals, measurements = [], [], []
    def parse(line):
        return np.fromiter(map(float, line.split()), dtype=np.float64)

    for l in range(L):
        base = 2 + 3 * l
        dictionaries.append(parse(lines[base]).reshape(M, N))
        signals.append(parse(lines[base + 1]))
        measurements.append(parse(lines[base + 2]))
    return ProblemInstance(config, dictionaries, signals, measurements, support)

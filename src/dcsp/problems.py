"""Random joint-sparsity problem instances.

Every node observes ``y_l = A_l x_l`` where the ``x_l`` are K-sparse with a
single support set shared by all L nodes.  Dictionaries and nonzero entries
are standard i.i.d. Gaussian; measurements are noiseless.

Reproducibility: draws are keyed off ``ProblemConfig.seed``, an int in
``0 .. 2**64 - 1``, one independent PCG64 stream per object class and
node, each the stream of
``default_rng(SeedSequence(seed, spawn_key=key))``::

    spawn_key (0, 0)  -> support set
    spawn_key (1, l)  -> dictionary of node l   (l = 1..L)
    spawn_key (2, l)  -> signal values of node l

so enlarging the network never perturbs earlier nodes' draws.  The 2L+1
streams of every draw of a batch are seeded from one ``SeedSequence(seed)``
pool per draw and one vectorized pass of numpy's ``SeedSequence`` hash over
the spawn keys (:func:`_stream_states`), which yields the same PCG64 states
as the per-key ``SeedSequence`` objects, at a fraction of the cost.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _integer, as_index_set

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, steps):
    # the hash constant before hashmix step i is init * mult**i mod 2**32
    return np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in steps], dtype=np.uint32)


# SeedSequence(seed).pool spends A constants 0..16 in its 16 hashmix
# steps; the 4 steps per spawn-key word then take 16..24
_KEY_HASH = _hash_constants(_INIT_A, _MULT_A, range(16, 25))
# generate_state(4, uint64) reads 8 words, hashed with B constants 0..8
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, range(9))


@dataclass(frozen=True)
class ProblemConfig:
    """Problem dimensions and the master seed.

    N: ambient dimension, M: measurements per node, K: shared sparsity,
    L: node count, each stored as an int.  M >= 2K, since subspace
    pursuit's candidate sets reach 2K columns.  The seed lies in
    ``0 .. 2**64 - 1``, the range of a sweep's trial seeds, so it fills at
    most two 32-bit words of the seeding hash.
    """

    N: int
    M: int
    K: int
    L: int
    seed: int

    def __post_init__(self):
        for name, least in (("N", None), ("M", None), ("K", 1), ("L", 2), ("seed", None)):
            most = ("N", self.N) if name == "K" else None  # N is checked first
            object.__setattr__(self, name, _integer(name, getattr(self, name), least, most))
        if self.M < 2 * self.K:
            raise ValueError(f"need M >= 2K, got M={self.M} and K={self.K}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"need 0 <= seed < 2**64, got seed={self.seed}")


@dataclass
class ProblemInstance:
    """One generated problem: data for all L nodes plus the ground truth.

    The node data are stacked along a leading node axis, so that node l
    (1-based) owns row ``l - 1`` of each array and the pursuit drivers can
    run one stacked linear-algebra call over all nodes:

    * ``dictionaries``: float64 array of shape (L, M, N);
    * ``signals``: float64 array of shape (L, N);
    * ``measurements``: float64 array of shape (L, M).

    Safe to share across parallel trial workers, each process holding its
    own copy.
    """

    config: ProblemConfig
    dictionaries: np.ndarray
    signals: np.ndarray
    measurements: np.ndarray
    true_support: np.ndarray = field(default=None)  # index set, size K


def _hashmix(value, h, h_next):
    # SeedSequence's hashmix on uint32 arrays, whose products wrap mod
    # 2**32 as the C code's do; ``h`` is the hash constant before the
    # step, ``h_next`` the one after
    x = (value ^ h) * h_next & _MASK32
    return x ^ x >> 16


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _stream_states(seeds, keys):
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=key)`` per seed
    and key.

    ``keys`` is a sequence of n (class, node) pairs of 32-bit ints.
    Returns uint64 words of shape (len(seeds), n, 4): entry [s, i] equals
    ``SeedSequence(seeds[s], spawn_key=keys[i]).generate_state(4, np.uint64)``.

    The seed words mix into the pool alone, so each seed's pool is read
    from ``SeedSequence(seed).pool``.  The two spawn-key words come last
    and only ever mix into the pool, so they run in one vectorized pass
    over every seed and key in uint32 arithmetic, as does the final
    ``generate_state``.
    """
    from numpy.random import SeedSequence  # on the first draw, see _streams

    pool = np.array([SeedSequence(seed).pool for seed in seeds])[:, None]  # (seeds, 1, 4)
    for c, column in enumerate(np.asarray(keys, dtype=np.uint32).T):
        h = _KEY_HASH[4 * c:]
        pool = _mix(pool, _hashmix(column[:, None], h[:4], h[1:5]))
    state = _hashmix(np.concatenate([pool, pool], axis=-1), _STATE_HASH[:8], _STATE_HASH[1:])
    # pairs of 32-bit words read as little-endian uint64, as numpy does
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """Hands PCG64 precomputed seed words in place of a SeedSequence.

    Registered as a ``numpy.random.bit_generator.ISeedSequence`` on first
    use; PCG64 seeds itself from ``generate_state(4, np.uint64)``.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seeds, keys):
    """Per seed, one ``numpy.random.Generator`` per spawn key, see
    :func:`_stream_states`."""
    # numpy.random is imported on the first draw, not with the module, so
    # that `import dcsp` does not pay for loading it (README)
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)  # a cached no-op after the first call
    return [[Generator(PCG64(_SeedWords(w))) for w in states]
            for states in _stream_states(seeds, keys)]


def generate_batch(configs, out=None) -> list:
    """Draw one problem instance per config of ``configs``, configs of one
    N, M, K and L; each instance is fully determined by its config.

    The support is drawn uniformly without replacement.  The measurements
    come from one stacked product, which makes the same dot per node as
    ``A_l @ x_l``.  Each instance's arrays are views of the batch's
    (B, ...) arrays.  ``out``, a float64 array of shape (B, L, M, N),
    receives the dictionaries in place of a new array (a sweep draws a
    batch into one stack this way).
    """
    if len({(c.N, c.M, c.K, c.L) for c in configs}) != 1:
        raise ValueError("a batch needs configs of one N, M, K and L")
    N, M, K, L = configs[0].N, configs[0].M, configs[0].K, configs[0].L
    B = len(configs)
    keys = [(0, 0)] + [(c, l) for c in (1, 2) for l in range(1, L + 1)]

    dictionaries = np.empty((B, L, M, N)) if out is None else out
    values = np.empty((B, L, K))
    supports = np.empty((B, K), dtype=np.int64)
    for b, rngs in enumerate(_streams([config.seed for config in configs], keys)):
        supports[b] = np.sort(rngs[0].choice(N, size=K, replace=False)) + 1
        for l in range(L):
            rngs[1 + l].standard_normal(out=dictionaries[b, l])
            rngs[1 + L + l].standard_normal(out=values[b, l])
    signals = np.zeros((B, L, N))
    signals[np.arange(B)[:, None, None], np.arange(L)[:, None], supports[:, None] - 1] = values
    measurements = np.matmul(dictionaries, signals[..., None])[..., 0]

    return [ProblemInstance(config, dictionaries[b], signals[b], measurements[b], supports[b])
            for b, config in enumerate(configs)]


def generate(config: ProblemConfig) -> ProblemInstance:
    """Draw a problem instance, fully determined by ``config``: a batch of
    one of :func:`generate_batch`."""
    return generate_batch([config])[0]


def success(estimate, instance: ProblemInstance) -> bool:
    """True iff ``estimate`` equals the instance's true support as a set."""
    return np.array_equal(as_index_set(estimate), instance.true_support)


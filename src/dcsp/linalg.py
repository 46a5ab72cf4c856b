"""Dense linear-algebra primitives and index-selection operators.

Conventions used throughout the library:

* Matrices and vectors are real-valued float64 ``numpy`` arrays.
* An *index set* is a 1-d ``int64`` array of distinct 1-based indices into
  ``{1..N}``, stored sorted ascending.  Canonical ordering makes set
  equality plain ``numpy.array_equal``.
* An *index multiset* is a 1-d ``int64`` array where duplicates are allowed
  (e.g. the concatenation of several nodes' local support estimates).
* All tie-breaks select the smaller index first, so every selection
  operator is deterministic across runs and platforms.
"""

import operator

import numpy as np

# Relative threshold on the triangular factor's diagonal below which the
# selected columns are declared rank deficient.
RANK_TOL = 1e-10


class RankDeficientError(np.linalg.LinAlgError, ValueError):
    """Selected dictionary columns are numerically rank deficient.

    Signals a degenerate random draw; Monte Carlo callers treat the
    trial as aborted and redraw.  It is a ValueError on any numpy.
    """


def _integer(name, value, least=None, most=None):
    """``operator.index(value)``, or a ValueError naming ``name`` if that
    fails, gives less than ``least`` or more than ``most``, a (name, bound)
    pair: ``_integer("g", g, 2, ("L", L))`` is the one check of 2 <= g <= L."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"need an integer {name}, got {name}={value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {name}={value}")
    if most is not None and value > most[1]:
        raise ValueError(f"need {name} <= {most[0]}, got {name}={value} and {most[0]}={most[1]}")
    return value


def _int64(values, what):
    """``values`` as an int64 array, or a ValueError naming the first entry as
    given (a list's own object) that ``operator.index`` refuses, which the
    cast would truncate (2.7) or parse ("3"), or that does not fit int64."""
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64)):
        for v in (a if isinstance(values, np.ndarray) else np.array(values, dtype=object)).flat:
            try:
                i = operator.index(v)
            except TypeError:
                raise ValueError(f"need integer entries in {what}, got {v!r}") from None
            if not -1 << 63 <= i < 1 << 63:
                raise ValueError(f"need entries in {what} that fit int64, got {i}")
    return np.asarray(a, dtype=np.int64)


def as_index_set(indices):
    """Canonicalize ``indices`` into a sorted 1-based index set array.

    Raises ValueError if ``indices`` is not 1-d, holds a non-integer, or
    if entries repeat or are < 1.  An empty set is valid.
    """
    a = _int64(indices, "an index set")
    if a.ndim != 1:
        raise ValueError(f"index sets are 1-d, got shape {a.shape}")
    s = np.sort(a)  # not np.unique: on numpy 2 its first call imports numpy.ma
    if (s[1:] == s[:-1]).any():
        repeated = next(v for i, v in enumerate(a.tolist()) if v in a[:i])
        raise ValueError(f"index set entries must be distinct, got {repeated} more than once")
    if s.size and s[0] < 1:
        raise ValueError(f"index sets are 1-based, got index {s[0]}")
    return s


def _augmented_shape(Ay):
    """The (n, M, k) sizes of the stack ``Ay`` of slices ``[A | y]``, or a
    ValueError naming its type and shape unless it is a 3-d ndarray with a
    ``y`` column and k <= M (k = 0 included)."""
    if not isinstance(Ay, np.ndarray) or Ay.ndim != 3 or not Ay.shape[2]:
        raise ValueError(f"need an (n, M, k + 1) array [A | y], got "
                         f"{type(Ay).__name__} of shape {np.shape(Ay)}")
    n, m, width = Ay.shape
    if width > m + 1:
        raise ValueError(f"need k <= M, got {width - 1} columns and {m} rows")
    return n, m, width - 1


def lstsq_augmented(Ay):
    """Least-squares coefficients of each slice ``[A | y]`` of the
    (n, M, k + 1) array ``Ay``: the (n, k) stack of the ``c`` minimizing
    ``||y - A c||_2``, each row bit-identical to the call on its slice.

    Solves from the Householder R factor of ``[A | y]`` (never by inverting
    the Gram matrix): its last column carries ``Q.T @ y``, so Q is never
    formed and the coefficients are one triangular solve away.  R is read
    in place from qr's raw factor, with no triangular copy, and ``Ay`` is
    left unchanged.  qr copies each slice into Fortran order before LAPACK
    reads it, so the bits do not depend on the layout of ``Ay``.  Raises
    ValueError unless ``Ay`` is such an array with k <= M, and
    RankDeficientError if, in any slice, the smallest diagonal magnitude
    of A's triangular factor (R's first k columns) falls below
    ``RANK_TOL`` times the largest.
    """
    n, _, k = _augmented_shape(Ay)
    if k == 0:
        return np.zeros((n, 0))
    # qr's raw factor is its own copy of [A | y], transposed: R on and
    # above the diagonal, reflectors below, zeroed here in place
    h = np.linalg.qr(Ay, mode="raw")[0]
    r = h.transpose(0, 2, 1)[:, :k]  # k rows exist even at k = M
    r[:, np.tri(k, k + 1, -1, dtype=bool)] = 0.0
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    dmin, dmax = diag.min(axis=1), diag.max(axis=1)
    deficient = (dmax == 0.0) | (dmin < RANK_TOL * dmax)
    if deficient.any():
        i = int(np.argmax(deficient))
        raise RankDeficientError(
            f"effective rank < {k} in slice {i} "
            f"(diag ratio {dmin[i]:.3e} / {dmax[i]:.3e})"
        )
    # r[..., :k] is upper triangular with a nonzero diagonal, so the LU
    # inside solve pivots nothing and reduces to back substitution
    return np.linalg.solve(r[..., :k], r[..., k:])[..., 0]


def resid(Ay):
    """Residuals ``y - A c`` of the slices ``[A | y]`` of ``Ay``, with ``c``
    from :func:`lstsq_augmented`: the (n, M) stack, each row bit-identical
    to the call on its slice, with the same errors.

    ``A c`` reads ``A`` in place, so the residual's bits, unlike the
    coefficients', follow the layout of ``Ay``: a caller matching another
    call's bits gathers in its layout (the pursuit's slices are
    column-major, as ``A[:, S - 1]`` is).
    """
    c = lstsq_augmented(Ay)
    k = c.shape[1]
    return Ay[..., k] - np.matmul(Ay[..., :k], c[..., None])[..., 0]


def max_ind(v, K):
    """1-based indices of the ``K`` largest-magnitude entries of ``v``.

    Ties are broken in favor of the smaller index, so the result is a
    deterministic function of the input.  A stack ``v`` of shape (n, N)
    selects row by row and returns shape (n, K), each row equal to the
    1-d call on that row.  Raises ValueError unless K is an integer 0..N
    and ``v`` is 1-d or 2-d.
    """
    key = -np.abs(np.asarray(v, dtype=np.float64))
    if key.ndim not in (1, 2):
        raise ValueError(f"max_ind ranks a 1-d or 2-d v, got shape {key.shape}")
    N = key.shape[-1]
    K = _integer("K", K, 0, ("N", N))
    if key.ndim == 2 and len(key) > 1 and 0 < K < N:
        # numpy's default sort ranks a stack several times faster than the
        # stable argsort.  Where each row's K-th smallest key is strictly
        # below its (K+1)-th, the keys up to it are that row's top K under
        # any tie rule, and np.nonzero lists them in ascending index order;
        # a tie or NaN across the cut falls through to the stable argsort.
        # One row is quicker through the stable argsort alone.
        ranked = np.sort(key, axis=-1)
        kth = ranked[:, K - 1:K]
        if (kth[:, 0] < ranked[:, K]).all():
            _, cols = np.nonzero(key <= kth)
            return (cols + 1).reshape(-1, K)
    # stable sort on descending magnitude keeps equal entries in index order
    order = np.argsort(key, axis=-1, kind="stable")
    return np.sort(order[..., :K].astype(np.int64) + 1, axis=-1)


def max_occ(m, K):
    """The ``K`` values of multiset ``m`` with the highest multiplicity.

    ``m`` is a flat multiset of nonnegative integers (1-based indices).
    Ties are broken in favor of the smaller value.  A stack ``m`` of shape
    (n, k) ranks row by row and returns shape (n, K), each row equal to
    the 1-d call on that row.

    Raises
    ------
    ValueError
        If ``K`` is not an integer >= 0, ``m`` is above 2-d or holds a
        non-integer, or ``K`` exceeds the distinct values of a row.
    """
    K = _integer("K", K, 0)
    m = _int64(m, "a multiset")
    if m.ndim > 2:
        raise ValueError(f"max_occ ranks a 1-d or 2-d multiset, got shape {m.shape}")
    rows = np.atleast_2d(m)
    if rows.min(initial=0) < 0:
        raise ValueError("max_occ counts nonnegative integers")
    # one bincount: row i counts its values from offset i * width on
    width = int(rows.max(initial=0)) + 1
    flat = (rows + width * np.arange(len(rows))[:, None]).ravel()
    counts = np.bincount(flat, minlength=width * len(rows)).reshape(len(rows), width)
    distinct = np.count_nonzero(counts, axis=1).min()
    if distinct < K:
        raise ValueError(
            f"need {K} distinct values, multiset has {distinct}"
        )
    # a stable sort on descending count keeps equal counts in value order
    top = np.sort(np.argsort(-counts, axis=1, kind="stable")[:, :K], axis=1)
    return top if m.ndim > 1 else top[0]


def correlate(A, r):
    """Entrywise magnitudes of the correlations ``|A.T @ r|``.

    ``A`` of shape (n, M, N) with ``r`` of shape (n, M) correlates each
    slice with its own residual and returns shape (n, N), each row equal
    to the 2-d call on that slice.  Raises ValueError unless ``A`` is 2-d
    or 3-d and ``r`` has its shape without the last axis.
    """
    A = np.asarray(A, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if A.ndim not in (2, 3):
        raise ValueError(f"need A of shape (M, N) or (n, M, N), got A of shape {A.shape} "
                         f"and y of shape {r.shape}")
    if r.shape != A.shape[:-1]:
        raise ValueError(f"need y of shape {A.shape[:-1]} for A of shape {A.shape}, got {r.shape}")
    return np.abs(np.matmul(A.swapaxes(-1, -2), r[..., None])[..., 0])

"""Exception types shared across the library."""


class DcspError(Exception):
    """Base class for all library-specific errors."""


class RankDeficientError(DcspError):
    """Selected dictionary columns are numerically rank deficient.

    Signals a degenerate random draw; Monte Carlo callers treat the
    trial as aborted and redraw.
    """


class InsufficientDistinctError(DcspError):
    """A multiset holds fewer distinct values than requested."""


class IndexOutOfRangeError(DcspError, IndexError):
    """An index set refers outside the ambient dimension."""


class InvalidDegreeError(DcspError, ValueError):
    """Neighborhood size g outside the valid range 2..L."""

"""Exception hierarchy shared by all chronident modules.

Argument validation raises plain ``ValueError``; the classes below mark
domain conditions the CLI maps to distinct exit codes (the two that also
derive from ``ValueError`` count as invalid input).
"""


class ChronidentError(Exception):
    """Base class for chronident-specific failures."""


class InvalidCovarianceError(ChronidentError, ValueError):
    """A covariance matrix has an eigenvalue below the allowed tolerance."""


class ChannelUnusableError(ChronidentError, ValueError):
    """More than half of a channel's samples were flagged as outliers."""


class UnidentifiableError(ChronidentError):
    """The regression / moment map is rank deficient.

    ``null_directions`` holds an orthonormal basis of the unidentifiable
    parameter subspace (rows), when available.
    """

    def __init__(self, message, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions


class NoResidueError(ChronidentError):
    """No residue is left: a window of L = 2 samples holds no second
    difference, or the record's mask leaves no valid window."""

"""Exception types shared across the package."""


class GradedRelError(Exception):
    """Base class for every error this package raises deliberately."""


class StructuralInputError(GradedRelError, ValueError):
    """Malformed value: wrong shape, asymmetric data, out-of-range entry."""


class UsageError(GradedRelError, ValueError):
    """Unknown identifier or unsupported argument combination."""


class PreconditionError(GradedRelError, ValueError):
    """An operation's hypothesis fails; carries a witness when one exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(GradedRelError, RuntimeError):
    """An enumeration exceeded its configured cap; carries the cap and the
    count the enumeration had reached when it stopped."""

    def __init__(self, message, cap, reached):
        super().__init__(message)
        self.cap = cap
        self.reached = reached

"""Exception types shared across the package."""


class VmShieldError(Exception):
    """Base class for all vmshield domain errors."""


class NonConvergence(VmShieldError):
    """Power iteration hit its iteration cap before meeting tolerance.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message, last_iterate=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class InconsistentMatrix(VmShieldError):
    """Pairwise judgments too incoherent: consistency ratio at or above the limit."""

    def __init__(self, message, cr=None, lambda_max=None):
        super().__init__(message)
        self.cr = cr
        self.lambda_max = lambda_max


class EmptyServer(VmShieldError):
    """Operation needs at least one hosted VM on the server."""


class UnsortedTrace(VmShieldError):
    """Packet events must be ordered by non-decreasing timestamp."""


class ParseError(VmShieldError):
    """Input file is not syntactically valid (bad JSON/CSV, missing field)."""


class ValidationError(VmShieldError):
    """Input parsed but violates a documented invariant."""

"""Exception types shared across the package."""


class FairprError(Exception):
    """Base class for errors raised by this package."""


class GraphError(FairprError):
    """Malformed graph input: bad tokens, duplicate edges, missing colors."""


class ConvergenceError(FairprError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class InfeasibleError(FairprError):
    """The requested fairness target cannot be met by any jump vector."""

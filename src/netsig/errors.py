"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """Malformed graph file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NetworkValidationError(ValueError):
    """A structurally parsed network violates a model invariant."""


class ContractError(RuntimeError):
    """A caller violated an internal precondition (a bug, not bad input)."""


class UnsupportedModeError(RuntimeError):
    """The requested mode is not defined for this network (e.g. greedy
    block counting on a network with more than two terminals)."""


class EnumerationCapError(RuntimeError):
    """Exact computation refused because the frontier program would pass its
    memory budget, or the paper-greedy t-signature its link limit; sampling
    still applies."""

"""Exception types shared across the package."""


class SwlyapError(Exception):
    """Base class for all package errors."""


class StructuralError(SwlyapError, ValueError):
    """Malformed data: bad shapes, mismatched domains, invalid mode ids."""


class InvalidStateError(SwlyapError, ValueError):
    """A state carries non-finite or otherwise unusable entries."""


class ContractViolation(SwlyapError, ValueError):
    """An argument violates a documented precondition (e.g. negative time)."""


class UnsupportedOperation(SwlyapError, TypeError):
    """Operation not defined for this mode kind."""


class FamilySizeError(SwlyapError, ValueError):
    """Signal family enumeration would exceed the configured bound."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        # a deep family's count has more digits than int-to-str conversion allows
        shown = count if count < 10**18 else f"at least 2^{count.bit_length() - 1}"
        super().__init__(f"family enumerates {shown} signals, more than the limit {limit}")


class EstimationError(SwlyapError, RuntimeError):
    """A fit or solve produced unusable output (degenerate samples, bad residual)."""


class UnstableTailError(SwlyapError, ValueError):
    """The tail mode of a signal is not exponentially stable."""


class DegenerateInputError(SwlyapError, ValueError):
    """Input for which the requested quantity is not well defined (e.g. x = 0)."""

"""Exception types shared across the package, and the field checks of its JSON
readers.  A reader's error starts with the path of the field at fault within the
object read, as in ``segments[1].dwell: ...``; a boolean is never a number."""

import re

__all__ = [
    "SwlyapError", "StructuralError", "InvalidStateError", "ContractViolation",
    "UnsupportedOperation", "FamilySizeError", "EstimationError", "UnstableTailError",
    "DegenerateInputError", "under", "read_at", "json_object", "json_number",
    "json_integer", "json_list",
]


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


# -- JSON field checks ----------------------------------------------------------

# A message that starts with a field path, as in "segments[1].dwell: ...".
_SUBPATH = re.compile(r"\w+(\[\d+\])*(\.\w+(\[\d+\])*)*: ")


def under(path: str, message: str) -> str:
    """``message`` about a value inside the field ``path``, prefixed with it."""
    return f"{path}.{message}" if _SUBPATH.match(message) else f"{path}: {message}"


def read_at(path: str, read, value, *args):
    """``read(value, *args)``, its ``StructuralError`` prefixed with ``path``."""
    try:
        return read(value, *args)
    except StructuralError as exc:
        raise StructuralError(under(path, str(exc))) from exc


def json_object(value, need: str, *keys) -> dict:
    """``value`` when it is a JSON object holding every one of ``keys``."""
    if not isinstance(value, dict):
        raise StructuralError(f"must be {need}")
    for key in keys:
        if key not in value:
            raise StructuralError(f"{key}: required")
    return value


def json_number(value, path: str) -> float:
    """``value`` as a float when it is a JSON number within the double range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the double range
            pass
    raise StructuralError(f"{path}: must be a number")


def json_integer(value, path: str) -> int:
    """``value`` as an int; an integral float such as ``5.0`` counts."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise StructuralError(f"{path}: must be an integer")


def json_list(value, path: str, read, need: str, length: int | None = None) -> list:
    """Each item of the JSON list ``value`` through ``read(item, item_path)``."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise StructuralError(f"{path}: must be {need}")
    return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]

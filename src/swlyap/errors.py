"""Exception types, the field checks of the JSON readers and constructors, and the
records' base class, shared across the package.  A reader's error starts with the
path of the field at fault within the object read, as in ``segments[1].dwell:
...``; a boolean is never a number, and a numpy scalar is one of its Python kind."""

import re
from numbers import Integral, Real

__all__ = [
    "SwlyapError", "StructuralError", "InvalidStateError", "ContractViolation",
    "UnsupportedOperation", "FamilySizeError", "EstimationError", "UnstableTailError",
    "DegenerateInputError", "under", "read_at", "json_object", "json_number",
    "json_integer", "json_list", "Record",
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
    """``value`` as a float when it is a real number within the double range."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the double range
            pass
    raise StructuralError(f"{path}: must be a number")


def json_integer(value, path: str) -> int:
    """``value`` as an int; an integral float such as ``5.0`` counts."""
    if isinstance(value, Real) and not isinstance(value, bool):
        if isinstance(value, Integral) or float(value).is_integer():
            return int(value)
    raise StructuralError(f"{path}: must be an integer")


def json_list(value, path: str, read, need: str, length: int | None = None) -> list:
    """Each item of the list ``value`` through ``read(item, item_path)``.  Any
    other sequence, such as a tuple or an array, counts; a string or a mapping
    does not."""
    try:
        items = None if isinstance(value, (str, bytes, dict)) else list(value)
    except TypeError:  # not iterable
        items = None
    if items is None or length is not None and len(items) != length:
        raise StructuralError(f"{path}: must be {need}")
    return [read(item, f"{path}[{i}]") for i, item in enumerate(items)]


class Record:
    """Base of every record in the package, none of which imports ``dataclasses``.

    A subclass declares its fields as annotations, in constructor order, with any
    defaults, which are bound as they are and so are never a dict, list or set.  Every
    record is built by this constructor, which binds them and runs ``__post_init__``.
    Every record is frozen; ``==``, ``hash`` and ``repr`` read the fields alone."""

    _fields, _defaults = (), {}

    def __init_subclass__(cls):
        names = vars(cls).get("__annotations__", ())  # a subclass adds to its base's
        cls._fields = (*cls._fields, *(k for k in names if k not in cls._fields))
        cls._defaults = {**cls._defaults, **{k: vars(cls)[k] for k in names if k in vars(cls)}}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            kwargs = {**{k: v for k, v in self._defaults.items() if k in rest}, **kwargs}
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args += tuple(kwargs[k] for k in rest)
        for name, value in zip(names, args):  # never through __dict__, so reads stay fast
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _asdict(self) -> dict:
        return {k: getattr(self, k) for k in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):  # and __delattr__, which passes no value
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

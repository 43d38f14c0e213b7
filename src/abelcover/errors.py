"""Error types shared across the library.

All library-raised exceptions derive from AbelcoverError so callers can
catch everything with one clause.  The split below mirrors how the CLI
maps failures to exit codes: parse problems, invalid input data, and
resource caps are distinct outcomes, while ConsistencyError marks an
internal contradiction that should be unreachable on valid input.

The module also holds _Value, the base of every value type, and
_typed, _sequence, _rational and _bounded, the four rules every entry
check uses.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

__all__ = [
    "AbelcoverError", "MalformedDataError", "DomainError",
    "InvalidCoverError", "DisconnectedCoverError", "ConsistencyError",
    "ResourceCapError", "NoSolutionError", "ParseError",
]


class AbelcoverError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDataError(AbelcoverError, ValueError):
    """Structurally invalid input: residues out of range, duplicate branch
    values, or objects from different covers mixed together."""


class DomainError(AbelcoverError, ValueError):
    """Input outside an operation's domain, such as the identity element
    where a nontrivial one is required, a non-coprime Dedekind key, or a
    divisor that fails the non-specialness precondition."""


class InvalidCoverError(AbelcoverError):
    """Branching data violating a cover invariant."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class DisconnectedCoverError(InvalidCoverError):
    """Branch elements generate a proper subgroup, so the cover is not
    connected."""

    def __init__(self, message: str):
        super().__init__("disconnected", message)


class ConsistencyError(AbelcoverError):
    """An internal identity failed.  Reaching this signals a bug in the
    library, not bad user input."""


class ResourceCapError(AbelcoverError):
    """A limit was reached: the search's node cap, validate's bound on the
    group order or packed table size, or exponent_table's bound on the
    site pairs; cap is the limit, detail names it."""

    def __init__(self, cap: int, detail: str | None = None):
        self.cap = cap
        super().__init__(
            detail or f"search exceeded the configured cap of {cap} nodes")


class NoSolutionError(AbelcoverError):
    """The kernel system is infeasible because the leading-coefficient
    relation between f0 and f1 does not hold."""


class ParseError(AbelcoverError):
    """A cover document failed to parse.  Carries position information
    when available: line/column for JSON syntax errors, a field path for
    schema errors."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, path: str | None = None):
        self.line = line
        self.column = column
        self.path = path
        super().__init__(message)


def _typed(x, kind: type, what: str):
    """x if type(x) is kind, else MalformedDataError; a bool is no int."""
    if type(x) is not kind:
        a = "an" if kind.__name__[0] in "AEIOaeio" else "a"  # "a UniPoly"
        raise MalformedDataError(f"{what}{x!r:.40} is not {a} {kind.__name__}")
    return x


def _sequence(x, what: str) -> tuple:
    """tuple(x), or MalformedDataError when x is not iterable."""
    try:
        iter(x)
    except TypeError:
        raise MalformedDataError(
            f"{what}{x!r:.40} is not a sequence") from None
    return tuple(x)


def _rational(x, what: str = "") -> Fraction:
    """x as a Fraction: an int converted, a Fraction kept, else refused."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise MalformedDataError(f"{what}{x!r:.40} is not an int or a Fraction")


def _bounded(size: int, limit: int, what: str) -> None:
    """ResourceCapError(limit) when size is over limit."""
    if size > limit:
        raise ResourceCapError(
            limit, f"{what}: {size}, over the limit of {limit}")


class _Value:
    """Base of the value types.  A subclass lists its fields in __slots__
    (plus "__dict__" if it needs one) and sets each once, with
    object.__setattr__, in an __init__ whose parameters are its fields
    in that order.  The base gives it a class-exact __eq__ (a
    GroupElement never equals a Character), __hash__ of the fields, the
    repr Name(field=value, ...), __reduce__ as (class, fields) for copy
    and pickle, and __setattr__ and __delattr__ that raise
    AttributeError; class C(_Value, mutable=True) gets object's two and
    __hash__ = None instead.  __eq__ and __hash__ are closures over one
    attrgetter, made once per class, so no call looks the getter up."""

    __slots__ = ()

    def __init_subclass__(cls, mutable: bool = False) -> None:
        super().__init_subclass__()
        cls._names = tuple(n for n in cls.__slots__ if n != "__dict__")
        fields = attrgetter(*cls._names)  # one name: the bare value

        def __eq__(self, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or fields(self) == fields(other)

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, (None if mutable else __hash__)
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._names))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

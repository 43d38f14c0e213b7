"""Error types shared across the library.

All library-raised exceptions derive from AbelcoverError so callers can
catch everything with one clause.  The split below mirrors how the CLI
maps failures to exit codes: parse problems, invalid input data, and
resource caps are distinct outcomes, while ConsistencyError marks an
internal contradiction that should be unreachable on valid input.
"""

from __future__ import annotations


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


def _read_only(self, name: str, *value) -> None:
    """__setattr__ and __delattr__ of the library's immutable value types,
    whose __init__ sets each field once with object.__setattr__.

    They are plain classes with these methods written out, each
    equal only to an instance of its own class with equal fields and
    hashed by the tuple of its fields: generating them at import, with
    the inspect module that pulls in, took about half of the time a CLI
    call spends importing abelcover."""
    raise AttributeError(
        f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

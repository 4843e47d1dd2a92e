"""Exception hierarchy with stable machine-parseable error codes.

Every error carries a ``code`` token; the CLI prints ``<code>: <message>``
as a single line on stderr and exits 1.
"""

from __future__ import annotations


class DendrocodeError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "E_DOMAIN"


class InputShapeError(DendrocodeError):
    """Input table has the wrong shape (ragged rows, non-square matrix...)."""

    code = "E_SHAPE"


class ParseError(DendrocodeError):
    """A file or literal could not be parsed."""

    code = "E_PARSE"


class DegenerateInputError(DendrocodeError):
    """Input too small for the requested operation."""

    code = "E_DEGENERATE"


class DomainError(DendrocodeError):
    """A value violates an operation's precondition."""

    code = "E_DOMAIN"


class RankRangeError(DendrocodeError):
    """A node rank lies outside 1..n-1."""

    code = "E_RANK"


class NotUltrametricError(DendrocodeError):
    """A matrix fails the strong triangle inequality."""

    code = "E_ULTRAMETRIC"


class AlignmentError(DendrocodeError):
    """Data rows do not align with the terminals of a tree."""

    code = "E_ALIGN"


class MalformedEncodingError(DendrocodeError):
    """A coefficient matrix violates the encoding invariants."""

    code = "E_ENCODING"


class UnrealizablePermutationError(DendrocodeError):
    """A permutation is not the packed representation of any tree."""

    code = "E_UNREALIZABLE"


class ResourceGuardError(DendrocodeError):
    """Request exceeds the guard against combinatorial blowup."""

    code = "E_RESOURCE"


def _require_nonnegative(value: float, name: str) -> None:
    """Refuse a negative or NaN ``value`` (NaN fails every comparison, so
    the test is ``not value >= 0``); +inf is accepted."""
    if not value >= 0:
        raise DomainError(f"{name} must be nonnegative")

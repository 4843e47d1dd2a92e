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


def _require_square(arr) -> None:
    """Refuse an array that is not a square 2-d table."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputShapeError(f"matrix must be square, got shape {arr.shape}")


def _require_at_least(value: int, low: int, name: str) -> None:
    """Refuse a ``value`` below ``low``, the least a parameter may take."""
    if not value >= low:
        raise DomainError(f"{name} must be at least {low}")


# the most bytes an output or array built whole in memory may take: a table
# cell can take thousands of digits (1/p^r at a deep level), so a modest
# input can ask for gigabytes
_TABLE_GUARD = 2**30


def _require_within_guard(size: int, what: str) -> None:
    """Refuse to build ``what`` when it would take ``size`` bytes, past 1 GiB."""
    if size > _TABLE_GUARD:
        raise ResourceGuardError(f"{what} would take {size} bytes, past the guard ({_TABLE_GUARD})")

"""Permutation representations of data streams and hierarchies: ordinal
patterns of sliding windows, rank permutations of whole streams, the packed
permutation of a dendrogram with its inverse, alternation predicates, and
exhaustive enumeration of non-labeled ranked tree shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    ResourceGuardError,
    UnrealizablePermutationError,
    _require_at_least,
)
from .hierarchy import (
    Dendrogram,
    MergeNode,
    TERMINAL,
    _tree,
    drawing,
    internal,
    join_gaps,
    terminal,
)

TIE_RULES = ("earlier-low", "later-low")


def permutation_text(values: Sequence[int]) -> str:
    """Values run together when every one is a single digit, else comma-separated."""
    sep = "" if all(v <= 9 for v in values) else ","
    return sep.join(str(v) for v in values)


@dataclass(frozen=True)
class OrdinalPattern:
    """Positions of a window ordered by ascending value: symbol k is the
    index (0-based, within the window) of the k-th smallest value."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        symbols = tuple(int(s) for s in self.symbols)
        if sorted(symbols) != list(range(len(symbols))):
            raise DomainError("symbols must be a permutation of 0..d")
        object.__setattr__(self, "symbols", symbols)

    @property
    def order(self) -> int:
        return len(self.symbols) - 1

    def text(self) -> str:
        return permutation_text(self.symbols)


def _values(stream: Sequence[float], tau: int = 1, what: str = "stream") -> np.ndarray:
    """``stream`` as a float64 array, once the delay ``tau`` is checked.  A
    value that float64 cannot hold, and a NaN, which has no order, are
    refused."""
    _require_at_least(tau, 1, "delay tau")
    try:
        x = np.asarray(stream, dtype=float)
    except (OverflowError, TypeError, ValueError):
        raise DomainError(f"{what} values must be real numbers in the float64 range") from None
    if (nan := np.isnan(x)).any():
        raise DomainError(f"{what} value #{nan.argmax() + 1} is NaN, which has no order")
    return x


def _symbols(windows: np.ndarray, tie_rule: str) -> np.ndarray:
    """Ordinal pattern symbols of each window (the last axis)."""
    if tie_rule not in TIE_RULES:
        raise DomainError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    if tie_rule == "earlier-low":
        return np.argsort(windows, axis=-1, kind="stable")
    # a stable sort of the reversed window puts the later of equal values first
    return windows.shape[-1] - 1 - np.argsort(windows[..., ::-1], axis=-1, kind="stable")


def ordinal_pattern(window: Sequence[float], tie_rule: str = "earlier-low") -> OrdinalPattern:
    """Ordinal pattern of one window, its values compared as float64.

    Ties default to the earlier temporal index ranking lower
    (``earlier-low``); ``later-low`` flips that.  NaN is refused.
    """
    values = _values(window, what="window")
    if not values.size:
        raise DomainError("window must not be empty")
    return OrdinalPattern(tuple(_symbols(values, tie_rule)))


def ordinal_sequence(
    stream: Sequence[float], d: int, tau: int = 1, tie_rule: str = "earlier-low"
) -> tuple[list[OrdinalPattern], dict[str, list[int]]]:
    """Sliding-window ordinal patterns with delay ``tau``, the values
    compared as float64 (so -0.0 equals 0.0, and infinities order as
    usual); a NaN is refused.

    Returns the patterns in temporal order, equal windows sharing one
    pattern object, together with the partition of window start indices
    into pattern classes, in order of first appearance.
    """
    _require_at_least(d, 1, "order d")
    values = _values(stream, tau)
    minimum = d * tau + 1
    if len(values) < minimum:
        raise DomainError(f"stream of length {len(values)} too short: order {d} at delay "
                          f"{tau} needs at least {minimum} values")
    symbols = _symbols(sliding_window_view(values, minimum)[:, ::tau], tie_rule)
    order = np.lexsort(symbols.T[::-1])  # windows by pattern, each class's starts ascending
    starts = np.split(order, np.flatnonzero(np.diff(symbols[order], axis=0).any(axis=1)) + 1)
    starts.sort(key=lambda s: s[0])  # classes in order of first appearance
    patterns = np.empty(len(order), dtype=object)
    for s in starts:
        patterns[s] = OrdinalPattern(tuple(symbols[s[0]].tolist()))
    return patterns.tolist(), {patterns[s[0]].text(): s.tolist() for s in starts}


def rank_permutation(stream: Sequence[float], tau: int = 1) -> tuple[int, ...]:
    """Whole-stream rank permutation, the values compared as float64; a NaN
    is refused.

    Observations are labeled by their delay-multiples back from the latest
    value (label 0 = latest, label k = k*tau steps earlier); the result
    lists the labels in decreasing order of their values.  Ties list the
    smaller label first.
    """
    values = _values(stream, tau)
    if not values.size:
        raise DomainError("stream must not be empty")
    return tuple(np.argsort(-values[::-1][::tau], kind="stable").tolist())


@dataclass(frozen=True)
class PackedPermutation:
    """Permutation of 1..n with the rightmost-terminal sentinel p(n) = n."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
        n = len(values)
        if n < 1 or sorted(values) != list(range(1, n + 1)):
            raise DomainError("values must be a permutation of 1..n")
        if values[-1] != n:
            raise UnrealizablePermutationError(
                f"last value must be n={n} (the rightmost terminal never unites rightward)"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def text(self) -> str:
        return "(" + permutation_text(self.values) + ")"


def packed_representation(tree: Dendrogram) -> PackedPermutation:
    """Packed permutation of a dendrogram.

    With first-formed subtrees drawn leftmost, p(i) is the rank at which
    the terminal at drawing position i first unites with a terminal to its
    right; the rightmost position gets n.  Equals the inorder traversal of
    the oriented binary tree on the internal nodes.
    """
    n = tree.n
    # Orientation key: a subtree's earliest merge rank, or n + index for a
    # bare terminal, so terminals go right of any subtree with a merge.
    first = [0] * n  # earliest merge rank under each internal node, by rank
    oriented: list[MergeNode] = []
    for node in tree.nodes:
        a, b = node.left, node.right
        ka = n + a[1] if a[0] == TERMINAL else first[a[1]]
        kb = n + b[1] if b[0] == TERMINAL else first[b[1]]
        if ka > kb:
            a, b = b, a
        first[node.rank] = min(ka, kb, node.rank)
        oriented.append(MergeNode(node.rank, node.height, a, b))
    inorder = drawing(_tree(tree.labels, tuple(oriented)))[1]
    return PackedPermutation((*inorder, n))


def unpack(perm: PackedPermutation) -> Dendrogram:
    """The unique packed-drawing dendrogram whose packed representation is
    ``perm``; terminals get synthetic labels and heights equal ranks.

    Rank k merges the two clusters flanking the boundary i with p(i) = k.
    The merge is realizable only when the left flank's earliest merge
    precedes the right flank's (bare terminals count as latest); the first
    offending rank is reported otherwise.
    """
    n = perm.n
    gaps = sorted(range(1, n), key=lambda k: perm.values[k - 1])  # gap k is boundary k-1
    refs = [terminal(i) for i in range(n)]  # subtree of the run starting at each position
    first = [n] * n  # earliest merge rank in the run starting at each position; n: none
    nodes: list[MergeNode] = []
    for rank, (lo, k) in enumerate(join_gaps(n, gaps), start=1):
        lf, rf = first[lo], first[k]
        if rf < lf:  # the right run merged first (n: never)
            raise UnrealizablePermutationError(
                f"prefix through rank {rank} is inconsistent: left cluster first "
                f"merged at {lf if lf < n else 'never'}, right at {rf if rf < n else 'never'}"
            )
        nodes.append(MergeNode(rank, float(rank), refs[lo], refs[k]))
        refs[lo] = internal(rank)
        first[lo] = min(lf, rank)  # the check leaves lf < rf unless both are n
    return _tree(tuple(f"x{i + 1}" for i in range(n)), tuple(nodes))


def is_up_down(perm: Sequence[int]) -> bool:
    """Successive differences strictly alternate in sign, starting up."""
    values = list(perm)
    return all(a < b if i % 2 == 0 else a > b for i, (a, b) in enumerate(zip(values, values[1:])))


def is_down_up(perm: Sequence[int]) -> bool:
    """Successive differences strictly alternate in sign, starting down."""
    return is_up_down([-v for v in perm])


_NLR_GUARD = 10


def enumerate_nlr(n: int) -> list[Dendrogram]:
    """All non-labeled ranked binary tree shapes on ``n`` terminals, one per
    realizable packed permutation, in increasing order of the permutation
    and each drawn by ``unpack``; counted by the zigzag numbers."""
    _require_at_least(n, 1, "n")
    if n > _NLR_GUARD:
        raise ResourceGuardError(
            f"n={n} exceeds the enumeration guard ({_NLR_GUARD}): counts grow as zigzag numbers"
        )
    # Give ranks 1, 2, ... to the gaps depth first, keeping the run ends as
    # join_gaps does and refusing each join that unpack would refuse.
    first = list(range(n))  # first position of the run ending at each position
    last = list(range(n))  # last position of the run starting at each position
    merged = [n] * n  # earliest merge rank of the run starting at each position; n: never
    values = [0] * (n - 1) + [n]  # the packed permutation; 0: gap not yet joined
    found: list[tuple[int, ...]] = []

    def search(rank: int) -> None:  # recursion depth n - 1 <= 9 under the guard
        if rank == n:
            found.append(tuple(values))
            return
        for k in range(1, n):
            lo, hi = first[k - 1], last[k]
            lf = merged[lo]
            if values[k - 1] or merged[k] < lf:  # joined, or the right run merged first
                continue
            values[k - 1] = rank
            first[hi], last[lo], merged[lo] = lo, hi, min(lf, rank)
            search(rank + 1)
            values[k - 1] = 0
            first[hi], last[lo], merged[lo] = k, k - 1, lf

    search(1)
    return [unpack(PackedPermutation(p)) for p in sorted(found)]

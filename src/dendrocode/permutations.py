"""Permutation representations of data streams and hierarchies: ordinal
patterns of sliding windows, rank permutations of whole streams, the packed
permutation of a dendrogram with its inverse, alternation predicates, and
exhaustive enumeration of non-labeled ranked tree shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DomainError,
    ResourceGuardError,
    UnrealizablePermutationError,
)
from .hierarchy import (
    Child,
    Dendrogram,
    MergeNode,
    TERMINAL,
    internal,
    terminal,
    walk,
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


def ordinal_pattern(window: Sequence[float], tie_rule: str = "earlier-low") -> OrdinalPattern:
    """Ordinal pattern of one window.

    Ties default to the earlier temporal index ranking lower
    (``earlier-low``); ``later-low`` flips that.
    """
    if tie_rule not in TIE_RULES:
        raise DomainError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    values = list(window)
    if not values:
        raise DomainError("window must not be empty")
    if tie_rule == "earlier-low":
        order = sorted(range(len(values)), key=lambda i: (values[i], i))
    else:
        order = sorted(range(len(values)), key=lambda i: (values[i], -i))
    return OrdinalPattern(tuple(order))


def ordinal_sequence(
    stream: Sequence[float], d: int, tau: int = 1, tie_rule: str = "earlier-low"
) -> tuple[list[OrdinalPattern], dict[str, list[int]]]:
    """Sliding-window ordinal patterns with delay ``tau``.

    Returns the patterns in temporal order together with the partition of
    window start indices into pattern equivalence classes.
    """
    if d < 1:
        raise DomainError("order d must be at least 1")
    if tau < 1:
        raise DomainError("delay tau must be at least 1")
    values = list(stream)
    minimum = d * tau + 1
    if len(values) < minimum:
        raise DomainError(
            f"stream of length {len(values)} too short: order {d} at delay {tau} "
            f"needs at least {minimum} values"
        )
    patterns: list[OrdinalPattern] = []
    classes: dict[str, list[int]] = {}
    for t in range(len(values) - d * tau):
        window = values[t : t + d * tau + 1 : tau]
        pat = ordinal_pattern(window, tie_rule)
        patterns.append(pat)
        classes.setdefault(pat.text(), []).append(t)
    return patterns, classes


def rank_permutation(stream: Sequence[float], tau: int = 1) -> tuple[int, ...]:
    """Whole-stream rank permutation.

    Observations are labeled by their delay-multiples back from the latest
    value (label 0 = latest, label k = k*tau steps earlier); the result
    lists the labels in decreasing order of their values.  Ties list the
    smaller label first.
    """
    if tau < 1:
        raise DomainError("delay tau must be at least 1")
    values = list(stream)
    if not values:
        raise DomainError("stream must not be empty")
    m = len(values)
    labels = list(range((m - 1) // tau + 1))
    picked = [(values[m - 1 - k * tau], k) for k in labels]
    picked.sort(key=lambda vk: (-vk[0], vk[1]))
    return tuple(k for _, k in picked)


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
    if n == 1:
        return PackedPermutation((1,))
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
    drawing = Dendrogram(tree.labels, tuple(oriented))
    inorder = [idx for (_, idx), visit in walk(drawing) if visit == 1]
    return PackedPermutation(tuple(inorder) + (n,))


def unpack(perm: PackedPermutation) -> Dendrogram:
    """The unique packed-drawing dendrogram whose packed representation is
    ``perm``; terminals get synthetic labels and heights equal ranks.

    Rank k merges the two clusters flanking the boundary i with p(i) = k.
    The merge is realizable only when the left flank's earliest merge
    precedes the right flank's (bare terminals count as latest); the first
    offending rank is reported otherwise.
    """
    n = perm.n
    if n == 1:
        return Dendrogram(("x1",), ())
    boundary_of_rank = {perm.values[i]: i for i in range(n - 1)}
    # cluster state per drawing position span
    ref: dict[int, Child] = {i: terminal(i) for i in range(n)}
    first_rank: dict[int, int] = {i: n for i in range(n)}  # sentinel: never merged
    span_start: dict[int, int] = {i: i for i in range(n)}
    span_end: dict[int, int] = {i: i for i in range(n)}
    start_at: dict[int, int] = {i: i for i in range(n)}  # position -> cluster id
    end_at: dict[int, int] = {i: i for i in range(n)}
    nodes: list[MergeNode] = []
    for rank in range(1, n):
        i = boundary_of_rank.get(rank)
        if i is None:  # pragma: no cover - permutation bijectivity rules this out
            raise UnrealizablePermutationError(f"rank {rank} missing")
        left_id = end_at.get(i)
        right_id = start_at.get(i + 1)
        if left_id is None or right_id is None:
            raise UnrealizablePermutationError(
                f"prefix through rank {rank} is inconsistent: boundary {i + 1} is "
                "interior to an existing cluster"
            )
        lf, rf = first_rank[left_id], first_rank[right_id]
        if not (lf == n and rf == n) and not lf < rf:
            raise UnrealizablePermutationError(
                f"prefix through rank {rank} is inconsistent: left cluster first "
                f"merged at {lf if lf < n else 'never'}, right at {rf if rf < n else 'never'}"
            )
        nodes.append(MergeNode(rank, float(rank), ref[left_id], ref[right_id]))
        new_id = left_id
        ref[new_id] = internal(rank)
        first_rank[new_id] = min(lf, rf, rank)
        span_end[new_id] = span_end[right_id]
        end_at[span_end[right_id]] = new_id
        start_at.pop(i + 1)
        end_at.pop(i, None)
        if span_start[right_id] != i + 1:  # pragma: no cover - defensive
            raise UnrealizablePermutationError("span bookkeeping failed")
    labels = tuple(f"x{i + 1}" for i in range(n))
    return Dendrogram(labels, tuple(nodes))


def is_up_down(perm: Sequence[int]) -> bool:
    """Successive differences strictly alternate in sign, starting up."""
    values = list(perm)
    return all(
        values[i] < values[i + 1] if i % 2 == 0 else values[i] > values[i + 1]
        for i in range(len(values) - 1)
    )


def is_down_up(perm: Sequence[int]) -> bool:
    """Successive differences strictly alternate in sign, starting down."""
    values = list(perm)
    return all(
        values[i] > values[i + 1] if i % 2 == 0 else values[i] < values[i + 1]
        for i in range(len(values) - 1)
    )


_NLR_GUARD = 10


def enumerate_nlr(n: int) -> list[Dendrogram]:
    """All non-labeled ranked binary tree shapes on ``n`` terminals, stored
    canonically with synthetic labels; counted by the zigzag numbers."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if n > _NLR_GUARD:
        raise ResourceGuardError(
            f"n={n} exceeds the enumeration guard ({_NLR_GUARD}): counts grow as zigzag numbers"
        )
    if n == 1:
        return [Dendrogram(("x1",), ())]

    # shapes as nested tuples: 0 for a terminal, (rank, a, b) canonical-sorted
    def shape_key(shape):
        return (0,) if shape == 0 else (shape[0],) + shape_key(shape[1]) + shape_key(shape[2])

    def make(rank, a, b):
        if shape_key(a) > shape_key(b):
            a, b = b, a
        return (rank, a, b)

    found: list = []

    def rec(forest: list, next_rank: int) -> None:
        if len(forest) == 1:
            found.append(forest[0])
            return
        seen = set()
        for i in range(len(forest)):
            for j in range(i + 1, len(forest)):
                pair = tuple(sorted((shape_key(forest[i]), shape_key(forest[j]))))
                if pair in seen:
                    continue
                seen.add(pair)
                rest = [forest[k] for k in range(len(forest)) if k not in (i, j)]
                rec(rest + [make(next_rank, forest[i], forest[j])], next_rank + 1)

    rec([0] * n, 1)

    trees: list[Dendrogram] = []
    for shape in found:
        nodes: dict[int, MergeNode] = {}
        counter = [0]

        def build(sub) -> Child:
            if sub == 0:
                idx = counter[0]
                counter[0] += 1
                return terminal(idx)
            rank, a, b = sub
            left = build(a)
            right = build(b)
            nodes[rank] = MergeNode(rank, float(rank), left, right)
            return internal(rank)

        build(shape)
        labels = tuple(f"x{i + 1}" for i in range(n))
        ordered = tuple(nodes[r] for r in range(1, n))
        trees.append(Dendrogram(labels, ordered))
    return trees

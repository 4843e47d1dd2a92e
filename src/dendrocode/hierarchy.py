"""Ranked dendrograms: pairwise distances, agglomerative construction,
canonical orientation, and child-swap actions.

A dendrogram here is a labeled, ranked, binary rooted tree: ``n`` terminals
and ``n-1`` internal merge nodes whose ranks 1..n-1 record merge order and
whose heights carry the merge criterion value.  All types are immutable and
every operation is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    InputShapeError,
    RankRangeError,
)

LINKAGES = ("single", "complete", "ward", "median")

# Child reference: ("t", terminal_index) or ("q", rank).
Child = tuple[str, int]

TERMINAL = "t"
INTERNAL = "q"


def terminal(index: int) -> Child:
    return (TERMINAL, index)


def internal(rank: int) -> Child:
    return (INTERNAL, rank)


@dataclass(frozen=True)
class MergeNode:
    """One internal node: rank (merge order), height, two children."""

    rank: int
    height: float
    left: Child
    right: Child


@dataclass(frozen=True)
class Dendrogram:
    """Immutable ranked binary dendrogram.

    ``nodes`` is ordered by rank, so ``nodes[k-1]`` is the node of rank k and
    ``nodes[-1]`` is the root (rank n-1).  A single-terminal tree has no
    internal nodes.
    """

    labels: tuple[str, ...]
    nodes: tuple[MergeNode, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n < 1:
            raise DegenerateInputError("a dendrogram needs at least one terminal")
        if len(self.nodes) != n - 1:
            raise DomainError(
                f"expected {n - 1} internal nodes for {n} terminals, got {len(self.nodes)}"
            )
        refs: list[Child] = []
        for k, node in enumerate(self.nodes, start=1):
            if node.rank != k:
                raise DomainError("nodes must be ordered by rank 1..n-1")
            if not (node.height >= 0.0) or not math.isfinite(node.height):
                raise DomainError(f"node q{k} has invalid height {node.height!r}")
            for child in (node.left, node.right):
                kind, idx = child
                if kind == TERMINAL:
                    if not 0 <= idx < n:
                        raise DomainError(f"node q{k} references unknown terminal {idx}")
                elif kind == INTERNAL:
                    if not 1 <= idx < k:
                        raise DomainError(
                            f"node q{k} must reference lower-ranked children, got q{idx}"
                        )
                else:
                    raise DomainError(f"bad child reference {child!r}")
                refs.append(child)
        if self.nodes:
            expected = [(TERMINAL, i) for i in range(n)] + [
                (INTERNAL, r) for r in range(1, n - 1)
            ]
            if sorted(refs) != sorted(expected):
                raise DomainError(
                    "every terminal and every non-root node needs exactly one parent"
                )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> MergeNode | None:
        return self.nodes[-1] if self.nodes else None

    def node(self, rank: int) -> MergeNode:
        if not 1 <= rank <= len(self.nodes):
            raise RankRangeError(f"rank {rank} out of range 1..{len(self.nodes)}")
        return self.nodes[rank - 1]

    def heights(self) -> tuple[float, ...]:
        return tuple(node.height for node in self.nodes)

    def members(self, rank: int) -> frozenset[int]:
        """Terminal indices under the node of the given rank."""
        return member_sets(self)[rank]

    def terminal_order(self) -> tuple[int, ...]:
        """Left-to-right terminal indices of the stored drawing."""
        return tuple(idx for (kind, idx), _ in walk(self) if kind == TERMINAL)


def walk(tree: Dendrogram) -> Iterator[tuple[Child, int]]:
    """Euler tour of the stored drawing as ``(child, visit)`` pairs.

    Each terminal appears once with visit 0; each internal node appears three
    times: 0 before its left subtree, 1 between its subtrees and 2 after its
    right subtree.  The tour starts at the root and keeps its own stack, so
    depth is bounded by memory, not by the recursion limit.
    """
    nodes = tree.nodes
    # events not yet yielded; a node's visit-0 event pushes the rest of its tour
    stack = [((INTERNAL, len(nodes)) if nodes else (TERMINAL, 0), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        event = pop()
        yield event
        child, visit = event
        if visit == 0 and child[0] == INTERNAL:
            node = nodes[child[1] - 1]
            push((child, 2))
            push((node.right, 0))
            push((child, 1))
            push((node.left, 0))


def member_sets(tree: Dendrogram) -> dict[int, frozenset[int]]:
    """Terminal index sets of every internal node, keyed by rank."""
    sets: dict[int, frozenset[int]] = {}

    def of(child: Child) -> frozenset[int]:
        kind, idx = child
        if kind == TERMINAL:
            return frozenset((idx,))
        return sets[idx]

    for node in tree.nodes:
        sets[node.rank] = of(node.left) | of(node.right)
    return sets


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric nonnegative pairwise table with zero diagonal."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputShapeError(f"matrix must be square, got shape {arr.shape}")
        if np.isnan(arr).any():
            raise DomainError("matrix contains missing values")
        if not np.array_equal(arr, arr.T):
            raise DomainError("matrix is not symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise DomainError("matrix diagonal must be zero")
        if np.any(arr < 0.0):
            raise DomainError("matrix entries must be nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise InputShapeError("label count does not match matrix size")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def label_list(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(f"t{i + 1}" for i in range(self.size))


class UltrametricMatrix(DissimilarityMatrix):
    """A dissimilarity matrix claimed to satisfy the strong triangle
    inequality; check explicitly with :func:`dendrocode.ultrametric.verify_ultrametric`."""


def pairwise_distances(
    data: Sequence[Sequence[float]] | np.ndarray,
    metric: str = "euclidean",
    labels: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """Euclidean distance table of the rows of ``data``."""
    if metric != "euclidean":
        raise DomainError(f"unsupported metric {metric!r}")
    if not isinstance(data, np.ndarray):
        rows = [list(row) for row in data]
        if not rows:
            raise DegenerateInputError("need at least two observations")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InputShapeError(f"ragged input: row {i + 1} has {len(row)} cells, expected {width}")
        arr = np.asarray(rows, dtype=float)
    else:
        arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise InputShapeError(f"data must be a 2-d table, got {arr.ndim} dimensions")
    n, m = arr.shape
    if n < 2:
        raise DegenerateInputError("need at least two observations")
    if m < 1:
        raise InputShapeError("need at least one coordinate per observation")
    if np.isnan(arr).any():
        raise DomainError("data contains missing values")
    if np.isinf(arr).any():
        raise DomainError("data contains infinite values")
    with np.errstate(over="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
    if not np.isfinite(d).all():
        raise DomainError("pairwise distances overflow the float range")
    np.fill_diagonal(d, 0.0)
    return DissimilarityMatrix(d, tuple(labels) if labels is not None else None)


def _child_key(child: Child) -> tuple[int, int]:
    # Canonical order: lower-ranked child left (terminals count as rank 0,
    # ties between terminals broken by index).
    kind, idx = child
    return (0, idx) if kind == TERMINAL else (idx, -1)


def _oriented(rank: int, height: float, a: Child, b: Child) -> MergeNode:
    if _child_key(a) > _child_key(b):
        a, b = b, a
    return MergeNode(rank, height, a, b)


_SQUARED = {"ward", "median"}


def _lance_williams_update(
    work: np.ndarray,
    sizes: np.ndarray,
    alive: np.ndarray,
    i: int,
    j: int,
    linkage: str,
) -> None:
    """Fold cluster j into slot i, updating row/column i in place."""
    others = np.flatnonzero(alive)
    others = others[(others != i) & (others != j)]
    di = work[i, others]
    dj = work[j, others]
    if linkage == "single":
        new = np.minimum(di, dj)
    elif linkage == "complete":
        new = np.maximum(di, dj)
    elif linkage == "ward":
        ni, nj, nk = sizes[i], sizes[j], sizes[others]
        new = ((ni + nk) * di + (nj + nk) * dj - nk * work[i, j]) / (ni + nj + nk)
    elif linkage == "median":
        new = di / 2.0 + dj / 2.0 - work[i, j] / 4.0
    else:  # pragma: no cover - guarded by caller
        raise DomainError(f"unknown linkage {linkage!r}")
    work[i, others] = new
    work[others, i] = new


def _greedy_merges(
    work: np.ndarray, linkage: str
) -> list[tuple[int, int, float]]:
    """Repeated global-minimum agglomeration.

    Ties broken by the pair of smallest member indices: the clusters keep the
    least original index of their members as identity, and among equal merge
    values the lexicographically least (min_index_a, min_index_b) pair wins.
    Returns merges as (slot_i, slot_j, criterion) with slot == least member
    index of each cluster.
    """
    n = work.shape[0]
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    big = np.inf
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        idx = np.flatnonzero(alive)
        sub = work[np.ix_(idx, idx)].copy()
        sub[np.tril_indices(len(idx))] = big
        best = sub.min()
        ii, jj = np.argwhere(sub == best)[0]
        i, j = int(idx[ii]), int(idx[jj])
        # slots are min member indices, and idx is sorted, so the first
        # argwhere hit is exactly the tie rule's lexicographic minimum
        merges.append((i, j, float(best)))
        _lance_williams_update(work, sizes, alive, i, j, linkage)
        sizes[i] += sizes[j]
        alive[j] = False
    return merges


def _nn_chain_merges(
    work: np.ndarray, linkage: str
) -> list[tuple[int, int, float]]:
    """Nearest-neighbor-chain agglomeration for reducible criteria.

    Finds reciprocal nearest neighbors along a growing chain; valid for
    single, complete and ward, whose criteria are reducible, so the merge
    set equals the greedy builder's.  Merges are returned in discovery
    order and must be re-sorted by height by the caller.
    """
    n = work.shape[0]
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(alive)[0]))
        while True:
            x = chain[-1]
            cand = np.flatnonzero(alive)
            cand = cand[cand != x]
            dists = work[x, cand]
            best = dists.min()
            y = int(cand[dists == best][0])
            if len(chain) >= 2 and y == chain[-2]:
                break
            chain.append(y)
        y = chain.pop()
        x = chain.pop()
        i, j = min(x, y), max(x, y)
        merges.append((i, j, float(work[i, j])))
        _lance_williams_update(work, sizes, alive, i, j, linkage)
        sizes[i] += sizes[j]
        alive[j] = False
        chain = [c for c in chain if alive[c]]
    return merges


def agglomerate(
    diss: DissimilarityMatrix,
    linkage: str = "complete",
    method: str = "greedy",
) -> Dendrogram:
    """Build a ranked dendrogram from a dissimilarity matrix.

    ``method="greedy"`` (default) repeatedly merges the globally closest
    pair with a deterministic tie rule; ``method="nn-chain"`` uses
    reciprocal-nearest-neighbor chains (single/complete/ward only; the
    median criterion is not reducible).  Ward and median operate on squared
    input distances and report heights as the square root of the criterion
    value.  Heights are monotone for single/complete/ward; median may
    produce inversions, and ranks record merge order, not height order.
    """
    if linkage not in LINKAGES:
        raise DomainError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    if method not in ("greedy", "nn-chain"):
        raise DomainError(f"method must be 'greedy' or 'nn-chain', got {method!r}")
    n = diss.size
    if n < 2:
        raise DegenerateInputError("agglomeration needs at least two objects")
    work = np.array(diss.values, dtype=float)
    if linkage in _SQUARED:
        work = work * work
    if method == "nn-chain":
        if linkage == "median":
            raise DomainError("nn-chain is unsound for the median criterion; use method='greedy'")
        merges = _nn_chain_merges(work, linkage)
        # Discovery order is a topological order; a stable sort by height
        # keeps parents after children even through ties.
        merges = sorted(merges, key=lambda t: t[2])
    else:
        merges = _greedy_merges(work, linkage)

    cluster_ref: dict[int, Child] = {i: (TERMINAL, i) for i in range(n)}
    nodes: list[MergeNode] = []
    for rank, (i, j, crit) in enumerate(merges, start=1):
        height = math.sqrt(crit) if linkage in _SQUARED else crit
        nodes.append(_oriented(rank, height, cluster_ref[i], cluster_ref[j]))
        cluster_ref[i] = (INTERNAL, rank)
        del cluster_ref[j]
    return Dendrogram(tuple(diss.label_list()), tuple(nodes))


def swap_children(tree: Dendrogram, rank: int) -> Dendrogram:
    """Exchange the two children of the node at ``rank``; an involution that
    leaves ranks, heights and all subtree internals untouched."""
    node = tree.node(rank)
    swapped = MergeNode(node.rank, node.height, node.right, node.left)
    nodes = list(tree.nodes)
    nodes[rank - 1] = swapped
    return Dendrogram(tree.labels, tuple(nodes))


def canonicalize(tree: Dendrogram) -> Dendrogram:
    """Deterministic drawing: at every node the later-formed (higher-rank)
    child subtree goes right; terminal pairs are ordered by index."""
    nodes = [
        _oriented(node.rank, node.height, node.left, node.right)
        for node in tree.nodes
    ]
    return Dendrogram(tree.labels, tuple(nodes))


def swap_orbit(tree: Dendrogram) -> Iterable[Dendrogram]:
    """All 2^(n-1) child-swap orientations of ``tree``, canonical-first order."""
    base = canonicalize(tree)
    m = len(base.nodes)
    for mask in range(1 << m):
        t = base
        for r in range(1, m + 1):
            if mask >> (r - 1) & 1:
                t = swap_children(t, r)
        yield t

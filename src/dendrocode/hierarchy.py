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
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    InputShapeError,
    RankRangeError,
    _require_square,
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

    The constructor checks its input and stores ``labels`` and ``nodes`` as
    tuples.  Ranks and child indices must be ints (not bools, floats or
    numpy integers), and heights finite nonnegative ints or floats (numpy's
    float64 included).  Trees that the library builds valid by
    construction come from ``_tree`` and skip the checks.
    """

    labels: tuple[str, ...]
    nodes: tuple[MergeNode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", labels := tuple(self.labels))
        object.__setattr__(self, "nodes", nodes := tuple(self.nodes))
        n = len(labels)
        if n < 1:
            raise DegenerateInputError("a dendrogram needs at least one terminal")
        if len(nodes) != n - 1:
            raise DomainError(
                f"expected {n - 1} internal nodes for {n} terminals, got {len(nodes)}"
            )
        refs: list[Child] = []
        for k, node in enumerate(nodes, start=1):
            if node.rank != k:
                raise DomainError("nodes must be ordered by rank 1..n-1")
            height = node.height
            if type(height) not in (int, float, np.float64) or not 0.0 <= height <= sys.float_info.max:
                raise DomainError(f"node q{k} has invalid height {height!r}")
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
        # there are 2(n - 1) references and as many valid ones (n terminals
        # and the ranks 1..n-2), so each must be a distinct valid one; an
        # in-range index such as 0.5 is not
        valid = {*map(terminal, range(n)), *map(internal, range(1, n - 1))}
        if nodes and set(refs) != valid:
            raise DomainError("every terminal and every non-root node needs exactly one parent")
        # a rank or an index equal to an int but of another type (0.0, True,
        # a numpy integer) passes the tests above
        if any(type(node.rank) is not int for node in nodes) or any(type(i) is not int for _, i in refs):
            raise DomainError("ranks and child indices must be ints")

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
        """Terminal indices under the node of the given rank, read off its
        subtree alone."""
        found, stack = [], [self.node(rank)]
        while stack:
            node = stack.pop()
            found += [idx for kind, idx in (node.left, node.right) if kind == TERMINAL]
            stack += [self.nodes[idx - 1] for kind, idx in (node.left, node.right) if kind == INTERNAL]
        return frozenset(found)

    def terminal_order(self) -> tuple[int, ...]:
        """Left-to-right terminal indices of the stored drawing."""
        return tuple(drawing(self)[0])


def _tree(labels: tuple[str, ...], nodes: tuple[MergeNode, ...]) -> Dendrogram:
    """The dendrogram of ``labels`` and ``nodes``, both tuples, that a
    builder made valid by construction; the constructor's checks are not
    run.  Input from outside the library goes through ``Dendrogram``."""
    tree = object.__new__(Dendrogram)
    object.__setattr__(tree, "labels", labels)
    object.__setattr__(tree, "nodes", nodes)
    return tree


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


def drawing(tree: Dendrogram) -> tuple[list[int], list[int]]:
    """The stored drawing as ``(order, gap_ranks)``: the terminal indices
    left to right, and the rank of the node between each two neighbours
    (``gap_ranks[k]`` lies between ``order[k]`` and ``order[k + 1]``).  The
    ranks are the in-order read of the internal nodes; the lowest common
    ancestor of two terminals is the highest rank between them."""
    events = list(walk(tree))
    order = [idx for (kind, idx), _ in events if kind == TERMINAL]
    return order, [idx for (_, idx), visit in events if visit == 1]


def gap_levels(order: Sequence[int], gaps: np.ndarray) -> np.ndarray:
    """n x n table, in terminal-index order, of the largest gap between each
    two terminals of a drawing, 0 on the diagonal, of the dtype of ``gaps``.

    ``order`` lists the terminal indices left to right and ``gaps[k]`` is
    the level of the gap between positions k and k + 1.  When each gap is
    the level at which its two neighbours join (the Cartesian tree of the
    gaps, as in :func:`join_gaps`), entry (i, j) is the level of the lowest
    common ancestor of i and j.  One running maximum per position fills the
    position-indexed table and its mirror, and one gather reorders it."""
    n = len(order)
    by_position = np.zeros((n, n), dtype=gaps.dtype)
    for a in range(n - 1):
        running = by_position[a, a + 1 :]
        np.maximum.accumulate(gaps[a:], out=running)
        by_position[a + 1 :, a] = running
    pos = np.argsort(order)  # the position of each terminal
    return by_position[np.ix_(pos, pos)]


def join_gaps(n: int, gaps: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Join the runs of a drawing of ``n`` terminals one gap at a time.

    Gap k (1 <= k < n) lies between drawing positions k-1 and k; each gap
    appears once in ``gaps``.  Joining gap k merges the run that ends at
    position k-1 with the run that starts at k, and yields ``(lo, k)``, the
    first positions of those two runs.  Every gap is closed by exactly one
    merge, so an order over the gaps fixes the tree: the Cartesian tree of
    the gap ranks (Vuillemin 1980).
    """
    first = list(range(n))  # first position of the run ending at each position
    last = list(range(n))  # last position of the run starting at each position
    for k in gaps:
        lo, hi = first[k - 1], last[k]
        first[hi] = lo
        last[lo] = hi
        yield lo, k


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
    """Symmetric nonnegative pairwise table with zero diagonal; without
    ``labels`` its objects are named t1, t2, ... in row order.

    The constructor copies ``values`` once into a read-only float array and
    checks it.  Matrices that the library builds valid by construction
    come from ``_built``, which takes the array over without a copy or a
    check."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        _require_square(arr)
        if not np.isfinite(arr).all():
            kind = "missing" if np.isnan(arr).any() else "infinite"
            raise DomainError(f"matrix contains {kind} values")
        if not np.array_equal(arr, arr.T):
            raise DomainError("matrix is not symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise DomainError("matrix diagonal must be zero")
        if np.any(arr < 0.0):
            raise DomainError("matrix entries must be nonnegative")
        self._own(arr, self.labels)

    @classmethod
    def _built(cls, values: np.ndarray, labels: Sequence[str] | None = None) -> DissimilarityMatrix:
        """The matrix over ``values``, a float array that a builder made
        valid by construction and hands over: it is not copied, and only
        the labels are checked."""
        return object.__new__(cls)._own(values, labels)

    def _own(self, arr: np.ndarray, labels: Sequence[str] | None) -> DissimilarityMatrix:
        """Hold ``arr``, made read-only, and ``labels``, or t1..tn without
        them; the tail of both the constructor and ``_built``."""
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        labels = tuple(f"t{i + 1}" for i in range(arr.shape[0])) if labels is None else tuple(labels)
        if len(labels) != arr.shape[0]:
            raise InputShapeError("label count does not match matrix size")
        object.__setattr__(self, "labels", labels)
        return self

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def label_list(self) -> tuple[str, ...]:
        return self.labels


class UltrametricMatrix(DissimilarityMatrix):
    """A dissimilarity matrix claimed to satisfy the strong triangle
    inequality; check explicitly with :func:`dendrocode.ultrametric.verify_ultrametric`."""


_DISTANCE_BLOCK_CELLS = 1 << 16


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
    # upper-triangle row blocks, mirrored: each pair gets the arithmetic of
    # the full n x n x m broadcast, so values are bit-identical without its memory
    rows = max(1, _DISTANCE_BLOCK_CELLS // (n * m))
    d = np.empty((n, n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            diff = arr[lo:hi, None, :] - arr[None, lo:, :]
            np.multiply(diff, diff, out=diff)
            d[lo:hi, lo:] = np.sqrt(diff.sum(axis=-1))
            d[lo:, lo:hi] = d[lo:hi, lo:].T
    if not np.isfinite(d).all():
        raise DomainError("pairwise distances overflow the float range")
    # for finite x, x - x is +0.0, so the diagonal is already zero
    return DissimilarityMatrix._built(d, labels)


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


def _require_finite(values: np.ndarray, linkage: str) -> None:
    if not np.isfinite(values).all():
        raise DomainError(f"the {linkage} linkage criterion overflows the float range")


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
    with np.errstate(over="ignore", invalid="ignore"):
        if linkage == "single":
            new = np.minimum(di, dj)
        elif linkage == "complete":
            new = np.maximum(di, dj)
        elif linkage == "ward":
            ni, nj, nk = sizes[i], sizes[j], sizes[others]
            new = ((ni + nk) * di + (nj + nk) * dj - nk * work[i, j]) / (ni + nj + nk)
        else:  # median; agglomerate has checked the linkage
            new = di / 2.0 + dj / 2.0 - work[i, j] / 4.0
    _require_finite(new, linkage)
    work[i, others] = new
    work[others, i] = new


def _nn_list_merges(
    work: np.ndarray, linkage: str
) -> list[tuple[int, int, float]]:
    """Global-minimum agglomeration by a nearest-neighbour list (Müllner's
    generic algorithm, arXiv:1109.2378, which needs no reducibility).

    Slots are least member indices.  Row ``a`` holds ``mindist[a]``, the
    least value over live slots above it, and ``nn[a]``, the least slot
    attaining it, unless ``stale[a]``: then ``mindist[a]`` is a lower bound.
    The first least row that is not stale gives the least (value, i, j),
    which is the tie rule.  Returns (slot_i, slot_j, criterion) with i < j;
    dead rows and columns of ``work`` become inf.
    """
    n = work.shape[0]
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    mindist = np.full(n, np.inf)
    nn = np.zeros(n, dtype=np.intp)
    stale = np.zeros(n, dtype=bool)

    def refresh(a: int) -> None:
        row = work[a, a + 1 :]
        k = int(row.argmin())
        mindist[a] = row[k]
        nn[a] = a + 1 + k
        stale[a] = False

    for a in range(n - 1):
        refresh(a)
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        i = int(mindist.argmin())
        while stale[i]:
            refresh(i)
            i = int(mindist.argmin())
        j = int(nn[i])
        merges.append((i, j, float(mindist[i])))
        _lance_williams_update(work, sizes, alive, i, j, linkage)
        sizes[i] += sizes[j]
        alive[j] = False
        work[j, :] = np.inf
        work[:, j] = np.inf
        mindist[j] = np.inf
        stale[nn == j] = True
        # rows above i see a new value at slot i: a lower one is their new
        # minimum; an equal one (i may precede nn) or a changed nn is a bound
        new, old = work[i, :i], mindist[:i]
        lower = new < old
        stale[:i] |= (nn[:i] == i) | (new == old)
        old[lower] = new[lower]
        nn[:i][lower] = i
        stale[:i][lower] = False
        refresh(i)
    return merges


def agglomerate(diss: DissimilarityMatrix, linkage: str = "complete") -> Dendrogram:
    """Build a ranked dendrogram from a dissimilarity matrix.

    Repeatedly merges the globally closest pair; among equal values the pair
    of least (smallest member index, other smallest member index) wins, so
    the tree is reproducible bit for bit.  One builder serves all four
    linkages.  Ward and median operate on squared input distances and report
    heights as the square root of the criterion value.  Heights are monotone
    for single/complete/ward; median may produce inversions, and ranks
    record merge order, not height order.
    """
    if linkage not in LINKAGES:
        raise DomainError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = diss.size
    if n < 2:
        raise DegenerateInputError("agglomeration needs at least two objects")
    work = np.array(diss.values, dtype=float)
    if linkage in _SQUARED:
        with np.errstate(over="ignore"):
            np.multiply(work, work, out=work)
        _require_finite(work, linkage)
    merges = _nn_list_merges(work, linkage)
    if linkage in _SQUARED:
        merges = [(i, j, math.sqrt(crit)) for i, j, crit in merges]
    return _merge_tree(diss.labels, merges)


def _merge_tree(labels: tuple[str, ...], merges: Iterable[tuple[int, int, float]]) -> Dendrogram:
    """The canonical dendrogram of ``merges`` (slot_i, slot_j, height) in
    rank order, each folding the cluster in slot j into slot i."""
    cluster_ref: dict[int, Child] = {i: (TERMINAL, i) for i in range(len(labels))}
    nodes: list[MergeNode] = []
    for rank, (i, j, height) in enumerate(merges, start=1):
        nodes.append(_oriented(rank, height, cluster_ref[i], cluster_ref[j]))
        cluster_ref[i] = (INTERNAL, rank)
        del cluster_ref[j]
    return _tree(labels, tuple(nodes))


def swap_children(tree: Dendrogram, rank: int) -> Dendrogram:
    """Exchange the two children of the node at ``rank``; an involution that
    leaves ranks, heights and all subtree internals untouched."""
    node = tree.node(rank)
    swapped = MergeNode(node.rank, node.height, node.right, node.left)
    return _tree(tree.labels, (*tree.nodes[: rank - 1], swapped, *tree.nodes[rank:]))


def canonicalize(tree: Dendrogram) -> Dendrogram:
    """Deterministic drawing: at every node the later-formed (higher-rank)
    child subtree goes right; terminal pairs are ordered by index."""
    return _tree(tree.labels, tuple(
        _oriented(node.rank, node.height, node.left, node.right) for node in tree.nodes))


def swap_orbit(tree: Dendrogram) -> Iterable[Dendrogram]:
    """All 2^(n-1) child-swap orientations of ``tree``, canonical-first order."""
    base = canonicalize(tree).nodes
    for mask in range(1 << len(base)):
        # bit r - 1 of the mask swaps the node of rank r
        yield _tree(tree.labels, tuple(
            MergeNode(node.rank, node.height, node.right, node.left) if mask >> k & 1 else node
            for k, node in enumerate(base)))

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
from collections import Counter
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


class _FromArrays:
    """A field that its builder may leave unset, made once by ``make`` from
    the instance's arrays on first access and kept in the instance dict."""

    def __init__(self, name: str, make):
        self.name, self.make = name, make

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        state = vars(instance)
        if self.name not in state:
            state[self.name] = self.make(instance)
        return state[self.name]

    def __set__(self, instance, value) -> None:
        vars(instance)[self.name] = value


@dataclass(frozen=True)
class Dendrogram:
    """Immutable ranked binary dendrogram.

    ``nodes`` is ordered by rank, so ``nodes[k-1]`` is the node of rank k and
    ``nodes[-1]`` is the root (rank n-1).  A single-terminal tree has no
    internal nodes.

    The tree is held as the columns that every reader takes: rank r has
    height ``_heights[_level[r - 1]]``, so each distinct height is
    formatted once, and children ``_left[r - 1]`` and ``_right[r - 1]``,
    each a rank r as r, or terminal i as ``~i``.  ``_drawing`` is the
    stored drawing as four columns ``(order, gap, lo, hi)``: the terminal
    at each position, and for each rank the gap it joins and the positions
    its subtree spans, as ``join_gaps`` yields them.  A builder that joins
    gaps (``_joined``) writes the children and the drawing as it joins;
    else the drawing is read off the children on first use (``_draw``).
    Columns may be lists or integer arrays.  ``nodes`` is made from the
    columns on first access, so no verb makes it; equality, hash and repr
    go through ``labels`` and ``nodes``.

    The constructor checks its input, keeps ``labels`` and ``nodes`` as
    tuples and stores their columns.  Ranks and child indices must be ints
    (not bools, floats or numpy integers), and heights finite nonnegative
    ints or floats (numpy's float64 included).  Trees that the library
    builds valid by construction come from ``_tree`` and skip the checks.
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
            if not isinstance(node, MergeNode):
                raise DomainError(f"node q{k} is not a MergeNode: {node!r}")
            if node.rank != k:
                raise DomainError("nodes must be ordered by rank 1..n-1")
            height = node.height
            if type(height) not in (int, float, np.float64) or not 0.0 <= height <= sys.float_info.max:
                raise DomainError(f"node q{k} has invalid height {height!r}")
            for child in (node.left, node.right):
                try:  # a pair of a kind and an index that compares with ints
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
                except (TypeError, ValueError):
                    raise DomainError(f"bad child reference {child!r}") from None
                refs.append(child)
        try:
            distinct = set(refs)
        except TypeError:  # a list, say, passes the tests above
            raise DomainError(f"bad child reference {next(filter(_unhashable, refs))!r}") from None
        # there are 2(n - 1) references and as many valid ones (n terminals
        # and the ranks 1..n-2), so each must be a distinct valid one; an
        # in-range index such as 0.5 is not
        valid = {*map(terminal, range(n)), *map(internal, range(1, n - 1))}
        if nodes and distinct != valid:
            raise DomainError("every terminal and every non-root node needs exactly one parent")
        # a rank or an index equal to an int but of another type (0.0, True,
        # a numpy integer) passes the tests above
        if any(type(node.rank) is not int for node in nodes) or any(type(i) is not int for _, i in refs):
            raise DomainError("ranks and child indices must be ints")
        codes = [idx if kind == INTERNAL else ~idx for kind, idx in refs]
        vars(self).update(_heights=tuple(node.height for node in nodes), _level=range(n - 1),
                          _left=codes[0::2], _right=codes[1::2])

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> MergeNode | None:
        return self.nodes[-1] if self.n > 1 else None

    def node(self, rank: int) -> MergeNode:
        self._check_rank(rank)
        return self.nodes[rank - 1]

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n - 1:
            raise RankRangeError(f"rank {rank} out of range 1..{self.n - 1}")

    def heights(self) -> tuple[float, ...]:
        return tuple(map(self._heights.__getitem__, np.asarray(self._level).tolist()))

    def members(self, rank: int) -> frozenset[int]:
        """Terminal indices under the node of the given rank, read off its
        subtree alone."""
        self._check_rank(rank)
        found, stack = [], [rank]
        while stack:
            r = stack.pop() - 1
            children = (int(self._left[r]), int(self._right[r]))
            found += [~code for code in children if code < 0]
            stack += [code for code in children if code > 0]
        return frozenset(found)

    def terminal_order(self) -> tuple[int, ...]:
        """Left-to-right terminal indices of the stored drawing."""
        return tuple(np.asarray(self._drawing[0]).tolist())

    def _level_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Each terminal's drawing position, and the rank that joins each
        gap between positions: ``gap_levels`` of the two is the rank of
        each two terminals' lowest common ancestor, 0 on the diagonal."""
        order, gap, _, _ = self._drawing
        return np.argsort(order), np.argsort(gap) + 1

    def _children(self) -> tuple[list[int], list[int]]:
        """The left and the right child codes, as new lists of ints."""
        return np.asarray(self._left).tolist(), np.asarray(self._right).tolist()


def _unhashable(value) -> bool:
    """Whether ``hash`` refuses ``value``."""
    try:
        hash(value)
    except TypeError:
        return True
    return False


def _nodes_of(tree: Dendrogram) -> tuple[MergeNode, ...]:
    """The ``MergeNode`` view of the tree's columns."""

    def child(code: int) -> Child:
        return (INTERNAL, code) if code > 0 else (TERMINAL, ~code)

    heights = tree._heights
    columns = (np.asarray(column).tolist() for column in (tree._level, tree._left, tree._right))
    return tuple(MergeNode(rank, heights[level], child(a), child(b))
                 for rank, (level, a, b) in enumerate(zip(*columns), start=1))


def _draw(left: Sequence[int], right: Sequence[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """The drawing ``(order, gap, lo, hi)`` of the tree with child codes
    ``left`` and ``right``: subtree sizes bottom-up, then each subtree's
    first position top down: a left child starts where its parent does, a
    right child after the left child's terminals."""
    n = len(left) + 1
    # the size and first position of rank r at index r, and of terminal
    # i at index -(i + 1), its code
    size, start, gap = [1] * (2 * n), [0] * (2 * n), [0] * (n - 1)
    for r, a, b in zip(range(1, n), left, right):
        size[r] = size[a] + size[b]
    for r in range(n - 1, 0, -1):
        a, first = left[r - 1], start[r]
        start[a] = first
        start[right[r - 1]] = gap[r - 1] = first + size[a]
    order, lo = [0] * n, start[1:n]
    for i, position in enumerate(start[: n - 1 : -1]):
        order[position] = i
    return order, gap, lo, [first + count - 1 for first, count in zip(lo, size[1:n])]


Dendrogram.nodes = _FromArrays("nodes", _nodes_of)
Dendrogram._drawing = _FromArrays("_drawing", lambda tree: _draw(tree._left, tree._right))


def _tree(labels: tuple[str, ...], heights: Sequence, level: Sequence[int], left: Sequence[int],
          right: Sequence[int], drawing: tuple[Sequence[int], ...] | None = None) -> Dendrogram:
    """The dendrogram over the tuple ``labels`` of the columns that a
    builder made valid by construction (``Dendrogram``), with its drawing
    when the builder has it; the constructor's checks are not run.  Input
    from outside the library goes through ``Dendrogram``."""
    tree = object.__new__(Dendrogram)
    vars(tree).update(labels=labels, _heights=heights, _level=level, _left=left, _right=right)
    if drawing is not None:
        vars(tree)["_drawing"] = drawing
    return tree


def _joined(labels: tuple[str, ...], heights: Sequence, level: Sequence[int], order: np.ndarray,
            gaps: np.ndarray) -> Dendrogram:
    """The tree that joins the gaps between the terminals drawn in ``order``
    in the order ``gaps`` (``join_gaps``), with that drawing.  Rank r joins
    gap ``gaps[r - 1]``: its left child is the run that starts at lo, its
    right child the run that starts at the gap, each coded ``~order[pos]``
    until a rank takes it over."""
    code = [~i for i in order.tolist()]  # the child code of the run that starts at each position
    left, right, lo, hi = [], [], [], []
    for rank, (a, k, b) in enumerate(join_gaps(len(code), gaps.tolist()), start=1):
        left.append(code[a])
        right.append(code[k])
        code[a] = rank
        lo.append(a)
        hi.append(b)
    # the spans as arrays: as lists of ints they held about 40 MB more at
    # 10^6 terminals, while list children keep unpack's check loop fast
    spans = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)
    return _tree(labels, heights, level, left, right, (order, gaps, *spans))


def gap_levels(pos: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """n x n table, in row order, of the largest gap between the drawing
    positions of each two rows, 0 where the two share a position, in the
    narrowest unsigned type that holds the gaps.

    ``pos`` gives each row's position in a drawing of m positions and
    ``gaps[k]``, a nonnegative integer, the level of the gap between
    positions k and k + 1.  When each gap is the level at which its two
    neighbours join (the Cartesian tree of the gaps, as in
    :func:`join_gaps`), entry (i, j) is the level of the lowest common
    ancestor of i and j.  Joining the gaps from the lowest level up, the
    gap that joins two runs is the largest between them, so it fills the
    two blocks of the position-indexed table that pair the runs; one
    gather then reorders the table to rows."""
    m = len(gaps) + 1
    by_position = np.zeros((m, m), dtype=np.min_scalar_type(int(gaps.max(initial=0))))
    levels = gaps.tolist()
    for lo, k, hi in join_gaps(m, (np.argsort(gaps, kind="stable") + 1).tolist()):
        by_position[lo:k, k : hi + 1] = by_position[k : hi + 1, lo:k] = levels[k - 1]
    return by_position[np.ix_(pos, pos)]


def gap_counts(pos: np.ndarray, gaps: np.ndarray) -> dict[int, int]:
    """The number of cells of each level in ``gap_levels(pos, gaps)``,
    read off the Cartesian tree of the gaps without building the table.

    The gap that joins two runs of positions (:func:`join_gaps`) fills 2ab
    cells, a and b the rows at the positions of each run, which one prefix
    sum of the rows per position gives; the cells of rows at one position
    are 0.  One stable sort of the gaps, then one pass."""
    rows = np.bincount(pos, minlength=len(gaps) + 1)
    before = [0, *np.cumsum(rows).tolist()]  # rows left of each position
    counts = Counter({0: int(rows @ rows)})
    levels = gaps.tolist()
    for lo, k, hi in join_gaps(len(rows), (np.argsort(gaps, kind="stable") + 1).tolist()):
        counts[levels[k - 1]] += 2 * (before[k] - before[lo]) * (before[hi + 1] - before[k])
    return {level: count for level, count in counts.items() if count}


def join_gaps(n: int, gaps: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Join the runs of a drawing of ``n`` positions one gap at a time.

    Gap k (1 <= k < n) lies between drawing positions k-1 and k; each gap
    appears once in ``gaps``.  Joining gap k merges the run that ends at
    position k-1 with the run that starts at k, and yields ``(lo, k, hi)``:
    the joined run spans positions lo..hi, its left part lo..k-1.  Every
    gap is closed by exactly one merge, so an order over the gaps fixes the
    tree: the Cartesian tree of the gap ranks (Vuillemin 1980).
    """
    first = list(range(n))  # first position of the run ending at each position
    last = list(range(n))  # last position of the run starting at each position
    for k in gaps:
        lo, hi = first[k - 1], last[k]
        first[hi] = lo
        last[lo] = hi
        yield lo, k, hi


def member_sets(tree: Dendrogram) -> dict[int, frozenset[int]]:
    """Terminal index sets of every internal node, keyed by rank: the
    terminals at the drawing positions each rank spans."""
    order, _, lo, hi = (np.asarray(column).tolist() for column in tree._drawing)
    return {rank: frozenset(order[a : b + 1]) for rank, (a, b) in enumerate(zip(lo, hi), start=1)}


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


# the most cells (pairs times coordinates) one difference temporary holds
_DISTANCE_BLOCK_CELLS = 1 << 16


def pairwise_distances(
    data: Sequence[Sequence[float]] | np.ndarray,
    metric: str = "euclidean",
    labels: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """Euclidean distance table of the rows of ``data``."""
    if metric != "euclidean":
        raise DomainError(f"unsupported metric {metric!r}")
    arr = _checked_data(data)
    n, m = arr.shape
    # upper-triangle blocks of at most _DISTANCE_BLOCK_CELLS cells (whole
    # rows while a row fits, else one row's columns in runs), mirrored
    cols = max(1, min(n, _DISTANCE_BLOCK_CELLS // m))
    rows = max(1, _DISTANCE_BLOCK_CELLS // (cols * m))
    d = np.empty((n, n))
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            for left in range(lo, n, cols):
                right = min(left + cols, n)
                d[lo:hi, left:right] = _distances(arr[lo:hi, None, :], arr[None, left:right, :])
                d[left:right, lo:hi] = d[lo:hi, left:right].T
    if not np.isfinite(d).all():
        raise DomainError("pairwise distances overflow the float range")
    # for finite x, x - x is +0.0, so the diagonal is already zero
    return DissimilarityMatrix._built(d, labels)


def _checked_data(data: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """``data`` as a float table of at least two rows and one column, with
    no missing or infinite value: the checks of :func:`pairwise_distances`,
    in its order."""
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
    return arr


def _distances(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one Euclidean distance kernel: the square root of the sum of
    ``(x - y) ** 2`` over the last axis, which the difference temporary
    holds contiguously, so a pair's distance has the same bits whichever
    block or gather it comes from.  The difference goes to ``out`` when
    given (a gathered ``y`` may take it), else to a new array."""
    diff = np.subtract(x, y, out=out)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(diff.sum(axis=-1))


def _pair_distances(arr: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distances between rows ``i[t]`` and ``j[t]`` of the float table
    ``arr``, ``i`` sorted, bit for bit those of :func:`pairwise_distances`:
    each row i is subtracted as it stands from its gathered rows j, in
    blocks of at most ``_DISTANCE_BLOCK_CELLS`` cells."""
    step = max(1, _DISTANCE_BLOCK_CELLS // arr.shape[1])
    out = np.empty(len(i))
    firsts = np.flatnonzero(np.diff(i, prepend=-1))  # each row's first pair
    bounds = [*firsts.tolist(), len(i)]
    for row, a, b in zip(i[firsts].tolist(), bounds, bounds[1:]):
        for lo in range(a, b, step):
            y = arr[j[lo : min(lo + step, b)]]
            out[lo : lo + len(y)] = _distances(arr[row], y, y)
    return out


def _distances_finite(arr: np.ndarray) -> bool:
    """Whether no two rows of the finite float table ``arr`` can be at a
    distance past the float range: true when the summed squares of the
    column ranges stay below half the largest float.  Rounding is
    monotone, so no pair's rounded difference, square or sum exceeds the
    ranges'; the half absorbs a different summation order."""
    with np.errstate(over="ignore", invalid="ignore"):
        span = arr.max(axis=0) - arr.min(axis=0)
        bound = np.square(span).sum()
    return bool(bound < np.finfo(float).max / 2)


def _canonical(left: Sequence[int], right: Sequence[int]) -> tuple[list[int], list[int]]:
    """The child codes in canonical order: at each rank the child of the
    lower key goes left, a rank keyed by itself and terminal i by i - n,
    below every rank."""
    a, b = (np.asarray(codes, dtype=np.intp) for codes in (left, right))
    n = len(a) + 1
    swap = np.where(a > 0, a, ~a - n) > np.where(b > 0, b, ~b - n)
    return np.where(swap, b, a).tolist(), np.where(swap, a, b).tolist()


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
    code = [~i for i in range(len(labels))]  # the child code of the cluster in each slot
    codes, heights = [], []  # each rank's two child codes in turn
    for rank, (i, j, height) in enumerate(merges, start=1):
        codes += code[i], code[j]
        heights.append(height)
        code[i] = rank
    return _tree(labels, heights, range(len(heights)), *_canonical(codes[0::2], codes[1::2]))


def swap_children(tree: Dendrogram, rank: int) -> Dendrogram:
    """Exchange the two children of the node at ``rank``; an involution that
    leaves ranks, heights and all subtree internals untouched."""
    tree._check_rank(rank)
    left, right = tree._children()
    left[rank - 1], right[rank - 1] = right[rank - 1], left[rank - 1]
    return _tree(tree.labels, tree._heights, tree._level, left, right)


def canonicalize(tree: Dendrogram) -> Dendrogram:
    """Deterministic drawing: at every node the later-formed (higher-rank)
    child subtree goes right; terminal pairs are ordered by index."""
    return _tree(tree.labels, tree._heights, tree._level, *_canonical(tree._left, tree._right))


def swap_orbit(tree: Dendrogram) -> Iterable[Dendrogram]:
    """All 2^(n-1) child-swap orientations of ``tree``, canonical-first order."""
    left, right = _canonical(tree._left, tree._right)
    for mask in range(1 << len(left)):
        # bit r - 1 of the mask swaps the node of rank r
        pairs = [(b, a) if mask >> k & 1 else (a, b) for k, (a, b) in enumerate(zip(left, right))]
        yield _tree(tree.labels, tree._heights, tree._level, [a for a, _ in pairs], [b for _, b in pairs])

"""Ultrametric (cophenetic) matrices: derivation from trees, verification,
canonical row/column ordering, triangle classification, and a sampling
coefficient measuring how ultrametric an arbitrary dissimilarity table is.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInputError, DomainError, NotUltrametricError,
                     _require_at_least, _require_nonnegative, _require_square,
                     _require_within_guard)
from .hierarchy import (
    Child,
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    TERMINAL,
    UltrametricMatrix,
    _merge_tree,
    _tree,
    drawing,
    gap_levels,
)

EQUILATERAL = "equilateral"
ISOSCELES_SMALL_BASE = "isosceles-small-base"
METRIC_ONLY = "metric-only"

TRIANGLE_CLASSES = (EQUILATERAL, ISOSCELES_SMALL_BASE, METRIC_ONLY)


@dataclass(frozen=True)
class UltrametricityReport:
    """Fraction of sampled triangles that look ultrametric at a tolerance."""

    sampled: int
    coefficient: float
    seed: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.sampled < 1:
            raise DomainError("report needs at least one sampled triangle")
        if not 0.0 <= self.coefficient <= 1.0:
            raise DomainError("coefficient must lie in [0, 1]")


def cophenetic_matrix(tree: Dendrogram) -> UltrametricMatrix:
    """Pairwise heights of lowest common ancestors.

    Entry (i, j) is the height of the lowest-rank internal node whose
    subtree contains both terminals, read as the highest rank between them
    in the drawing (:func:`~dendrocode.hierarchy.gap_levels`); exact copies
    of the stored heights, so for monotone trees the result passes
    ``verify_ultrametric`` at tolerance 0.
    """
    order, ranks = drawing(tree)
    levels = gap_levels(order, np.array(ranks, dtype=np.intp))
    return UltrametricMatrix._built(np.array([0.0, *tree.heights()])[levels], tree.labels)


def _spanning_tree(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A minimum spanning tree of the complete graph weighted by ``d``, by
    Prim's algorithm on the dense table (Prim 1957; Müllner,
    arXiv:1109.2378, "MST-linkage"): edge t joins ``near[t]`` to
    ``added[t]``.  Each step takes the closest vertex outside the tree and
    lowers the others' distances to its row, a few numpy passes of n."""
    n = d.shape[0]
    dist = d[0].copy()  # each outside vertex's least weight to the tree
    near = np.zeros(n, dtype=np.intp)  # the tree vertex attaining it
    outside = np.ones(n, dtype=bool)
    outside[0], dist[0] = False, np.inf
    closer = np.empty(n, dtype=bool)
    added = np.empty(n - 1, dtype=np.intp)
    for t in range(n - 1):
        v = int(dist.argmin())
        added[t] = v
        outside[v], dist[v] = False, np.inf
        row = d[v]
        np.less(row, dist, out=closer)
        closer &= outside
        np.copyto(dist, row, where=closer)
        near[closer] = v
    return near[added], added


def _subdominant_merges(d: np.ndarray) -> list[tuple[int, int, float]]:
    """Single-linkage merges (slot_i, slot_j, height) of the subdominant
    ultrametric u of ``d`` in the builder's tie rule, read off a minimum
    spanning tree: u is its minimax path distance (Gower & Ross 1969).

    Its edges are joined level by level, smallest first.  The subclusters
    that one level joins into a group are pairwise at distance v in u, so
    least (value, slot_i, slot_j) joins each group's subclusters
    s0 < s1 < ... as (s0, s1), (s0, s2), ..., and the groups of a level in
    order of their least slot s0.  When d is ultrametric, d equals u and
    these are the merges of ``agglomerate(m, "single")``."""
    a, b = _spanning_tree(d)
    weights = d[a, b]
    by_weight = np.argsort(weights, kind="stable")
    a, b, weights = a[by_weight].tolist(), b[by_weight].tolist(), weights[by_weight].tolist()
    root = list(range(d.shape[0]))  # union-find; a root is its set's least member

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    merges: list[tuple[int, int, float]] = []
    lo = 0
    while lo < len(weights):
        v, hi = weights[lo], lo + 1
        while hi < len(weights) and weights[hi] == v:
            hi += 1
        level = range(lo, hi)
        subclusters = {find(x) for e in level for x in (a[e], b[e])}
        for e in level:
            x, y = find(a[e]), find(b[e])
            root[max(x, y)] = min(x, y)
        merges += sorted((find(s), s, v) for s in subclusters if root[s] != s)
        lo = hi
    return merges


def _certify(
    m: DissimilarityMatrix, tol: float
) -> tuple[Dendrogram | None, np.ndarray, list[tuple[int, int, int, float, float]]]:
    """The tie-rule single-linkage tree of the subdominant ultrametric u of
    ``m`` (None below two objects), u itself, and the violation list of
    :func:`verify_ultrametric`.

    u is read off the tree (:func:`cophenetic_matrix`).  Its heights are
    entries of d, and u(i,k) <= max(d(i,j), d(j,k)) for every j.  Rounding
    is monotone, so u + tol <= rhs + tol in floating point too, and a pair
    with d(i,k) <= u(i,k) + tol has no violation.  Only the other pairs are
    scanned for witnesses.
    """
    _require_nonnegative(tol, "tolerance")
    d = m.values
    if m.size < 2:
        return None, d, []
    tree = _merge_tree(m.labels, _subdominant_merges(d))
    u = cophenetic_matrix(tree).values
    flagged = np.triu(d > u + tol, 1)
    violations: list[tuple[int, int, int, float, float]] = []
    for i in np.flatnonzero(flagged.any(axis=1)):
        ks = np.flatnonzero(flagged[i])
        # rhs[j, a] = max(d(i,j), d(j,k)) for k = ks[a]; d is exactly symmetric
        rhs = np.maximum(d[i, :, None], d[ks].T)
        # j = i and j = k give rhs = d(i,k), never a violation as tol >= 0;
        # nonzero walks (j, a) row-major, so rows come out sorted by (j, k)
        js, a = np.nonzero(d[i, ks] > rhs + tol)
        k = ks[a]
        violations.extend(
            zip(itertools.repeat(int(i)), js.tolist(), k.tolist(),
                d[i, k].tolist(), rhs[js, a].tolist())
        )
    return tree, u, violations


def verify_ultrametric(
    m: DissimilarityMatrix, tol: float = 1e-9
) -> list[tuple[int, int, int, float, float]]:
    """Every triple violating d(i,k) <= max(d(i,j), d(j,k)) beyond ``tol``.

    Tolerance is absolute on heights.  Violations are reported as
    (i, j, k, lhs, rhs) with i < k and j the witness middle point, sorted;
    an empty list means the matrix is ultrametric at that tolerance.

    A screen makes this O(n^2) plus n per flagged pair: the subdominant
    ultrametric u, the minimax path distance on a minimum spanning tree,
    leaves no witness for a pair with d(i,k) <= u(i,k) + tol, and only the
    remaining pairs are scanned over every middle point.  The screen is
    exact in floating point; the list equals that of the full triple scan.
    """
    return _certify(m, tol)[2]


def classify_triangle(a: float, b: float, c: float, tol: float = 0.02) -> str:
    """Shape of a triangle with side lengths a, b, c.

    Equilateral when all sides agree within relative tolerance ``tol``;
    isosceles-small-base when the two largest sides agree within ``tol``
    and exceed the third; metric-only otherwise.  Symmetric in its three
    arguments.  Triples that are not even metric are reported metric-only
    so the sampling coefficient stays defined on dissimilarity data.
    """
    if a < 0 or b < 0 or c < 0:
        raise DomainError("triangle sides must be nonnegative")
    _require_nonnegative(tol, "tolerance")
    x, y, z = sorted((a, b, c))
    if z == 0.0:
        return EQUILATERAL
    if z - x <= tol * z:
        return EQUILATERAL
    if z - y <= tol * z:
        return ISOSCELES_SMALL_BASE
    return METRIC_ONLY


def ultrametricity_coefficient(
    m: DissimilarityMatrix,
    sample: int = 2000,
    seed: int = 0,
    tol: float = 0.02,
) -> UltrametricityReport:
    """Fraction of sampled triangles classifying equilateral or
    isosceles-small-base at tolerance ``tol``.

    Samples ``sample`` distinct index triples with a generator seeded by
    ``seed``; if ``sample`` meets or exceeds the number of distinct triples,
    every triple is used exactly once.  Deterministic given
    (seed, sample, tol); monotone non-decreasing in ``tol``.
    """
    n = m.size
    if n < 3:
        raise DegenerateInputError("need at least three objects to sample triangles")
    _require_at_least(sample, 1, "sample")
    _require_nonnegative(tol, "tolerance")
    total = n * (n - 1) * (n - 2) // 6
    d = m.values
    if sample >= total:
        # every triple once, one block per smallest index i: the pairs
        # j < k above i are a tail of the upper triangle in row-major order
        js, ks = np.triu_indices(n, 1)
        upper = d[js, ks]
        hits, start = 0, 0
        for i in range(n - 2):
            start += n - 1 - i  # past the pairs of rows 0..i
            hits += _ultrametric_hits(d[i, js[start:]], d[i, ks[start:]], upper[start:], tol)
        sampled = total
    else:
        i, j, k = np.array(_sampled_triples(n, sample, seed)).T
        hits, sampled = _ultrametric_hits(d[i, j], d[i, k], d[j, k], tol), sample
    return UltrametricityReport(
        sampled=sampled,
        coefficient=hits / sampled,
        seed=seed,
        tolerance=tol,
    )


def _sampled_triples(n: int, sample: int, seed: int) -> list[tuple[int, int, int]]:
    """The first ``sample`` distinct sorted triples that repeated
    ``random.Random(seed).sample(range(n), 3)`` calls draw, in sorted order.

    The draws replay CPython's ``Random.sample`` on the generator's
    ``getrandbits`` stream without its per-call overhead: ``_randbelow(m)``
    draws ``m.bit_length()`` bits until the value is below m; for n > 21 each
    of the three indices is drawn below n again until it is new, and for
    n <= 21 the i-th is drawn below n - i from a pool whose drawn slot takes
    the pool's last item.  The test suite pins this against ``sample``.
    """
    getrandbits = random.Random(seed).getrandbits
    chosen: set[tuple[int, int, int]] = set()
    add = chosen.add
    if n <= 21:
        while len(chosen) < sample:
            pool = list(range(n))
            picked = []
            for size in (n, n - 1, n - 2):
                bits = size.bit_length()
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                picked.append(pool[r])
                pool[r] = pool[size - 1]
            picked.sort()
            add(tuple(picked))
        return sorted(chosen)
    bits = n.bit_length()
    while len(chosen) < sample:
        a = getrandbits(bits)
        while a >= n:
            a = getrandbits(bits)
        b = getrandbits(bits)
        while b >= n or b == a:
            b = getrandbits(bits)
        c = getrandbits(bits)
        while c >= n or c == a or c == b:
            c = getrandbits(bits)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        add((a, b, c))
    return sorted(chosen)


def _ultrametric_hits(a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float) -> int:
    """How many triangles with sides ``a``, ``b``, ``c`` (one per position)
    ``classify_triangle`` calls equilateral or isosceles-small-base: with
    sides x <= y <= z a triangle is metric-only unless z == 0 or
    z - y <= tol * z."""
    _, y, z = np.sort((a, b, c), axis=0)
    # inf * 0 at tol = inf, and tol * z past the float range, give nan and
    # inf as Python floats do, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        return int(np.count_nonzero((z == 0) | (z - y <= tol * z)))


def generate_cloud(n: int, dim: int, law: str = "uniform", seed: int = 0) -> np.ndarray:
    """Seeded random point cloud: uniform on [0,1]^dim or standard normal."""
    # the float64 cloud, checked before numpy allocates it
    _require_within_guard(n * dim * 8, "the point cloud")
    _require_at_least(n, 1, "n")
    _require_at_least(dim, 1, "dim")
    if law not in ("uniform", "gaussian"):
        raise DomainError(f"law must be 'uniform' or 'gaussian', got {law!r}")
    _require_nonnegative(seed, "seed")
    rng = np.random.default_rng(seed)
    if law == "uniform":
        return rng.random((n, dim))
    return rng.standard_normal((n, dim))


def _single_linkage_order(tree: Dendrogram) -> list[int]:
    """Terminal order of a single-linkage tree with children sorted by a
    label-free subtree code, so the reordered matrix is unique for the
    weighted-hierarchy isomorphism class."""
    oriented: list[MergeNode] = []

    def code_less(a: Child, b: Child) -> bool:
        # Subtree codes order lexicographically: a bare terminal first, then
        # by (height, code of left child, code of right child).  Pairs still
        # to compare sit on a stack, so deep ties cost no recursion.
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            if x[0] == TERMINAL or y[0] == TERMINAL:
                if x[0] != y[0]:
                    return x[0] == TERMINAL
                continue
            nx, ny = oriented[x[1] - 1], oriented[y[1] - 1]
            if nx.height != ny.height:
                return nx.height < ny.height
            pending.append((nx.right, ny.right))
            pending.append((nx.left, ny.left))
        return False

    for node in tree.nodes:
        a, b = node.left, node.right
        if code_less(b, a):  # the smaller code goes left
            a, b = b, a
        oriented.append(MergeNode(node.rank, node.height, a, b))
    return drawing(_tree(tree.labels, tuple(oriented)))[0]


def check_canonical_form(matrix: np.ndarray) -> str | None:
    """Check the two canonical ultrametric matrix conditions literally.

    Condition 1: above the zero diagonal, every row is non-decreasing
    rightward.  Condition 2: when row k opens with a run of equal values
    d(k,k+1) = ... = d(k,k+l+1), then d(k+1,j) <= d(k,j) inside the run and
    d(k+1,j) = d(k,j) beyond it.  Returns None when both hold, else a
    human-readable description of the first failure, row by row and column
    by column, condition 1 first.  Raises InputShapeError unless
    ``matrix`` is a square 2-d array.
    """
    a = np.asarray(matrix)
    _require_square(a)
    n = len(a)
    if n < 3:  # each condition looks at a column k + 2 or further right
        return None
    # falls[k, j]: row k decreases from column j to j + 1, for j > k
    falls = np.triu(a[:, :-1] > a[:, 1:], 1).ravel()
    first = int(falls.argmax())
    if falls[first]:
        k, j = divmod(first, n - 1)
        return f"row {k} decreases between columns {j} and {j + 1}"
    above, below = a[:-1], a[1:]
    # row k's run ends before its first column j > k + 1 with a value other
    # than d(k,k+1), or at the last column
    rows = np.arange(n - 1)
    breaks = np.triu(above != a[rows, rows + 1, None], 2)
    stop = breaks.argmax(axis=1)
    run_end = np.where(breaks[rows, stop], stop - 1, n - 1)
    # cell (k+1, j) fails when it differs from (k, j) past the run, or
    # exceeds it inside the run (columns k+2..run_end)
    fails = below != above
    beyond = np.arange(n) > run_end[:, None]
    beyond |= below > above
    fails &= beyond
    fails = np.triu(fails, 2).ravel()
    first = int(fails.argmax())
    if not fails[first]:
        return None
    k, j = divmod(first, n)
    if j > run_end[k]:
        return f"run condition fails at row {k}, column {j} (expected equality)"
    return f"run condition fails at row {k}, column {j} (expected <=)"


def canonical_form(
    m: DissimilarityMatrix, tol: float = 0.0
) -> tuple[tuple[int, ...], UltrametricMatrix]:
    """Permutation of 0..n-1 and the reordered matrix in canonical form.

    The order is the terminal order of the tie-rule single-linkage tree
    that the screen of :func:`verify_ultrametric` builds for the
    subdominant ultrametric u, its children sorted by subtree code.  For a
    true ultrametric, u is the matrix itself and the order satisfies both
    canonical conditions, which an internal checker verifies before
    returning.  A matrix meeting both conditions is an exact ultrametric,
    so one that is ultrametric only within ``tol > 0`` (and so differs
    from u) fails that check under any order.
    """
    tree, _, violations = _certify(m, tol)
    if violations:
        i, j, k, lhs, rhs = violations[0]
        raise NotUltrametricError(
            f"matrix is not ultrametric: d({i},{k})={lhs} > max(d({i},{j}), d({j},{k}))={rhs}"
        )
    perm = range(m.size) if tree is None else _single_linkage_order(tree)
    idx = np.asarray(perm, dtype=np.intp)
    reordered = m.values[np.ix_(idx, idx)]
    problem = check_canonical_form(reordered)
    # the conditions are exact: at tol > 0 a matrix ultrametric only within
    # tol passes the screen above and still breaks them
    if problem is not None:
        raise NotUltrametricError(f"canonical ordering failed verification: {problem}")
    return tuple(perm), UltrametricMatrix._built(reordered, tuple(m.labels[i] for i in perm))

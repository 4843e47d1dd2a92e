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
                     _require_at_least, _require_nonnegative, _require_within_guard)
from .hierarchy import (
    Child,
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    TERMINAL,
    UltrametricMatrix,
    agglomerate,
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


def _lca_heights(tree: Dendrogram) -> np.ndarray:
    """The n x n array of :func:`cophenetic_matrix`, unvalidated."""
    order, ranks = drawing(tree)
    levels = gap_levels(order, np.array(ranks, dtype=np.intp))
    return np.array([0.0, *tree.heights()])[levels]


def cophenetic_matrix(tree: Dendrogram) -> UltrametricMatrix:
    """Pairwise heights of lowest common ancestors.

    Entry (i, j) is the height of the lowest-rank internal node whose
    subtree contains both terminals, read as the highest rank between them
    in the drawing (:func:`~dendrocode.hierarchy.gap_levels`); exact copies
    of the stored heights, so for monotone trees the result passes
    ``verify_ultrametric`` at tolerance 0.
    """
    return UltrametricMatrix(_lca_heights(tree), tree.labels)


def _certify(
    m: DissimilarityMatrix, tol: float
) -> tuple[Dendrogram | None, list[tuple[int, int, int, float, float]]]:
    """The single-linkage tree of ``m`` (None for one object) and the
    violation list of :func:`verify_ultrametric`.

    Single linkage gives the subdominant ultrametric u (Gower & Ross 1969):
    its heights are entries of d, and u(i,k) <= max(d(i,j), d(j,k)) for
    every j.  Rounding is monotone, so u + tol <= rhs + tol in floating
    point too, and a pair with d(i,k) <= u(i,k) + tol has no violation.
    Only the other pairs are scanned for witnesses.
    """
    _require_nonnegative(tol, "tolerance")
    if m.size < 2:
        return None, []
    d = m.values
    tree = agglomerate(m, "single")
    flagged = np.triu(d > _lca_heights(tree) + tol, 1)
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
    return tree, violations


def verify_ultrametric(
    m: DissimilarityMatrix, tol: float = 1e-9
) -> list[tuple[int, int, int, float, float]]:
    """Every triple violating d(i,k) <= max(d(i,j), d(j,k)) beyond ``tol``.

    Tolerance is absolute on heights.  Violations are reported as
    (i, j, k, lhs, rhs) with i < k and j the witness middle point, sorted;
    an empty list means the matrix is ultrametric at that tolerance.

    A screen makes this O(n^2) plus n per flagged pair: the single-linkage
    cophenetic matrix u is the subdominant ultrametric, so no witness can
    exist for a pair with d(i,k) <= u(i,k) + tol, and only the remaining
    pairs are scanned over every middle point.  The screen is exact in
    floating point; the list equals that of the full triple scan.
    """
    return _certify(m, tol)[1]


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
        rng = random.Random(seed)
        chosen: set[tuple[int, int, int]] = set()
        while len(chosen) < sample:
            picked = rng.sample(range(n), 3)
            picked.sort()
            chosen.add(tuple(picked))
        i, j, k = np.array(sorted(chosen)).T
        hits, sampled = _ultrametric_hits(d[i, j], d[i, k], d[j, k], tol), sample
    return UltrametricityReport(
        sampled=sampled,
        coefficient=hits / sampled,
        seed=seed,
        tolerance=tol,
    )


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
    return list(Dendrogram(tree.labels, tuple(oriented)).terminal_order())


def check_canonical_form(matrix: np.ndarray) -> str | None:
    """Check the two canonical ultrametric matrix conditions literally.

    Condition 1: above the zero diagonal, every row is non-decreasing
    rightward.  Condition 2: when row k opens with a run of equal values
    d(k,k+1) = ... = d(k,k+l+1), then d(k+1,j) <= d(k,j) inside the run and
    d(k+1,j) = d(k,j) beyond it.  Returns None when both hold, else a
    human-readable description of the first failure.
    """
    # one row at a time as Python floats, which index far faster than numpy scalars
    rows = np.asarray(matrix)
    n = rows.shape[0]
    for k in range(n):
        row = rows[k].tolist()
        for j in range(k + 1, n - 1):
            if row[j] > row[j + 1]:
                return f"row {k} decreases between columns {j} and {j + 1}"
    for k in range(n - 1):
        row, below = rows[k].tolist(), rows[k + 1].tolist()
        run_end = k + 1
        while run_end + 1 < n and row[run_end + 1] == row[k + 1]:
            run_end += 1
        for j in range(k + 2, run_end + 1):
            if below[j] > row[j]:
                return f"run condition fails at row {k}, column {j} (expected <=)"
        for j in range(run_end + 1, n):
            if below[j] != row[j]:
                return f"run condition fails at row {k}, column {j} (expected equality)"
    return None


def canonical_form(
    m: DissimilarityMatrix, tol: float = 0.0
) -> tuple[tuple[int, ...], UltrametricMatrix]:
    """Permutation of 0..n-1 and the reordered matrix in canonical form.

    The order comes from the terminal order of the single-linkage tree that
    also screens the ultrametric check; for a true ultrametric this
    satisfies both canonical conditions, which an internal checker verifies
    before returning.
    """
    tree, violations = _certify(m, tol)
    if violations:
        i, j, k, lhs, rhs = violations[0]
        raise NotUltrametricError(
            f"matrix is not ultrametric: d({i},{k})={lhs} > max(d({i},{j}), d({j},{k}))={rhs}"
        )
    perm = _single_linkage_order(tree) if tree is not None else [0]
    idx = np.asarray(perm)
    reordered = m.values[np.ix_(idx, idx)]
    problem = check_canonical_form(reordered)
    # the conditions are exact: at tol > 0 a matrix ultrametric only within
    # tol can pass the check above and still break them
    if problem is not None:
        raise NotUltrametricError(f"canonical ordering failed verification: {problem}")
    return tuple(perm), UltrametricMatrix(reordered, tuple(m.labels[i] for i in perm))

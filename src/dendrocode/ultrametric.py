"""Ultrametric (cophenetic) matrices: derivation from trees, verification,
canonical row/column ordering, triangle classification, and a sampling
coefficient measuring how ultrametric an arbitrary dissimilarity table is.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, NotUltrametricError
from .hierarchy import (
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    TERMINAL,
    UltrametricMatrix,
    agglomerate,
    member_sets,
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
    subtree contains both terminals; exact copies of the stored heights,
    so for monotone trees the result passes ``verify_ultrametric`` at
    tolerance 0.
    """
    n = tree.n
    out = np.zeros((n, n), dtype=float)
    sets = member_sets(tree)

    def side_members(child) -> frozenset[int]:
        kind, idx = child
        return frozenset((idx,)) if kind == "t" else sets[idx]

    for node in tree.nodes:
        left = sorted(side_members(node.left))
        right = sorted(side_members(node.right))
        for i in left:
            out[i, right] = node.height
        for j in right:
            out[j, left] = node.height
    return UltrametricMatrix(out, tree.labels)


def verify_ultrametric(
    m: DissimilarityMatrix, tol: float = 1e-9
) -> list[tuple[int, int, int, float, float]]:
    """Every triple violating d(i,k) <= max(d(i,j), d(j,k)) beyond ``tol``.

    Tolerance is absolute on heights.  Violations are reported as
    (i, j, k, lhs, rhs) with i < k and j the witness middle point; an empty
    list means the matrix is ultrametric at that tolerance.
    """
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    d = m.values
    n = m.size
    violations: list[tuple[int, int, int, float, float]] = []
    for j in range(n):
        # lhs d(i,k) against max(d(i,j), d(j,k)) for all i<k, vectorized per middle j
        rhs = np.maximum.outer(d[:, j], d[j, :])
        bad = d > rhs + tol
        bad[j, :] = False
        bad[:, j] = False
        for i, k in zip(*np.nonzero(np.triu(bad, 1))):
            violations.append((int(i), int(j), int(k), float(d[i, k]), float(rhs[i, k])))
    violations.sort()
    return violations


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
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    x, y, z = sorted((a, b, c))
    if z == 0.0:
        return EQUILATERAL
    if z - x <= tol * z:
        return EQUILATERAL
    if z - y <= tol * z:
        return ISOSCELES_SMALL_BASE
    return METRIC_ONLY


def _all_triples(n: int):
    return itertools.combinations(range(n), 3)


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
    if sample < 1:
        raise DomainError("sample must be at least 1")
    total = n * (n - 1) * (n - 2) // 6
    if sample >= total:
        triples = list(_all_triples(n))
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, int, int]] = set()
        while len(chosen) < sample:
            picked = rng.sample(range(n), 3)
            picked.sort()
            chosen.add(tuple(picked))
        triples = sorted(chosen)
    d = m.values
    hits = 0
    for i, j, k in triples:
        if classify_triangle(d[i, j], d[i, k], d[j, k], tol) != METRIC_ONLY:
            hits += 1
    return UltrametricityReport(
        sampled=len(triples),
        coefficient=hits / len(triples),
        seed=seed,
        tolerance=tol,
    )


def generate_cloud(n: int, dim: int, law: str = "uniform", seed: int = 0) -> np.ndarray:
    """Seeded random point cloud: uniform on [0,1]^dim or standard normal."""
    if n < 1 or dim < 1:
        raise DomainError("n and dim must be at least 1")
    if law not in ("uniform", "gaussian"):
        raise DomainError(f"law must be 'uniform' or 'gaussian', got {law!r}")
    rng = np.random.default_rng(seed)
    if law == "uniform":
        return rng.random((n, dim))
    return rng.standard_normal((n, dim))


def _single_linkage_order(m: DissimilarityMatrix) -> list[int]:
    """Terminal order of a single-linkage tree with children sorted by a
    label-free subtree code, so the reordered matrix is unique for the
    weighted-hierarchy isomorphism class."""
    tree = agglomerate(m, "single")
    # (code, size) of every subtree, bottom-up; the smaller one goes left
    terminal_key = ((), 1)
    keys: dict[int, tuple[tuple, int]] = {}
    oriented: list[MergeNode] = []
    for node in tree.nodes:
        a, b = node.left, node.right
        ka = terminal_key if a[0] == TERMINAL else keys[a[1]]
        kb = terminal_key if b[0] == TERMINAL else keys[b[1]]
        if kb < ka:
            a, b, ka, kb = b, a, kb, ka
        keys[node.rank] = ((node.height, ka[0], kb[0]), ka[1] + kb[1])
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
    d = matrix
    n = d.shape[0]
    for k in range(n):
        for j in range(k + 1, n - 1):
            if d[k, j] > d[k, j + 1]:
                return f"row {k} decreases between columns {j} and {j + 1}"
    for k in range(n - 1):
        run_end = k + 1
        while run_end + 1 < n and d[k, run_end + 1] == d[k, k + 1]:
            run_end += 1
        for j in range(k + 2, run_end + 1):
            if d[k + 1, j] > d[k, j]:
                return f"run condition fails at row {k}, column {j} (expected <=)"
        for j in range(run_end + 1, n):
            if d[k + 1, j] != d[k, j]:
                return f"run condition fails at row {k}, column {j} (expected equality)"
    return None


def canonical_form(
    m: DissimilarityMatrix, tol: float = 0.0
) -> tuple[tuple[int, ...], UltrametricMatrix]:
    """Permutation of 0..n-1 and the reordered matrix in canonical form.

    The order comes from the terminal order of a single-linkage tree built
    on the matrix; for a true ultrametric this satisfies both canonical
    conditions, which an internal checker verifies before returning.
    """
    violations = verify_ultrametric(m, tol)
    if violations:
        i, j, k, lhs, rhs = violations[0]
        raise NotUltrametricError(
            f"matrix is not ultrametric: d({i},{k})={lhs} > max(d({i},{j}), d({j},{k}))={rhs}"
        )
    if m.size == 1:
        perm: list[int] = [0]
    elif m.size == 2:
        perm = [0, 1]
    else:
        perm = _single_linkage_order(m)
    idx = np.asarray(perm)
    reordered = m.values[np.ix_(idx, idx)]
    problem = check_canonical_form(reordered)
    if problem is not None:  # pragma: no cover - guarded by the ultrametric check
        raise NotUltrametricError(f"canonical ordering failed verification: {problem}")
    labels = m.labels
    new_labels = tuple(labels[i] for i in perm) if labels is not None else None
    return tuple(perm), UltrametricMatrix(reordered, new_labels)

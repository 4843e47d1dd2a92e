"""Haar wavelet transform of a dendrogram: recursive pairwise averaging up
the tree (smooths) with signed half-differences (details), exactly
invertible, plus threshold-based wavelet regression.

Per internal node: smooth = (s_left + s_right) / 2 and detail =
(s_left - s_right) / 2, stored once; reconstruction adds the detail on the
left support and subtracts it on the right, so the two signed contributions
sum to zero exactly.  Swapping a node's children negates that node's detail
bit-for-bit and leaves reconstructions byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DomainError
from .hierarchy import Child, Dendrogram, TERMINAL, walk


@dataclass(frozen=True)
class HaarTransform:
    """Root smooth plus one detail vector per internal node rank, all finite."""

    tree: Dendrogram
    root_smooth: np.ndarray
    details: tuple[np.ndarray, ...]  # index k holds the rank-(k+1) detail

    def __post_init__(self) -> None:
        root = np.asarray(self.root_smooth, dtype=float).copy()
        root.setflags(write=False)
        object.__setattr__(self, "root_smooth", root)
        if len(self.details) != len(self.tree.nodes):
            raise DomainError("need exactly one detail vector per internal node")
        frozen = []
        for d in self.details:
            arr = np.asarray(d, dtype=float).copy()
            if arr.shape != root.shape:
                raise DomainError("detail vectors must match the smooth's dimensionality")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "details", tuple(frozen))
        # a coefficient read as inf or nan, or an overflowing smooth, which
        # reaches the root as inf or nan
        if not (np.isfinite(root).all() and all(np.isfinite(d).all() for d in frozen)):
            raise DomainError("Haar coefficients must be finite; a value is inf, nan "
                              "or overflows the float range")

    @property
    def dim(self) -> int:
        return int(self.root_smooth.shape[0])

    def detail(self, rank: int) -> np.ndarray:
        return self.details[rank - 1]


def haar_forward(tree: Dendrogram, data: np.ndarray) -> HaarTransform:
    """Decompose ``data`` (rows aligned to the tree's terminal label order)
    into the root smooth and per-node details, processing nodes in rank
    order with unweighted child means."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != tree.n:
        raise AlignmentError(
            f"data has {arr.shape[0]} rows but the tree has {tree.n} terminals"
        )
    if arr.shape[1] < 1:
        raise AlignmentError("data needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise DomainError("data contains missing or infinite values")
    smooths: dict[Child, np.ndarray] = {
        (TERMINAL, i): arr[i, :].astype(float) for i in range(tree.n)
    }
    details: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for node in tree.nodes:
            s_left = smooths[node.left]
            s_right = smooths[node.right]
            smooths[("q", node.rank)] = (s_left + s_right) / 2.0
            details.append((s_left - s_right) / 2.0)
    if tree.nodes:
        root_smooth = smooths[("q", tree.nodes[-1].rank)]
    else:
        root_smooth = smooths[(TERMINAL, 0)]
    return HaarTransform(tree, root_smooth, tuple(details))


def haar_inverse(t: HaarTransform) -> np.ndarray:
    """Exact reconstruction: each terminal is the root smooth plus the
    signed details along its root-to-terminal path (+ on left supports,
    - on right supports), accumulated top-down in path order."""
    tree = t.tree
    out = np.empty((tree.n, t.dim), dtype=float)
    # acc[-1]: the root smooth plus the signed details along the current path
    acc = [t.root_smooth]
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, idx), visit in walk(tree):
            if kind == TERMINAL:
                out[idx, :] = acc[-1]
            elif visit == 0:
                acc.append(acc[-1] + t.detail(idx))
            elif visit == 1:
                acc[-1] = acc[-2] - t.detail(idx)
            else:
                acc.pop()
    if not np.isfinite(out).all():
        raise DomainError("Haar reconstruction overflows the float range")
    return out


def haar_threshold(t: HaarTransform, epsilon: float) -> HaarTransform:
    """Zero every detail coefficient with absolute value below ``epsilon``;
    topology and root smooth unchanged.  Thresholding is per coordinate."""
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    thinned = tuple(
        np.where(np.abs(d) < epsilon, 0.0, d) for d in t.details
    )
    return HaarTransform(t.tree, t.root_smooth, thinned)

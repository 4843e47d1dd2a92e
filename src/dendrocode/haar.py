"""Haar wavelet transform of a dendrogram: recursive pairwise averaging up
the tree (smooths) with signed half-differences (details), exactly
invertible, plus threshold-based wavelet regression.

Per internal node: smooth = (s_left + s_right) / 2 and detail =
(s_left - s_right) / 2, stored once; reconstruction adds the detail on the
left support and subtracts it on the right, so the two signed contributions
sum to zero exactly.  Swapping a node's children negates that node's detail
bit-for-bit and leaves reconstructions byte-identical.

Both directions run over one (2n - 1)-row table of smooths: slot i holds
terminal i and slot n + r - 1 the node of rank r, so the root is the last
row.  The forward pass fills it in increasing rank, the inverse in
decreasing rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DomainError, _require_nonnegative
from .hierarchy import Child, Dendrogram, TERMINAL


@dataclass(frozen=True)
class HaarTransform:
    """Root smooth plus one detail vector per internal node rank, all finite.

    The constructor takes any sequence of equal-length detail vectors and
    keeps a read-only (n - 1) x dim copy."""

    tree: Dendrogram
    root_smooth: np.ndarray
    details: np.ndarray  # row k holds the rank-(k+1) detail

    def __post_init__(self) -> None:
        root = np.array(self.root_smooth, dtype=float)
        root.setflags(write=False)
        object.__setattr__(self, "root_smooth", root)
        shape = (len(self.tree.nodes), *root.shape)
        if len(self.details) != shape[0]:
            raise DomainError("need exactly one detail vector per internal node")
        try:
            details = np.array(self.details if shape[0] else np.empty(shape), dtype=float)
        except ValueError:  # ragged vectors
            details = None
        if details is None or details.shape != shape:
            raise DomainError("detail vectors must match the smooth's dimensionality")
        details.setflags(write=False)
        object.__setattr__(self, "details", details)
        # a coefficient read as inf or nan, or an overflowing smooth, which
        # reaches the root as inf or nan
        if not (np.isfinite(root).all() and np.isfinite(details).all()):
            raise DomainError("Haar coefficients must be finite; a value is inf, nan "
                              "or overflows the float range")

    @property
    def dim(self) -> int:
        return int(self.root_smooth.shape[0])

    def detail(self, rank: int) -> np.ndarray:
        return self.details[rank - 1]


def _slot(child: Child, n: int) -> int:
    kind, idx = child
    return idx if kind == TERMINAL else n + idx - 1


def haar_forward(tree: Dendrogram, data: np.ndarray) -> HaarTransform:
    """Decompose ``data`` (rows aligned to the tree's terminal label order)
    into the root smooth and per-node details, processing nodes in rank
    order with unweighted child means."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    n = tree.n
    if arr.shape[0] != n:
        raise AlignmentError(f"data has {arr.shape[0]} rows but the tree has {n} terminals")
    if arr.shape[1] < 1:
        raise AlignmentError("data needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise DomainError("data contains missing or infinite values")
    smooths = np.empty((2 * n - 1, arr.shape[1]))
    smooths[:n] = arr
    details = np.empty((n - 1, arr.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, node in enumerate(tree.nodes):
            s_left = smooths[_slot(node.left, n)]
            s_right = smooths[_slot(node.right, n)]
            smooths[n + k] = (s_left + s_right) / 2.0
            details[k] = (s_left - s_right) / 2.0
    return HaarTransform(tree, smooths[-1], details)


def haar_inverse(t: HaarTransform) -> np.ndarray:
    """Exact reconstruction: each terminal is the root smooth plus the
    signed details along its root-to-terminal path (+ on left supports,
    - on right supports), accumulated top-down in decreasing rank."""
    n = t.tree.n
    smooths = np.empty((2 * n - 1, t.dim))
    smooths[-1] = t.root_smooth
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 2, -1, -1):
            node, parent, d = t.tree.nodes[k], smooths[n + k], t.details[k]
            smooths[_slot(node.left, n)] = parent + d
            smooths[_slot(node.right, n)] = parent - d
    out = smooths[:n]
    if not np.isfinite(out).all():
        raise DomainError("Haar reconstruction overflows the float range")
    return out


def haar_threshold(t: HaarTransform, epsilon: float) -> HaarTransform:
    """Zero every detail coefficient with absolute value below ``epsilon``;
    topology and root smooth unchanged.  Thresholding is per coordinate."""
    _require_nonnegative(epsilon, "epsilon")
    thinned = np.where(np.abs(t.details) < epsilon, 0.0, t.details)
    return HaarTransform(t.tree, t.root_smooth, thinned)

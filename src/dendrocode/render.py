"""Deterministic monospaced rendering of a dendrogram.

Terminals are listed top to bottom in the canonical drawing order; each
internal node appears as a junction column placed by rank, annotated at the
right margin with its rank and height.  Rendering the same tree twice
yields byte-identical output.

The rows are written once each, in the order of the canonical drawing
(``Dendrogram._drawing``), and handed on one at a time, so the writer holds
no more of the text than a block.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

from .formats import fmt_float
from .hierarchy import Dendrogram, canonicalize


def render_tree(tree: Dendrogram, full_precision: bool = False) -> str:
    return "".join(_render_chunks(tree, full_precision))


def _render_chunks(tree: Dendrogram, full_precision: bool = False) -> Iterator[str]:
    """``render_tree`` text, one piece per row: row 2k is the terminal at
    drawing position k, and row 2k - 1 the junction of the rank that joins
    gap k."""
    tree = canonicalize(tree)
    if tree.n == 1:
        yield f"{tree.labels[0]}\n"
        return

    label_width = max(len(label) for label in tree.labels)

    def column(rank: int) -> int:
        return label_width + 1 + 3 * rank

    n, margin = tree.n, column(tree.n - 1) + 4
    order, gap, _, _ = tree._drawing
    # the parent rank of each child, 0 for the root, and whether it is the
    # left child, at the child's code: rank r at r, terminal i at -(i + 1)
    parent, left = [0] * (2 * n), [False] * (2 * n)
    rows = [~order[0]] + [0] * (2 * n - 2)  # the child drawn on each row
    for rank, a, b, k in zip(range(1, n), tree._left, tree._right, gap):
        parent[a] = parent[b] = rank
        left[a] = True
        rows[2 * k - 1], rows[2 * k] = rank, ~order[k]
    # a node's vertical line runs from its left child's row to its right
    # child's row; these are the sorted columns of the lines still open
    bars: list[int] = []
    for child in rows:
        if child < 0:
            line = f"{tree.labels[~child]:<{label_width}} "
        else:  # the junction row, between the two subtrees
            line = " " * column(child) + "+"
        if rank := parent[child]:  # every row but the root's junction row
            col = column(rank)
            if not left[child]:
                bars.remove(col)
            line += "-" * (col - len(line)) + "+"
            if left[child]:
                insort(bars, col)
        for col in bars[bisect_left(bars, len(line)) :]:
            line += " " * (col - len(line)) + "|"
        if child > 0:
            height = fmt_float(tree._heights[tree._level[child - 1]], full_precision)
            line += " " * (margin - len(line)) + f"q{child} h={height}"
        yield line + "\n"

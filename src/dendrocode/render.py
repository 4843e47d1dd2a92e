"""Deterministic monospaced rendering of a dendrogram.

Terminals are listed top to bottom in the canonical drawing order; each
internal node appears as a junction column placed by rank, annotated at the
right margin with its rank and height.  Rendering the same tree twice
yields byte-identical output.

The rows are written once each, in the order of the tree walk, so the
memory used is in proportion to the text.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .hierarchy import Dendrogram, TERMINAL, canonicalize, walk


def render_tree(tree: Dendrogram, full_precision: bool = False) -> str:
    from .formats import fmt_float

    tree = canonicalize(tree)
    if not tree.nodes:
        return f"{tree.labels[0]}\n"

    label_width = max(len(label) for label in tree.labels)

    def column(rank: int) -> int:
        return label_width + 1 + 3 * rank

    margin = column(len(tree.nodes)) + 4
    parent = {}  # (parent rank, is left child) of every child
    for node in tree.nodes:
        parent[node.left], parent[node.right] = (node.rank, True), (node.rank, False)
    # a node's vertical line runs from its left child's row to its right
    # child's row; these are the sorted columns of the lines still open
    bars: list[int] = []
    lines = []
    for child, visit in walk(tree):
        kind, idx = child
        if kind == TERMINAL:
            line = f"{tree.labels[idx]:<{label_width}} "
        elif visit == 1:  # the junction row, between the two subtrees
            line = " " * column(idx) + "+"
        else:
            continue
        if child in parent:  # every row but the root's junction row
            rank, left = parent[child]
            col = column(rank)
            if not left:
                bars.remove(col)
            line += "-" * (col - len(line)) + "+"
            if left:
                insort(bars, col)
        for col in bars[bisect_left(bars, len(line)) :]:
            line += " " * (col - len(line)) + "|"
        if kind != TERMINAL:
            height = fmt_float(tree.nodes[idx - 1].height, full_precision)
            line += " " * (margin - len(line)) + f"q{idx} h={height}"
        lines.append(line)
    return "\n".join(lines) + "\n"

"""Deterministic monospaced rendering of a dendrogram.

Terminals are listed top to bottom in the canonical drawing order; each
internal node appears as a junction column placed by rank, annotated at the
right margin with its rank and height.  Rendering the same tree twice
yields byte-identical output.
"""

from __future__ import annotations

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
    lines: list[list[str]] = []

    def put(row: int, col: int, text: str, keep: bool = False) -> None:
        line = lines[row]
        if len(line) < col + len(text):
            line.extend(" " * (col + len(text) - len(line)))
        for offset, ch in enumerate(text):
            if not keep or line[col + offset] == " ":
                line[col + offset] = ch

    # attach (row, col) of the last finished subtree, and the (top attach
    # row, junction row) of every node whose right subtree is being drawn
    attach = (0, 0)
    open_nodes: list[tuple[int, int]] = []
    for (kind, idx), visit in walk(tree):
        if kind == TERMINAL:
            attach = (len(lines), label_width + 1)
            lines.append(list(f"{tree.labels[idx]:<{label_width}} "))
            continue
        col = column(idx)
        if visit == 1:
            top_row, top_col = attach
            put(top_row, top_col, "-" * (col - top_col) + "+")
            open_nodes.append((top_row, len(lines)))
            lines.append([])
        elif visit == 2:
            bottom_row, bottom_col = attach
            put(bottom_row, bottom_col, "-" * (col - bottom_col) + "+")
            top_row, junction_row = open_nodes.pop()
            for row in range(top_row + 1, bottom_row):
                put(row, col, "|" if row != junction_row else "+", keep=True)
            height = tree.nodes[idx - 1].height
            put(junction_row, margin, f"q{idx} h={fmt_float(height, full_precision)}")
            attach = (junction_row, col + 1)
    return "\n".join("".join(line).rstrip() for line in lines) + "\n"

"""File formats: CSV tables and matrices, the shared dendrogram JSON schema,
Newick export, the wavelet-table CSV layout, coefficient-matrix JSON, and
small report emitters.

Dendrogram JSON: ``{"n", "labels", "nodes": [{"rank", "height", "left",
"right"}, ...]}`` where children are referenced as ``"t<i>"`` (terminals,
1-based label positions) and ``"q<rank>"`` (internal nodes).  Heights are
emitted at full precision; tabular floats default to 7 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .baire import BaireString, parse_digits
from .errors import ParseError
from .haar import HaarTransform
from .hierarchy import (
    Child,
    Dendrogram,
    DissimilarityMatrix,
    INTERNAL,
    MergeNode,
    TERMINAL,
    walk,
)
from .lattice import BooleanTable, Semilattice
from .padic import PadicEncoding
from .ultrametric import UltrametricityReport


def fmt_float(x: float, full_precision: bool = False) -> str:
    if full_precision:
        return repr(float(x))
    return f"{float(x):.7g}"


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _rows_from_csv(text: str) -> list[list[str]]:
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError("empty CSV input")
    return [[c.strip() for c in row] for row in rows]


class DataTable(typing.NamedTuple):
    header: tuple[str, ...] | None
    labels: tuple[str, ...] | None
    values: np.ndarray


def read_data_csv(
    text: str, header: bool | None = None, labels: bool | None = None
) -> DataTable:
    """Parse a data table: optional header row, optional label column.

    With ``header``/``labels`` left as None the layout is sniffed: a
    non-numeric first row is a header, a non-numeric leading column holds
    labels.
    """
    rows = _rows_from_csv(text)
    if header is None:
        header = not all(_is_number(c) for c in (rows[0][1:] or rows[0]))
    body = rows[1:] if header else rows
    if not body:
        raise ParseError("no data rows")
    if labels is None:
        labels = not _is_number(body[0][0])
    header_names = None
    if header:
        header_names = tuple(rows[0][1:] if labels else rows[0])
    names: list[str] | None = [] if labels else None
    data: list[list[float]] = []
    width = None
    for lineno, row in enumerate(body, start=2 if header else 1):
        cells = row
        if labels:
            if names is not None:
                names.append(cells[0])
            cells = cells[1:]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"line {lineno}: expected {width} cells, got {len(cells)}")
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(f"line {lineno}, column {col}: {cell!r} is not a number") from None
        data.append(parsed)
    return DataTable(
        header_names,
        tuple(names) if names is not None else None,
        np.asarray(data, dtype=float),
    )


def read_matrix_csv(text: str) -> DissimilarityMatrix:
    table = read_data_csv(text)
    return DissimilarityMatrix(table.values, table.labels)


def write_matrix_csv(
    m: DissimilarityMatrix, full_precision: bool = False
) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    labels = m.label_list()
    writer.writerow([""] + list(labels))
    for label, row in zip(labels, m.values):
        writer.writerow([label] + [fmt_float(v, full_precision) for v in row])
    return out.getvalue()


def _child_token(child: Child) -> str:
    kind, idx = child
    return f"t{idx + 1}" if kind == TERMINAL else f"q{idx}"


def _parse_child(token: str, n: int) -> Child:
    if not isinstance(token, str) or len(token) < 2 or token[0] not in "tq":
        raise ParseError(f"bad child reference {token!r}")
    try:
        idx = int(token[1:])
    except ValueError:
        raise ParseError(f"bad child reference {token!r}") from None
    if token[0] == "t":
        if not 1 <= idx <= n:
            raise ParseError(f"terminal reference {token!r} out of range 1..{n}")
        return (TERMINAL, idx - 1)
    if not 1 <= idx <= n - 1:
        raise ParseError(f"node reference {token!r} out of range q1..q{n - 1}")
    return (INTERNAL, idx)


def tree_to_json(tree: Dendrogram) -> str:
    doc = {
        "n": tree.n,
        "labels": list(tree.labels),
        "nodes": [
            {
                "rank": node.rank,
                "height": node.height,
                "left": _child_token(node.left),
                "right": _child_token(node.right),
            }
            for node in tree.nodes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def tree_from_json(text: str) -> Dendrogram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        labels = tuple(str(x) for x in doc["labels"])
        n = int(doc.get("n", len(labels)))
        raw_nodes = doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"tree JSON missing field: {exc}") from None
    if n != len(labels):
        raise ParseError(f"n={n} does not match {len(labels)} labels")
    if not isinstance(raw_nodes, list) or not all(
        isinstance(item, dict) and isinstance(item.get("rank", 0), int) for item in raw_nodes
    ):
        raise ParseError("tree JSON field 'nodes' must be a list of objects with integer ranks")
    nodes = []
    for item in sorted(raw_nodes, key=lambda d: d.get("rank", 0)):
        try:
            nodes.append(
                MergeNode(
                    rank=int(item["rank"]),
                    height=float(item["height"]),
                    left=_parse_child(item["left"], n),
                    right=_parse_child(item["right"], n),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad node record {item!r}: {exc}") from None
    return Dendrogram(labels, tuple(nodes))


def tree_to_newick(tree: Dendrogram, full_precision: bool = False) -> str:
    """Newick text with branch lengths = parent height - child height
    (terminals sit at height 0); the root carries its height as a comment."""

    def clean(label: str) -> str:
        return label.replace(" ", "_").replace(",", "_").replace("(", "_").replace(")", "_")

    if not tree.nodes:
        return f"{clean(tree.labels[0])};\n"
    parts: list[str] = []
    heights: list[float] = []  # heights of the open ancestors
    for (kind, idx), visit in walk(tree):
        if kind == TERMINAL:
            parts.append(f"{clean(tree.labels[idx])}:{fmt_float(heights[-1], full_precision)}")
        elif visit == 0:
            parts.append("(")
            heights.append(tree.nodes[idx - 1].height)
        elif visit == 1:
            parts.append(",")
        else:
            height = heights.pop()
            parts.append(")")
            if heights:
                parts.append(f":{fmt_float(heights[-1] - height, full_precision)}")
    return f"{''.join(parts)}[height={fmt_float(tree.nodes[-1].height, full_precision)}];\n"


def haar_to_csv(t: HaarTransform, coord_names: Sequence[str] | None = None,
                full_precision: bool = False) -> str:
    """Wavelet table layout: rows are coordinates, columns are the root
    smooth s_{n-1} followed by details d_{n-1} down to d_1."""
    m = t.dim
    n1 = len(t.details)
    if coord_names is None:
        coord_names = tuple(f"c{i + 1}" for i in range(m))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + [f"s{n1}"] + [f"d{r}" for r in range(n1, 0, -1)])
    for c in range(m):
        row = [coord_names[c], fmt_float(t.root_smooth[c], full_precision)]
        row += [fmt_float(t.details[r - 1][c], full_precision) for r in range(n1, 0, -1)]
        writer.writerow(row)
    return out.getvalue()


def haar_from_csv(text: str, tree: Dendrogram) -> tuple[HaarTransform, tuple[str, ...]]:
    rows = _rows_from_csv(text)
    header = rows[0]
    n1 = len(tree.nodes)
    expected = [""] + [f"s{n1}"] + [f"d{r}" for r in range(n1, 0, -1)]
    if [h.strip() for h in header] != expected:
        raise ParseError(f"wavelet CSV header {header!r} does not match tree with {n1} nodes")
    coord_names = []
    smooth = []
    details: list[list[float]] = [[] for _ in range(n1)]
    for row in rows[1:]:
        if len(row) != n1 + 2:
            raise ParseError(f"wavelet CSV row {row!r} has wrong width")
        coord_names.append(row[0])
        smooth.append(float(row[1]))
        for pos in range(n1):
            details[n1 - 1 - pos].append(float(row[2 + pos]))
    root = np.asarray(smooth, dtype=float)
    detail_arrays = tuple(np.asarray(d, dtype=float) for d in details)
    return HaarTransform(tree, root, detail_arrays), tuple(coord_names)


def write_data_csv(
    data: np.ndarray,
    labels: Sequence[str] | None = None,
    header: Sequence[str] | None = None,
    full_precision: bool = False,
) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header is not None:
        writer.writerow(([""] if labels is not None else []) + list(header))
    for i, row in enumerate(np.atleast_2d(data)):
        prefix = [labels[i]] if labels is not None else []
        writer.writerow(prefix + [fmt_float(v, full_precision) for v in row])
    return out.getvalue()


def encoding_to_json(enc: PadicEncoding) -> str:
    doc = {
        "p": enc.p,
        "n": enc.n,
        "labels": list(enc.labels),
        "C": [c for row in enc.C for c in row],
    }
    return json.dumps(doc, indent=2) + "\n"


def encoding_from_json(text: str) -> PadicEncoding:
    try:
        doc = json.loads(text)
        p = int(doc["p"])
        n = int(doc["n"])
        labels = tuple(str(x) for x in doc["labels"])
        flat = [int(c) for c in doc["C"]]
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"encoding JSON missing or bad field: {exc}") from None
    if len(labels) != n or len(flat) != n * (n - 1):
        raise ParseError("encoding JSON has inconsistent sizes")
    width = n - 1
    rows = tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(n))
    return PadicEncoding(p, labels, rows)


def decimal_codes_csv(enc: PadicEncoding) -> str:
    from .padic import evaluate_code

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "code"])
    for i, label in enumerate(enc.labels):
        writer.writerow([label, evaluate_code(enc.code(i))])
    return out.getvalue()


def fraction_matrix_csv(
    labels: Sequence[str], values: Sequence[Sequence[Fraction]]
) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(labels))
    for label, row in zip(labels, values):
        writer.writerow([label] + [str(v) for v in row])
    return out.getvalue()


def violations_csv(violations: Iterable[tuple[int, int, int, float, float]],
                   full_precision: bool = False) -> str:
    """Violating triples as 1-based (i, j, k, lhs, rhs) rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "k", "lhs", "rhs"])
    for i, j, k, lhs, rhs in violations:
        writer.writerow(
            [i + 1, j + 1, k + 1, fmt_float(lhs, full_precision), fmt_float(rhs, full_precision)]
        )
    return out.getvalue()


def report_to_json(report: UltrametricityReport) -> str:
    doc = {
        "sampled": report.sampled,
        "coefficient": report.coefficient,
        "seed": report.seed,
        "tolerance": report.tolerance,
    }
    return json.dumps(doc, indent=2) + "\n"


def read_strings(text: str, base: int) -> list[BaireString]:
    """One digit string per line, or CSV lines ``label,digits``."""
    strings: list[BaireString] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if "," in line:
                label, _, digits = line.partition(",")
                strings.append(parse_digits(digits.strip(), base, label.strip()))
            else:
                strings.append(parse_digits(line, base, f"s{len(strings) + 1}"))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not strings:
        raise ParseError("no strings in input")
    return strings


def read_stream_csv(text: str) -> list[float]:
    """Single-column stream of reals, one value per line."""
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",") if c.strip()]
        if len(cells) != 1:
            raise ParseError(f"line {lineno}: expected a single value, got {len(cells)}")
        try:
            values.append(float(cells[0]))
        except ValueError:
            raise ParseError(f"line {lineno}: {cells[0]!r} is not a number") from None
    if not values:
        raise ParseError("empty stream")
    return values


def read_boolean_table_csv(text: str) -> BooleanTable:
    """Object labels in the first column; attribute names from the header
    row when present, else v1..vk."""
    rows = _rows_from_csv(text)
    has_header = not all(c in ("0", "1") for c in rows[0][1:])
    if has_header:
        attributes = tuple(rows[0][1:])
        body = rows[1:]
    else:
        attributes = tuple(f"v{i + 1}" for i in range(len(rows[0]) - 1))
        body = rows
    objects = []
    cells = []
    for lineno, row in enumerate(body, start=2 if has_header else 1):
        objects.append(row[0])
        try:
            cells.append(tuple(int(c) for c in row[1:]))
        except ValueError:
            raise ParseError(f"line {lineno}: non-boolean cell") from None
    return BooleanTable(tuple(objects), attributes, tuple(cells))


def semilattice_to_json(lat: Semilattice) -> str:
    doc = {
        "attributes": list(lat.table.attributes),
        "vertices": [
            {
                "subset": sorted(lat.table.attributes[j] for j in v.subset),
                "level": v.level,
                "pairs": [list(p) for p in v.pairs],
            }
            for v in lat.vertices
        ],
        "covers": [
            [sorted(lat.table.attributes[j] for j in low), sorted(lat.table.attributes[j] for j in high)]
            for low, high in lat.covers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

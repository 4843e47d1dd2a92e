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
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

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
from .padic import PadicEncoding, _encoding_from_cells
from .ultrametric import UltrametricityReport


def _cell(value, full_precision: bool = False) -> str:
    """The text of one number, for every CSV cell, Newick and ``render``.

    A float prints at 7 significant digits, or as its shortest round-trip
    ``repr`` with ``full_precision`` (``float.__repr__``, so a numpy float
    prints as a plain number).  An int or ``Fraction`` prints exactly:
    ``str`` refuses ints past Python's int-to-str digit limit (4,300 by
    default), and only then does ``Decimal``, which prints the same digits
    with no limit, take over."""
    if isinstance(value, float):
        return float.__repr__(value) if full_precision else f"{value:.7g}"
    try:
        return str(value)
    except ValueError:
        numerator, denominator = value.as_integer_ratio()
        text = str(Decimal(numerator))
        return text if denominator == 1 else f"{text}/{Decimal(denominator)}"


def fmt_float(x: float, full_precision: bool = False) -> str:
    return _cell(float(x), full_precision)


def _write_table(
    header: Sequence[str] | None,
    labels: Sequence[str] | None,
    rows: Iterable[Sequence],
    full_precision: bool = False,
) -> str:
    """The one CSV table writer: an optional header row, then one row per
    item of ``rows``, each led by its label when ``labels`` is given.

    The header and the labels are text and go through ``csv.writer``.  The
    cells are numbers formatted by ``_cell``; number text (digits, ``.``,
    ``e``, ``+``, ``-``, ``/``, ``inf``, ``nan``) is never quoted, so the
    cells are joined directly, which gives the bytes of writing every cell
    through the writer.  A labelled row with no cells is the label alone, as
    CSV writes it (``""`` for the empty label).  ``rows`` may be a generator,
    so a matrix is converted to Python numbers one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    label_text = io.StringIO()
    label_writer = csv.writer(label_text, lineterminator="\n")
    for i, row in enumerate(rows):
        if labels is not None:
            if len(row) == 0:
                writer.writerow((labels[i],))
                continue
            label_text.seek(0)
            label_text.truncate()
            label_writer.writerow((labels[i], ""))  # the label as CSV writes it, then ",\n"
            out.write(label_text.getvalue()[:-1])
        out.write(",".join([_cell(v, full_precision) for v in row]))
        out.write("\n")
    return out.getvalue()


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
    names, values = _parse_cells(body, 2 if header else 1, labels)
    return DataTable(header_names, names, values)


def _parse_cells(
    body: list[list[str]], first_line: int, labels: bool
) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """The one cell parser: the label column (when ``labels``) and the float
    cells of ``body``, whose first row is line ``first_line``.  Rows of
    different widths and cells that are not numbers are one ``ParseError``
    naming the line (and the column)."""
    names: list[str] | None = [] if labels else None
    data: list[list[float]] = []
    width = None
    for lineno, row in enumerate(body, start=first_line):
        cells = row
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
    return (
        tuple(names) if names is not None else None,
        np.asarray(data, dtype=float),
    )


def read_matrix_csv(text: str) -> DissimilarityMatrix:
    table = read_data_csv(text)
    return DissimilarityMatrix(table.values, table.labels)


def write_matrix_csv(
    m: DissimilarityMatrix, full_precision: bool = False
) -> str:
    labels = m.label_list()
    rows = (row.tolist() for row in m.values)
    return _write_table(["", *labels], labels, rows, full_precision)


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


def _load_json(text: str):
    """``json.loads``, with every way it refuses text as one ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer past Python's int-to-str digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None


def _json_int(doc: str, name: str, value) -> int:
    """``value`` when it is a JSON integer; a float (``1.7``, ``1e400``), a
    string or ``true`` is one ``ParseError``."""
    if type(value) is not int:
        raise ParseError(f"{doc} JSON field {name!r} must be an integer")
    return value


def tree_from_json(text: str) -> Dendrogram:
    """Read ``tree_to_json`` text; ``n`` and each node's ``rank`` must be
    JSON integers."""
    doc = _load_json(text)
    try:
        labels = tuple(str(x) for x in doc["labels"])
        n = doc.get("n", len(labels))
        raw_nodes = doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"tree JSON missing field: {exc}") from None
    if _json_int("tree", "n", n) != len(labels):
        raise ParseError(f"n={n} does not match {len(labels)} labels")
    if not isinstance(raw_nodes, list) or not all(isinstance(item, dict) for item in raw_nodes):
        raise ParseError("tree JSON field 'nodes' must be a list of objects")
    for item in raw_nodes:
        _json_int("tree", "rank", item.get("rank", 0))
    nodes = []
    for item in sorted(raw_nodes, key=lambda d: d.get("rank", 0)):
        try:
            nodes.append(
                MergeNode(
                    rank=item["rank"],
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
    n1 = len(t.details)
    if coord_names is None:
        coord_names = tuple(f"c{i + 1}" for i in range(t.dim))
    header = ["", f"s{n1}", *(f"d{r}" for r in range(n1, 0, -1))]
    table = np.column_stack((t.root_smooth, *t.details[::-1]))
    return _write_table(header, coord_names, (row.tolist() for row in table), full_precision)


def haar_from_csv(text: str, tree: Dendrogram) -> tuple[HaarTransform, tuple[str, ...]]:
    """Read ``haar_to_csv`` text for ``tree``: the header must name the
    tree's columns, and the coordinate rows go through the cell parser of
    ``read_data_csv``."""
    rows = _rows_from_csv(text)
    header = rows[0]
    n1 = len(tree.nodes)
    expected = ["", f"s{n1}", *(f"d{r}" for r in range(n1, 0, -1))]
    if header != expected:
        raise ParseError(f"wavelet CSV header {header!r} does not match tree with {n1} nodes")
    if len(rows) == 1:
        raise ParseError("wavelet CSV has no coordinate rows")
    coord_names, table = _parse_cells(rows[1:], 2, labels=True)
    if table.shape[1] != n1 + 1:
        raise ParseError(
            f"wavelet CSV rows hold {table.shape[1]} values, the tree needs {n1 + 1}"
        )
    # column 0 is the root smooth, then d_{n-1} down to d_1
    return HaarTransform(tree, table[:, 0], tuple(table[:, :0:-1].T)), coord_names


def write_data_csv(
    data: np.ndarray,
    labels: Sequence[str] | None = None,
    header: Sequence[str] | None = None,
    full_precision: bool = False,
) -> str:
    if header is not None:
        header = ([""] if labels is not None else []) + list(header)
    rows = (row.tolist() for row in np.atleast_2d(data))
    return _write_table(header, labels, rows, full_precision)


def encoding_to_json(enc: PadicEncoding) -> str:
    """The encoding as ``json.dumps(doc, indent=2) + "\\n"`` of ``{"p", "n",
    "labels", "C"}``, with ``C`` the rows concatenated.  ``json`` indents
    through its pure-Python encoder, so only the header goes through it and
    the n(n-1) coefficients are joined as text, one per line; the bytes are
    the same."""
    head = json.dumps(
        {"p": enc.p, "n": enc.n, "labels": list(enc.labels), "C": []}, indent=2
    )
    if enc.n < 2:
        return head + "\n"
    tokens = ("0", "1", "-1")  # indexed by the coefficient itself
    coefficients = ",\n    ".join(map(tokens.__getitem__, chain.from_iterable(enc.C)))
    return f"{head[:-4]}[\n    {coefficients}\n  ]\n}}\n"


def encoding_from_json(text: str) -> PadicEncoding:
    """Read ``encoding_to_json`` text strictly: ``p`` and ``n`` are JSON
    integers, ``labels`` a list of strings and ``C`` a list of n(n-1)
    integers (not true or false); any other type is one ``ParseError``.
    The encoding then gets the checks of the ``PadicEncoding`` constructor."""
    doc = _load_json(text)
    try:
        p, n, labels, flat = doc["p"], doc["n"], doc["labels"], doc["C"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"encoding JSON missing or bad field: {exc}") from None
    _json_int("encoding", "p", p)
    _json_int("encoding", "n", n)
    if type(labels) is not list or not {str}.issuperset(map(type, labels)):
        raise ParseError("encoding JSON field 'labels' must be a list of strings")
    if type(flat) is not list or not {int}.issuperset(map(type, flat)):
        raise ParseError("encoding JSON field 'C' must be a list of integers")
    if len(labels) != n or len(flat) != n * (n - 1):
        raise ParseError("encoding JSON has inconsistent sizes")
    return _encoding_from_cells(p, tuple(labels), flat)


def decimal_codes_csv(enc: PadicEncoding) -> str:
    codes = ([code] for code in enc.decimal_codes())
    return _write_table(["label", "code"], enc.labels, codes)


def fraction_matrix_csv(
    labels: Sequence[str], values: Sequence[Sequence[Fraction]]
) -> str:
    """Labelled square table of exact fractions (or their text)."""
    return _write_table(["", *labels], labels, values)


def violations_csv(violations: Iterable[tuple[int, int, int, float, float]],
                   full_precision: bool = False) -> str:
    """Violating triples as 1-based (i, j, k, lhs, rhs) rows."""
    rows = ([i + 1, j + 1, k + 1, float(lhs), float(rhs)] for i, j, k, lhs, rhs in violations)
    return _write_table(["i", "j", "k", "lhs", "rhs"], None, rows, full_precision)


def report_to_json(report: UltrametricityReport) -> str:
    doc = {
        "sampled": report.sampled,
        "coefficient": report.coefficient,
        "seed": report.seed,
        "tolerance": report.tolerance,
    }
    return json.dumps(doc, indent=2) + "\n"


def _labelled_lines(text: str) -> Iterator[tuple[int, str | None, str]]:
    """``(line number, label, body)`` of each nonblank line, stripped: a line
    ``label,body`` splits at its first comma, any other line has label None."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        label, comma, body = line.partition(",")
        if comma:
            yield lineno, label.strip(), body.strip()
        else:
            yield lineno, None, line


def read_strings(text: str, base: int) -> list[BaireString]:
    """One digit string per line, or CSV lines ``label,digits``."""
    strings: list[BaireString] = []
    for lineno, label, digits in _labelled_lines(text):
        try:
            if label is None:
                label = f"s{len(strings) + 1}"
            strings.append(parse_digits(digits, base, label))
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

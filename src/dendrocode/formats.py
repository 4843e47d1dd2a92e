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
import functools
import io
import json
import re
import typing
from decimal import Decimal
from typing import Callable, Iterable, Sequence

import numpy as np

from .baire import (_DIGIT_CHARS, BaireString, _baire_strings, _dna_digit_texts, encode_dna,
                    parse_digits)
from .errors import (DendrocodeError, DomainError, ParseError, _require_at_least,
                     _require_within_guard)
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
from .padic import PadicEncoding, _encoding_from_array, _encoding_from_cells
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

    The header and the labels are text and go through one ``csv.writer``
    whose line end is ``\r\n``, so that it quotes a ``\r`` in a cell as it
    quotes ``\n``; each row's ``\r\n`` is then written as ``\n``.  The
    cells are numbers formatted by ``_cell``; number text (digits, ``.``,
    ``e``, ``+``, ``-``, ``/``, ``inf``, ``nan``) is never quoted, so the
    cells are joined directly, which gives the bytes of writing every cell
    through the writer.  A labelled row with no cells is the label alone, as
    CSV writes it (``""`` for the empty label).  ``rows`` may be a generator,
    so a matrix is converted to Python numbers one row at a time."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")

    def text_row(cells: Sequence[str]) -> str:
        text.seek(0)
        text.truncate()
        writer.writerow(cells)
        return text.getvalue()[:-2]

    out = io.StringIO()
    if header is not None:
        out.write(text_row(header) + "\n")
    for i, row in enumerate(rows):
        if labels is not None:
            if len(row) == 0:
                out.write(text_row((labels[i],)) + "\n")
                continue
            out.write(text_row((labels[i], "")))  # the label as CSV writes it, then ","
        out.write(",".join([_cell(v, full_precision) for v in row]))
        out.write("\n")
    return out.getvalue()


def _is_number(token: str, kind: type = float) -> bool:
    try:
        kind(token)
        return True
    except ValueError:
        return False


def _rows_from_csv(text: str) -> tuple[list[int], list[list[str]]]:
    """The nonblank rows of ``text``, cells stripped, and the file line on
    which each row starts (a quoted cell may span lines).  A cell past
    ``csv.field_size_limit()`` characters, or a carriage return inside an
    unquoted cell, is one ``ParseError`` naming the line."""
    reader = csv.reader(io.StringIO(text))
    lines, rows, start = [], [], 1
    try:
        for row in reader:
            if any(c.strip() for c in row):
                lines.append(start)
                rows.append([c.strip() for c in row])
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError("empty CSV input")
    return lines, rows


def _table_lines(text: str) -> list[str] | None:
    """The lines of ``text`` when ``csv.reader`` would read each of them as
    the row ``line.split(",")``: plain text (``_plain_text``) with no
    ``"``, and no cell past ``csv.field_size_limit()`` characters; else
    None."""
    lines = None if '"' in text else _plain_text(text)
    if lines is None:
        return None
    limit = csv.field_size_limit()
    if any(len(line) > limit and max(map(len, line.split(","))) > limit for line in lines):
        return None
    return lines


def _sniff(first: list[str], next_cell: str | None, header: bool | None,
           labels: bool | None) -> tuple[bool, bool | None]:
    """``header`` and ``labels``, each sniffed when None, of a table whose
    first row is ``first`` and whose next row starts with ``next_cell``
    (None when there is no next row): a first row with a non-numeric cell
    past its first is a header, and a non-numeric first body cell leads a
    label column.  With no body row ``labels`` stays None."""
    if header is None:
        header = not all(_is_number(c) for c in (first[1:] or first))
    cell = next_cell if header else first[0]
    if labels is None and cell is not None:
        labels = not _is_number(cell)
    return header, labels


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

    Plain text (``_table_lines``) is read in bulk by ``_bulk_table``; any
    other text, and every table the bulk path does not take, is read cell
    by cell, which names the line of an error.
    """
    table = _bulk_table(text, header, labels)
    if table is not None:
        return table
    lines, rows = _rows_from_csv(text)
    header, labels = _sniff(rows[0], rows[1][0] if len(rows) > 1 else None, header, labels)
    body = rows[1:] if header else rows
    if not body:
        raise ParseError("no data rows")
    header_names = None
    if header:
        header_names = tuple(rows[0][1:] if labels else rows[0])
    names, values = _parse_cells(body, lines[1:] if header else lines, labels)
    return DataTable(header_names, names, values)


def _bulk_table(text: str, header: bool | None, labels: bool | None) -> DataTable | None:
    """``read_data_csv`` of ``text`` when it is plain (``_table_lines``)
    and ``_bulk_cells`` reads its body; None otherwise, and never an
    error."""
    lines = _table_lines(text)
    if lines is None:
        return None
    first = lines[0].split(",")
    if not any(first):  # a row of empty cells, which csv skips
        return None
    header, labels = _sniff(first, lines[1].partition(",")[0] if len(lines) > 1 else None,
                            header, labels)
    cells = _bulk_cells(lines[1:] if header else lines, bool(labels))
    if cells is None:
        return None
    header_names = tuple(first[1:] if labels else first) if header else None
    return DataTable(header_names, *cells)


def _bulk_cells(
    lines: list[str], labels: bool
) -> tuple[tuple[str, ...] | None, np.ndarray] | None:
    """What ``_parse_cells`` gives for the rows ``line.split(",")`` of the
    plain ``lines``, with one ``np.loadtxt`` over the cells; None where it
    would raise, and where csv would skip a row.

    ``loadtxt`` reads a cell through ``PyOS_string_to_double``, as ``float``
    does, so every value it takes is the same float; what it refuses
    (``1_0``, non-ASCII digits, an empty cell) is left to ``_parse_cells``.
    A ragged row is a ``ValueError`` too: no ``usecols`` drops cells."""
    if not lines:  # loadtxt warns on no lines
        return None
    names = None
    if labels:
        split = _split_labels(lines)
        if split is None:
            return None
        names, lines = tuple(split[0]), split[1]
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    return names, values


def _parse_cells(
    body: list[list[str]], lines: list[int], labels: bool
) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """The one cell parser: the label column (when ``labels``) and the float
    cells of ``body``, whose rows start on the file lines ``lines``.  Rows
    of different widths and cells that are not numbers are one
    ``ParseError`` naming the line (and the column)."""
    names: list[str] | None = [] if labels else None
    data: list[list[float]] = []
    width = None
    for lineno, row in zip(lines, body):
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
    """Labelled square float table, through ``level_table_csv`` with each
    cell's bit pattern as its level: each distinct float is formatted once,
    -0.0 apart from 0.0, and the table guard covers the text."""

    def value(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    return level_table_csv(m.labels, m.values.view(np.int64), value, full_precision)


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


def _json_number(value) -> str:
    """``json.dumps(value)`` of a number: a plain float or int is written
    as ``json`` writes it (``float.__repr__``, ``int.__repr__``) without the
    cost of a ``json`` call; anything else goes through ``json``."""
    kind = type(value)
    if kind is float:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return _dumps(value)


def _dumps(doc, indent: int | None = None) -> str:
    """The one JSON writer: strict JSON, so a NaN or an infinity is an
    error rather than text no JSON reader takes."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise DomainError(
            "the output holds an infinite or NaN number, which JSON cannot represent"
        ) from None


def tree_to_json(tree: Dendrogram) -> str:
    """The tree as ``json.dumps(doc, indent=2) + "\\n"`` of ``{"n",
    "labels", "nodes"}``.  ``json`` indents through its pure-Python encoder,
    so only the header goes through it, and each node is written as one
    string in the same layout, its numbers by ``_json_number``."""
    head = _dumps({"n": tree.n, "labels": list(tree.labels), "nodes": []}, indent=2)
    if not tree.nodes:
        return head + "\n"
    nodes = ",\n".join([
        f'    {{\n      "rank": {_json_number(node.rank)},\n'
        f'      "height": {_json_number(node.height)},\n'
        f'      "left": "{_child_token(node.left)}",\n'
        f'      "right": "{_child_token(node.right)}"\n    }}'
        for node in tree.nodes
    ])
    return f"{head[:-4]}[\n{nodes}\n  ]\n}}\n"


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


def _json_labels(doc: str, value) -> tuple[str, ...]:
    """``value`` as a tuple if it is a JSON list of strings, else one ``ParseError``."""
    if type(value) is not list or not {str}.issuperset(map(type, value)):
        raise ParseError(f"{doc} JSON field 'labels' must be a list of strings")
    return tuple(value)


def _json_height(value) -> float:
    """A JSON number (not true or false) in the float range, or one ``ParseError``."""
    if type(value) not in (int, float):
        raise ParseError("tree JSON field 'height' must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError("tree JSON field 'height' is past the float range") from None


def tree_from_json(text: str) -> Dendrogram:
    """Read ``tree_to_json`` text strictly: ``labels`` are strings, ``n``
    and each ``rank`` JSON integers and each ``height`` a JSON number."""
    doc = _load_json(text)
    try:
        labels, raw_nodes = doc["labels"], doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"tree JSON missing field: {exc}") from None
    labels = _json_labels("tree", labels)
    n = doc.get("n", len(labels))
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
                    height=_json_height(item["height"]),
                    left=_parse_child(item["left"], n),
                    right=_parse_child(item["right"], n),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad node record {item!r}: {exc}") from None
    return Dendrogram(labels, tuple(nodes))


_NEWICK_RESERVED = re.compile(r"[\s()\[\]':;,]")


def tree_to_newick(tree: Dendrogram, full_precision: bool = False) -> str:
    """Newick text with branch lengths = parent height - child height
    (terminals sit at height 0); the root carries its height as a comment.
    Each whitespace or Newick-reserved character (``()[]':;,``) of a label
    is written as ``_``."""
    clean = functools.partial(_NEWICK_RESERVED.sub, "_")
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
    table = np.column_stack((t.root_smooth, t.details[::-1].T))
    return _write_table(header, coord_names, (row.tolist() for row in table), full_precision)


def haar_from_csv(text: str, tree: Dendrogram) -> tuple[HaarTransform, tuple[str, ...]]:
    """Read ``haar_to_csv`` text for ``tree``: the header must name the
    tree's columns, and the coordinate rows go through the cell readers of
    ``read_data_csv``."""
    n1 = len(tree.nodes)
    expected = ["", f"s{n1}", *(f"d{r}" for r in range(n1, 0, -1))]
    lines = _table_lines(text)
    cells = None
    if lines is not None and lines[0].split(",") == expected:
        cells = _bulk_cells(lines[1:], labels=True)
    if cells is None:
        line_numbers, rows = _rows_from_csv(text)
        header = rows[0]
        if header != expected:
            raise ParseError(f"wavelet CSV header {header!r} does not match tree with {n1} nodes")
        if len(rows) == 1:
            raise ParseError("wavelet CSV has no coordinate rows")
        cells = _parse_cells(rows[1:], line_numbers[1:], labels=True)
    coord_names, table = cells
    if table.shape[1] != n1 + 1:
        raise ParseError(
            f"wavelet CSV rows hold {table.shape[1]} values, the tree needs {n1 + 1}"
        )
    # column 0 is the root smooth, then d_{n-1} down to d_1
    return HaarTransform(tree, table[:, 0], table[:, :0:-1].T), coord_names


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


# In ``encoding_to_json`` text each coefficient is followed by this
# separator, bar the last, and the list then closes the document.
_CELL_SEP = ",\n    "
_C_OPEN = '"C": [\n    '
_ENCODING_TAIL = "\n  ]\n}\n"
# the canonical reader converts the coefficients this many characters at a time
_CHUNK = 1 << 20


def _encoding_body(cells: np.ndarray) -> bytes:
    """The int8 coefficients ``cells`` as canonical text: each one's token
    followed by ``_CELL_SEP``.  The bytes of the array, each of 0, 1 and -1
    (byte 0xff) replaced by its token and the separator; no token contains
    a byte that is replaced, so the three replacements cannot interfere."""
    return (
        cells.tobytes()
        .replace(b"\x00", b"0,\n    ")
        .replace(b"\x01", b"1,\n    ")
        .replace(b"\xff", b"-1,\n    ")
    )


def _encoding_head(p: int, n: int, labels) -> str:
    return _dumps({"p": p, "n": n, "labels": list(labels), "C": []}, indent=2)


def encoding_to_json(enc: PadicEncoding) -> str:
    """The encoding as ``json.dumps(doc, indent=2) + "\\n"`` of ``{"p", "n",
    "labels", "C"}``, with ``C`` the rows concatenated.  ``json`` indents
    through its pure-Python encoder, so only the header goes through it;
    the n(n-1) coefficients are written by ``_encoding_body``."""
    head = _encoding_head(enc.p, enc.n, enc.labels)
    if enc.n < 2:
        return head + "\n"
    body = _encoding_body(enc._cells)[: -len(_CELL_SEP)].decode()
    return f"{head[:-4]}[\n    {body}{_ENCODING_TAIL}"


def encoding_from_json(text: str) -> PadicEncoding:
    """Read ``encoding_to_json`` text strictly: ``p`` and ``n`` are JSON
    integers, ``labels`` a list of strings and ``C`` a list of n(n-1)
    integers (not true or false); any other type is one ``ParseError``.
    The encoding then gets the checks of the ``PadicEncoding`` constructor.

    Text that ``encoding_to_json`` writes is read at byte speed by
    ``_canonical_encoding``; any other text, and every error, goes through
    ``_strict_encoding``, which reads the whole document with ``json``.
    Both give the same fields for the same text."""
    fields = _canonical_encoding(text)
    if fields is not None:
        return _encoding_from_array(*fields)
    return _encoding_from_cells(*_strict_encoding(text))


def _strict_encoding(text: str) -> tuple[int, tuple[str, ...], list[int]]:
    doc = _load_json(text)
    try:
        p, n, labels, flat = doc["p"], doc["n"], doc["labels"], doc["C"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"encoding JSON missing or bad field: {exc}") from None
    _json_int("encoding", "p", p)
    _json_int("encoding", "n", n)
    labels = _json_labels("encoding", labels)
    if type(flat) is not list or not {int}.issuperset(map(type, flat)):
        raise ParseError("encoding JSON field 'C' must be a list of integers")
    if len(labels) != n or len(flat) != n * (n - 1):
        raise ParseError("encoding JSON has inconsistent sizes")
    return p, labels, flat


def _canonical_encoding(text: str) -> tuple[int, tuple[str, ...], np.ndarray] | None:
    """``(p, labels, cells)`` when ``text`` is exactly ``encoding_to_json``
    text of n >= 2 labels, with ``cells`` the n x (n-1) int8 coefficient
    matrix; None on any doubt.

    Only the header goes through ``json``, and it must be the canonical
    header of the fields it holds.  The body is read in chunks of about
    ``_CHUNK`` characters, each cut after a separator, by ``_chunk_cells``.
    A chunk is kept only if ``_encoding_body`` of its cells is its text:
    the cells lie in {-1, 0, +1}, and the text is the one they are written
    as, so ``json`` would read the same values from it."""
    cut = text.find(_C_OPEN)
    if cut < 0 or not text.endswith(_ENCODING_TAIL):
        return None
    header = text[:cut] + '"C": []\n}'
    try:
        doc = json.loads(header)
        p, n, labels = doc["p"], doc["n"], doc["labels"]
    except (ValueError, RecursionError, KeyError, TypeError):
        return None
    if (type(p) is not int or type(n) is not int or type(labels) is not list
            or not {str}.issuperset(map(type, labels)) or len(labels) != n or n < 2
            or _encoding_head(p, n, labels) != header):
        return None
    total, filled = n * (n - 1), 0
    cells = np.empty(total, dtype=np.int8)
    pos, end = cut + len(_C_OPEN), len(text) - len(_ENCODING_TAIL)
    while pos < end:
        stop = text.find(_CELL_SEP, min(pos + _CHUNK, end), end)
        stop = end if stop < 0 else stop + len(_CELL_SEP)
        try:
            chunk = text[pos:stop].encode("ascii")
        except UnicodeEncodeError:
            return None
        if stop == end:  # the last token has no separator of its own
            chunk += _CELL_SEP.encode()
        part = _chunk_cells(chunk)
        if filled + len(part) > total or _encoding_body(part) != chunk:
            return None
        cells[filled:filled + len(part)] = part
        filled, pos = filled + len(part), stop
    if filled != total:
        return None
    return p, tuple(labels), cells.reshape(n, n - 1)


def _chunk_cells(chunk: bytes) -> np.ndarray:
    """The int8 cells of ``chunk``, read as tokens each followed by
    ``_CELL_SEP``: a token ending in ``1`` is 1, any other 0, and one led
    by ``-`` is -1.  Only the two bytes before each comma are read, so the
    caller compares the cells' text with the chunk.  Before a comma at
    byte 1, index -1 is the chunk's last byte, a space."""
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord(","))
    cells = (buf[ends - 1] == ord("1")).astype(np.int8)
    cells[buf[ends - 2] == ord("-")] = -1
    return cells


def decimal_codes_csv(enc: PadicEncoding) -> str:
    codes = ([code] for code in enc.decimal_codes())
    return _write_table(["label", "code"], enc.labels, codes)


def level_table_csv(
    labels: Sequence[str],
    levels: np.ndarray,
    value: Callable[[int], object],
    full_precision: bool = False,
) -> str:
    """Labelled square table whose cell (i, k) is ``value(levels[i, k])``.

    Every ultrametric table is an integer level per pair (the level of the
    two terminals' lowest common ancestor) mapped to a number, so each
    distinct level is formatted once, by ``_cell``; a float matrix passes
    its cells' bit patterns as levels.  The text the table would take is
    summed before it is built: past 1 GiB it is a ``ResourceGuardError``."""
    distinct, counts = (a.tolist() for a in np.unique(levels, return_counts=True))
    text = {r: _cell(value(r), full_precision) for r in distinct}
    size = sum(count * (len(text[r]) + 1) for r, count in zip(distinct, counts))
    _require_within_guard(size, "the distance table")
    # number text is never quoted, so each row goes to the writer as one
    # joined cell: the bytes are the same, with one ``_cell`` call per row
    rows = ([",".join(map(text.__getitem__, row.tolist()))] for row in levels)
    return _write_table(["", *labels], labels, rows)


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
    return _dumps(doc, indent=2) + "\n"


def _labelled_lines(text: str, parse: Callable[[int, str | None, str], object]) -> list:
    """``parse(k, label, body)`` of the k-th nonblank line (from 0), stripped:
    a line ``label,body`` splits at its first comma, any other line has
    label None.  An error from ``parse`` is raised again, of the same class,
    with its message led by the line number."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        label, comma, body = line.partition(",")
        try:
            if comma:
                out.append(parse(len(out), label.strip(), body.strip()))
            else:
                out.append(parse(len(out), None, line))
        except DendrocodeError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return out


# the characters of plain text: printable ASCII and newline
_PLAIN_BYTES = bytes(range(ord("!"), ord("~") + 1)) + b"\n"


def _plain_text(text: str) -> list[str] | None:
    """The lines of ``text`` if it is nonempty, holds only printable ASCII
    and newlines, and has no blank line, so that every line is nonempty and
    holds no whitespace; else None.  Every test is a C string scan."""
    if (not text or not text.isascii() or text.startswith("\n") or "\n\n" in text
            or text.encode("ascii").translate(None, _PLAIN_BYTES)):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _plain_lines(text: str) -> tuple[list[str], list[str]] | None:
    """The labels and bodies of plain text (``_plain_text``) whose every
    line is ``label,body`` with a nonempty body, so that ``_labelled_lines``
    would take every line as written; else None."""
    lines = _plain_text(text)
    return None if lines is None else _split_labels(lines)


def _split_labels(lines: list[str]) -> tuple[list[str], list[str]] | None:
    """The labels and bodies of ``lines``, each split at its first comma;
    None if a line has no comma or nothing after it."""
    parts = [line.partition(",") for line in lines]
    if not all(body for _, _, body in parts):
        return None
    return [label for label, _, _ in parts], [body for _, _, body in parts]


def read_strings(text: str, base: int) -> list[BaireString]:
    """One digit string per line, or CSV lines ``label,digits``; the k-th
    string without a label is named s<k>.

    Plain labelled text (``_plain_lines``) whose bodies hold only digits
    ``0-9A-Z`` below ``base`` is read in one byte lookup; any other text is
    read line by line, which names the line of an error."""
    _require_at_least(base, 2, "base")
    plain = _plain_lines(text)
    if plain is not None:
        labels, bodies = plain
        chars = np.frombuffer(_DIGIT_CHARS[:base].encode(), dtype=np.uint8)
        lookup = np.zeros(256, dtype=np.uint8)  # digit + 1, or 0 for any other byte
        lookup[chars] = np.arange(1, chars.size + 1)
        codes = lookup[np.frombuffer("".join(bodies).encode(), dtype=np.uint8)]
        if codes.all():
            lengths = np.fromiter(map(len, bodies), dtype=np.intp, count=len(bodies))
            return _baire_strings(base, labels, codes - 1, lengths)

    def parse(k: int, label: str | None, digits: str) -> BaireString:
        return parse_digits(digits, base, f"s{k + 1}" if label is None else label)

    strings = _labelled_lines(text, parse)
    if not strings:
        raise ParseError("no strings in input")
    return strings


def _dna_lines(text: str, scheme: str) -> list[str]:
    """The ``dna-encode`` output of ``text``: per nonblank line, the digit
    text of its sequence, led by ``label,`` if the line has one.  Plain
    labelled text takes one ``str.translate`` per sequence; any other text,
    or a character outside the alphabet, is read line by line through
    ``encode_dna``, which names the line of an error."""
    plain = _plain_lines(text)
    digits = plain and _dna_digit_texts(plain[1], scheme)
    if digits:
        return [f"{label},{d}" for label, d in zip(plain[0], digits)]

    def encode(_, label: str | None, sequence: str) -> str:
        digits = encode_dna(sequence, scheme).text()
        return digits if label is None else f"{label},{digits}"

    return _labelled_lines(text, encode)


def read_stream_csv(text: str) -> list[float]:
    """Single-column stream of reals, one value per line."""
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "," in line:
            cells = [c.strip() for c in line.split(",") if c.strip()]
            if len(cells) != 1:
                raise ParseError(f"line {lineno}: expected a single value, got {len(cells)}")
            line = cells[0]
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError(f"line {lineno}: {line!r} is not a number") from None
    if not values:
        raise ParseError("empty stream")
    return values


def read_boolean_table_csv(text: str) -> BooleanTable:
    """Object labels in the first column; attribute names from the header
    row when present, else v1..vk.  The first row is a header only when a
    cell past its label is not read by ``int``; otherwise it is data.  A
    row of the wrong width, or a cell that ``int`` does not read as 0 or 1,
    is one ``ParseError`` naming its line, as in data tables."""
    lines, rows = _rows_from_csv(text)
    if not all(_is_number(c, int) for c in rows[0][1:]):  # a header row
        attributes = tuple(rows[0][1:])
        lines, rows = lines[1:], rows[1:]
    else:
        attributes = tuple(f"v{i + 1}" for i in range(len(rows[0]) - 1))
    objects = []
    cells = []
    for lineno, row in zip(lines, rows):
        if len(row) - 1 != len(attributes):
            raise ParseError(f"line {lineno}: expected {len(attributes)} cells, got {len(row) - 1}")
        objects.append(row[0])
        try:
            cells.append(tuple(int(c) for c in row[1:]))
            if not set(cells[-1]) <= {0, 1}:
                raise ValueError
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
    return _dumps(doc, indent=2) + "\n"

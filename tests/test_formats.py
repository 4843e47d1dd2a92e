from __future__ import annotations

import csv
import json
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode import formats
from dendrocode.baire import BaireString
from dendrocode.errors import DendrocodeError, DomainError, ParseError
from dendrocode.haar import HaarTransform, haar_forward, haar_inverse
from dendrocode.hierarchy import (
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    agglomerate,
    internal,
    pairwise_distances,
    terminal,
)
from dendrocode.padic import PadicEncoding, _encoding_from_cells, encode_dendrogram, evaluate_code
from dendrocode.lattice import BooleanTable, build_semilattice
from dendrocode.render import render_tree
from dendrocode.ultrametric import ultrametricity_coefficient

from conftest import caterpillar, encoding_sweep, random_tree
from oracles import csv_table, exact_text, float_text, render_by_grid, tree_json_by_dumps
from reference import IRIS8, IRIS_LABELS8


LONG_CELL = "1" * 200_000  # past csv's default field limit of 131,072 characters


class TestDataCsv:
    def test_sniffs_header_and_labels(self):
        text = ",a,b\nrow1,1.0,2.0\nrow2,3.5,4.5\n"
        table = formats.read_data_csv(text)
        assert table.header == ("a", "b")
        assert table.labels == ("row1", "row2")
        assert np.array_equal(table.values, [[1.0, 2.0], [3.5, 4.5]])

    @pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "per-cell"])
    def test_labels_are_sniffed_from_the_first_body_row(self, bulk):
        # the header's corner cell does not decide the label column
        table = table_outcome(formats.read_data_csv, "id,a,b\n1,2,3\n", None, None, bulk=bulk)
        assert table == (("id", "a", "b"), None, bits(np.array([[1.0, 2.0, 3.0]])))
        table = table_outcome(formats.read_data_csv, "0,a,b\nr1,2,3\n", None, None, bulk=bulk)
        assert table == (("a", "b"), ("r1",), bits(np.array([[2.0, 3.0]])))

    @pytest.mark.parametrize("text", ["", "\n1,2\n", "1,2\n\n3,4\n", "1, 2\n", "1,\t2\n",
                                      "1,2\r\n", "é,1\n", '"a",1\n'])
    def test_text_that_is_not_plain_is_read_cell_by_cell(self, text):
        assert formats._table_lines(text) is None

    def test_plain_numbers(self):
        table = formats.read_data_csv("1,2\n3,4\n")
        assert table.header is None and table.labels is None
        assert table.values.shape == (2, 2)

    def test_ragged_reported_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            formats.read_data_csv("1,2\n3\n")
        with pytest.raises(ParseError, match="^line 4: expected 2 cells, got 1$"):
            formats.read_data_csv("1,2\n\n \n3\n")

    def test_non_numeric_reported_with_position(self):
        with pytest.raises(ParseError, match="line 2, column 2"):
            formats.read_data_csv("1,2\n3,x\n")
        # blank lines and a quoted label spanning two lines count as file lines
        with pytest.raises(ParseError, match="^line 4, column 2: 'x' is not a number$"):
            formats.read_data_csv("1,2\n\n\n3,x\n")
        with pytest.raises(ParseError, match="^line 5, column 1: 'x' is not a number$"):
            formats.read_data_csv(',a\n"r\n1",2\n\nr2,x\n')

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            formats.read_data_csv("\n\n")

    @pytest.mark.parametrize("text, line", [
        ("1," + LONG_CELL + "\n", 1),
        ("1,2\n3,4\n5," + LONG_CELL + "\n", 3),
        (LONG_CELL + ",1\n", 1),
        ('"a",1\n"b",' + LONG_CELL + "\n", 2),
        ('1,2\n"' + LONG_CELL + '",3\n', 2),
        ('"a\nb",1\n2,' + LONG_CELL + "\n", 3),
    ], ids=["plain", "plain-line-3", "plain-label", "quoted-file", "quoted-cell", "after-quoted-newline"])
    def test_cell_past_the_field_limit_names_its_line(self, text, line):
        message = f"line {line}: field larger than field limit ({csv.field_size_limit()})"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            formats.read_data_csv(text)
        assert formats._table_lines(text) is None

    def test_long_lines_of_short_cells_are_read_in_bulk(self, monkeypatch):
        limit = csv.field_size_limit()
        long_line = ",".join(["1"] * limit)  # past the limit; its cells are not
        at_limit = f"2,{'1' * limit}\n"  # a cell as long as csv takes
        expected = table_outcome(formats.read_data_csv, at_limit, None, None, bulk=False)
        assert expected[2] == bits(np.array([[2.0, float("inf")]]))
        monkeypatch.setattr(formats, "_rows_from_csv", None)  # the per-cell reader
        assert formats.read_data_csv(f"{long_line}\n{long_line}\n").values.shape == (2, limit)
        assert table_outcome(formats.read_data_csv, at_limit, None, None) == expected

    def test_carriage_return_inside_an_unquoted_cell(self):
        with pytest.raises(ParseError, match="^line 2: new-line character seen in unquoted field"):
            formats.read_data_csv("1,2\n3\r4,5\n")


class TestMatrixCsv:
    def test_round_trip(self):
        m = pairwise_distances(IRIS8, labels=IRIS_LABELS8)
        text = formats.write_matrix_csv(m, full_precision=True)
        back = formats.read_matrix_csv(text)
        assert back.labels == IRIS_LABELS8
        assert np.array_equal(back.values, m.values)

    def test_seven_digit_default(self):
        m = DissimilarityMatrix(np.array([[0.0, 0.24494897], [0.24494897, 0.0]]))
        text = formats.write_matrix_csv(m)
        assert "0.244949" in text


class TestTreeJson:
    def test_round_trip(self, rng):
        for n in (1, 2, 7, 12):
            tree = random_tree(n, rng) if n > 1 else Dendrogram(("solo",), ())
            back = formats.tree_from_json(formats.tree_to_json(tree))
            assert back == tree

    def test_child_tokens_are_one_based(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 2.0, terminal(0), terminal(1)),))
        doc = json.loads(formats.tree_to_json(tree))
        assert doc["nodes"][0]["left"] == "t1"
        assert doc["nodes"][0]["right"] == "t2"

    def test_heights_survive_exactly(self, rng):
        tree = random_tree(9, rng)
        back = formats.tree_from_json(formats.tree_to_json(tree))
        assert back.heights() == tree.heights()

    def test_bad_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            formats.tree_from_json("{not json")

    @pytest.mark.parametrize("field, value", [
        ("n", "abc"), ("n", 1e400), ("n", 1.7), ("n", 2.0), ("n", True),
        ("rank", True), ("rank", 1.0), ("rank", "1"),
    ])
    def test_non_integer_n_and_rank_rejected(self, field, value):
        doc = {"n": 2, "labels": ["a", "b"],
               "nodes": [{"rank": 1, "height": 1.0, "left": "t1", "right": "t2"}]}
        formats.tree_from_json(json.dumps(doc))  # the document itself is valid
        (doc if field == "n" else doc["nodes"][0])[field] = value
        with pytest.raises(ParseError, match=f"tree JSON field '{field}' must be an integer"):
            formats.tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("labels", "ab", "field 'labels' must be a list of strings"),
        ("labels", [1, 2], "field 'labels' must be a list of strings"),
        ("height", True, "field 'height' must be a number"),
        ("height", "0.5", "field 'height' must be a number"),
        ("height", 10**400, "field 'height' is past the float range"),
    ], ids=["labels-text", "labels-numbers", "height-bool", "height-text", "height-overflow"])
    def test_mistyped_labels_and_heights_rejected(self, field, value, message):
        doc = {"n": 2, "labels": ["a", "b"],
               "nodes": [{"rank": 1, "height": 1.0, "left": "t1", "right": "t2"}]}
        (doc if field == "labels" else doc["nodes"][0])[field] = value
        with pytest.raises(ParseError, match=f"^tree JSON {message}$"):
            formats.tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("reader", [formats.tree_from_json, formats.encoding_from_json])
    @pytest.mark.parametrize("text", [
        '{"n": ' + "1" * 5000 + "}",  # past the int-to-str digit limit
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    ], ids=["long-int", "deep"])
    def test_json_the_decoder_refuses(self, reader, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            reader(text)

    def test_bad_child_reference(self):
        text = json.dumps(
            {
                "n": 2,
                "labels": ["a", "b"],
                "nodes": [{"rank": 1, "height": 1.0, "left": "t1", "right": "t9"}],
            }
        )
        with pytest.raises(ParseError, match="t9"):
            formats.tree_from_json(text)


class TestNewick:
    def test_two_leaves(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 2.0, terminal(0), terminal(1)),))
        assert formats.tree_to_newick(tree) == "(a:2,b:2)[height=2];\n"

    def test_nested_branch_lengths(self, rng):
        tree = random_tree(6, rng, heights="monotone")
        text = formats.tree_to_newick(tree)
        assert text.count("(") == 5
        assert text.endswith(";\n")

    def test_single_leaf(self):
        assert formats.tree_to_newick(Dendrogram(("x",), ())) == "x;\n"

    @pytest.mark.parametrize("ch", [" ", "\t", "\n", "\r", "\u00a0", "(", ")", "[", "]", "'", ":", ";", ","])
    def test_reserved_characters_become_underscores(self, ch):
        tree = Dendrogram((f"a{ch}b", ch), (MergeNode(1, 2.0, terminal(0), terminal(1)),))
        assert formats.tree_to_newick(tree) == "(a_b:2,_:2)[height=2];\n"
        assert formats.tree_to_newick(Dendrogram((f"{ch}x",), ())) == "_x;\n"

    def test_labels_cannot_end_the_tree_or_open_a_comment(self):
        labels = ("a:b", "c;d", "e[1]", "f'g")
        nodes = (
            MergeNode(1, 1.0, terminal(0), terminal(1)),
            MergeNode(2, 1.0, terminal(2), terminal(3)),
            MergeNode(3, 3.0, internal(1), internal(2)),
        )
        assert formats.tree_to_newick(Dendrogram(labels, nodes)) == (
            "((a_b:1,c_d:1):2,(e_1_:1,f_g:1):2)[height=3];\n"
        )


class TestHaarCsv:
    def test_round_trip_full_precision(self, rng):
        tree = random_tree(7, rng)
        data = np.array([[rng.uniform(-5, 5) for _ in range(3)] for _ in range(7)])
        t = haar_forward(tree, data)
        text = formats.haar_to_csv(t, full_precision=True)
        back, names = formats.haar_from_csv(text, tree)
        assert names == ("c1", "c2", "c3")
        assert np.array_equal(back.root_smooth, t.root_smooth)
        for r in range(1, 7):
            assert np.array_equal(back.detail(r), t.detail(r))
        assert np.array_equal(haar_inverse(back), haar_inverse(t))

    def test_header_layout(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 1.0, terminal(0), terminal(1)),))
        t = haar_forward(tree, np.array([[1.0], [3.0]]))
        text = formats.haar_to_csv(t)
        assert text.splitlines()[0] == ",s1,d1"

    def test_wrong_tree_rejected(self, rng):
        tree = random_tree(5, rng)
        t = haar_forward(tree, np.ones((5, 2)))
        text = formats.haar_to_csv(t)
        other = random_tree(6, rng)
        with pytest.raises(ParseError, match="header"):
            formats.haar_from_csv(text, other)


    def test_coordinate_rows_go_through_the_cell_parser(self, rng):
        tree = random_tree(3, rng)
        good = ",s2,d2,d1\nc1,1,2,3\nc2,4,5,6\n"
        back, names = formats.haar_from_csv(good, tree)
        assert names == ("c1", "c2")
        assert back.root_smooth.tolist() == [1.0, 4.0]
        assert back.detail(2).tolist() == [2.0, 5.0] and back.detail(1).tolist() == [3.0, 6.0]
        with pytest.raises(ParseError, match=r"^line 3, column 2: 'x' is not a number$"):
            formats.haar_from_csv(",s2,d2,d1\nc1,1,2,3\nc2,4,x,6\n", tree)
        with pytest.raises(ParseError, match=r"^line 5, column 2: 'x' is not a number$"):
            formats.haar_from_csv(",s2,d2,d1\n\nc1,1,2,3\n\nc2,4,x,6\n", tree)
        with pytest.raises(ParseError, match="^line 3: expected 3 cells, got 2$"):
            formats.haar_from_csv(",s2,d2,d1\nc1,1,2,3\nc2,4,5\n", tree)
        with pytest.raises(ParseError, match="hold 2 values, the tree needs 3"):
            formats.haar_from_csv(",s2,d2,d1\nc1,1,2\nc2,4,5\n", tree)
        with pytest.raises(ParseError, match="no coordinate rows"):
            formats.haar_from_csv(",s2,d2,d1\n", tree)
        with pytest.raises(ParseError, match="header"):  # the corner cell must be empty
            formats.haar_from_csv("x,s2,d2,d1\nc1,1,2,3\n", tree)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_coefficients_rejected(self, rng, cell):
        tree = random_tree(3, rng)
        with pytest.raises(DomainError, match="must be finite"):
            formats.haar_from_csv(f",s2,d2,d1\nc1,1,{cell},3\n", tree)


class TestEncodingJson:
    def test_round_trip(self, rng):
        tree = random_tree(6, rng, heights="rank")
        enc = encode_dendrogram(tree, 3)
        back = formats.encoding_from_json(formats.encoding_to_json(enc))
        assert back == enc

    def test_decimal_codes_csv(self, rng):
        enc = encode_dendrogram(random_tree(4, rng, heights="rank"), 3)
        text = formats.decimal_codes_csv(enc)
        lines = text.strip().splitlines()
        assert lines[0] == "label,code"
        assert len(lines) == 5

    def test_size_mismatch_rejected(self):
        doc = {"p": 3, "n": 3, "labels": ["a", "b", "c"], "C": [1, -1]}
        with pytest.raises(ParseError):
            formats.encoding_from_json(json.dumps(doc))

    @pytest.mark.parametrize("labels, p", [
        (("solo",), 3),
        (("a", "b"), 3),
        (("épée", "naïve", "δ", "雪"), 3),
        (('say "hi"', "back\\slash", 'mixed \\"both\\"', "tab\there"), 5),
        (tuple(f"x{i}" for i in range(9)), 7),
    ])
    def test_bytes_equal_json_dumps(self, rng, labels, p):
        tree = random_tree(len(labels), rng, heights="rank")
        enc = encode_dendrogram(Dendrogram(labels, tree.nodes), p)
        doc = {"p": p, "n": len(labels), "labels": list(labels), "C": [c for row in enc.C for c in row]}
        assert formats.encoding_to_json(enc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_bytes_equal_json_dumps_on_the_sweep(self, p, rng):
        for enc in encoding_sweep(p, rng):
            doc = {"p": p, "n": enc.n, "labels": list(enc.labels),
                   "C": [c for row in enc.C for c in row]}
            text = formats.encoding_to_json(enc)
            assert text == json.dumps(doc, indent=2) + "\n"
            assert formats.encoding_to_json(formats.encoding_from_json(text)) == text

    @pytest.mark.parametrize("field, value, message", [
        ("C", [1, 1, -1, 1.5, 0, -1], "'C' must be a list of integers"),
        ("C", [1, 1, -1, True, 0, -1], "'C' must be a list of integers"),
        ("C", [1, 1, -1, "1", 0, -1], "'C' must be a list of integers"),
        ("C", "111111", "'C' must be a list of integers"),
        ("p", 3.9, "'p' must be an integer"),
        ("p", 3.0, "'p' must be an integer"),
        ("n", "3", "'n' must be an integer"),
        ("n", False, "'n' must be an integer"),
        ("labels", "abc", "'labels' must be a list of strings"),
        ("labels", ["a", 2, "c"], "'labels' must be a list of strings"),
    ])
    def test_non_integer_fields_rejected(self, field, value, message):
        doc = {"p": 3, "n": 3, "labels": ["a", "b", "c"], "C": [1, 1, -1, 1, 0, -1]}
        formats.encoding_from_json(json.dumps(doc))  # the document itself is valid
        doc[field] = value
        with pytest.raises(ParseError, match=message):
            formats.encoding_from_json(json.dumps(doc))


# Labels that JSON escapes (quote, backslash, control characters, U+2028)
# or writes as \\u escapes (non-ASCII), the empty label, and one that holds
# the text the canonical reader looks for.
LABEL_PIECES = ["t", 'say "hi"', "back\\slash", "tab\there", "new\nline", "épée", "雪",
                "\u2028", "\ud800", "", '"C": [\n    ', "\x00"]


@st.composite
def encodings(draw, max_n: int = 300) -> PadicEncoding:
    """An encoding at p = 3, 5 or 1000003: of no terminal, of one, or of a
    random or caterpillar tree with up to ``max_n`` terminals, its labels
    built from ``LABEL_PIECES`` and drawn text."""
    p = draw(st.sampled_from([3, 5, 1000003]))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(2, min(max_n, 40)),
                       st.integers(2, max_n)))
    pieces = draw(st.lists(st.sampled_from(LABEL_PIECES) | st.text(max_size=4), min_size=1, max_size=5))
    labels = tuple(f"{pieces[i % len(pieces)]}{i}" for i in range(n))
    if n == 0:
        return PadicEncoding(p, (), ())
    if n == 1:
        return encode_dendrogram(Dendrogram(labels, ()), p)
    if draw(st.booleans()):
        tree = random_tree(n, random.Random(draw(st.integers(0, 2**32))), heights="rank")
    else:
        tree = caterpillar(n, draw(st.sampled_from(["left", "right"])))
    return encode_dendrogram(Dendrogram(labels, tree.nodes), p)


def strict_read(text: str) -> PadicEncoding:
    """The reader's fallback alone: the whole document through ``json``."""
    return _encoding_from_cells(*formats._strict_encoding(text))


def read_outcome(read, text: str, chunk: int):
    """What ``read`` makes of ``text`` with the canonical reader's chunk
    size set to ``chunk``: the encoding's fields, or the CLI error line."""
    with mock.patch.object(formats, "_CHUNK", chunk):
        try:
            enc = read(text)
        except DendrocodeError as exc:
            return f"{exc.code}: {exc}"
    cells = enc._cells
    return enc.p, enc.labels, cells.shape, cells.tobytes()


# Chunk sizes: a few characters, so that chunk edges fall inside tokens and
# separators, up to the default.
CHUNKS = st.integers(1, 16) | st.sampled_from([64, 4096, 1 << 20])


def mutate(enc: PadicEncoding, kind: str, at: int, byte: str) -> str:
    """``encoding_to_json`` text of ``enc`` (n >= 2) with one token, one
    byte or the layout changed; ``at`` picks the place."""
    text = formats.encoding_to_json(enc)
    tokens = [str(c) for row in enc.C for c in row]
    head = text[: text.index('"C": [') + len('"C": ')]
    if kind in ("2", "-0", "+1", "1.0"):
        tokens[at % len(tokens)] = kind
    if kind in ("2", "-0", "+1", "1.0", "drop-comma"):
        seps = [",\n    "] * (len(tokens) - 1)
        if kind == "drop-comma":
            seps[at % len(seps)] = "\n    "
        body = "".join(t + s for t, s in zip(tokens, seps + [""]))
        return f"{head}[\n    {body}\n  ]\n}}\n"
    at %= len(text)
    return {
        "extra-space": text[:at] + " " + text[at:],
        "byte": text[:at] + byte + text[at + 1:],
        "crlf": text.replace("\n", "\r\n"),
        "no-final-newline": text[:-1],
        "duplicate-c-first": text.replace('"C": [', '"C": [1, -1],\n  "C": [', 1),
        "duplicate-c-last": text[:-len("\n}\n")] + ',\n  "C": [1, -1]\n}\n',
    }[kind]


class TestCanonicalEncodingReader:
    """``encoding_from_json`` against its strict path alone: the same
    encoding, or the same error line, on every text."""

    @settings(max_examples=80, deadline=None)
    @given(encodings(), CHUNKS)
    def test_canonical_text(self, enc, chunk):
        text = formats.encoding_to_json(enc)
        chunk = max(chunk, len(text) // 500)  # at most about 500 chunks
        with mock.patch.object(formats, "_CHUNK", chunk):
            assert (formats._canonical_encoding(text) is not None) == (enc.n >= 2)
        fast = read_outcome(formats.encoding_from_json, text, chunk)
        assert fast == read_outcome(strict_read, text, chunk)
        assert fast == (enc.p, enc.labels, enc._cells.shape, enc._cells.tobytes())

    @settings(max_examples=300, deadline=None)
    @given(encodings(max_n=12).filter(lambda enc: enc.n >= 2),
           st.sampled_from(["2", "-0", "+1", "1.0", "drop-comma", "extra-space", "byte", "crlf",
                            "no-final-newline", "duplicate-c-first", "duplicate-c-last"]),
           st.integers(0, 10**6), st.sampled_from(list('0123456789-+., \n\r\t"[]{}:xeé')),
           st.integers(1, 16) | st.just(1 << 20))
    def test_mutated_text(self, enc, kind, at, byte, chunk):
        text = mutate(enc, kind, at, byte)
        fast = read_outcome(formats.encoding_from_json, text, chunk)
        assert fast == read_outcome(strict_read, text, chunk)

    @pytest.mark.parametrize("kind", ["2", "-0", "+1", "1.0", "drop-comma", "crlf",
                                      "no-final-newline", "duplicate-c-first", "duplicate-c-last"])
    def test_each_mutation_leaves_the_canonical_path(self, rng, kind):
        enc = encode_dendrogram(random_tree(7, rng, heights="rank"), 3)
        text = mutate(enc, kind, 5, "")
        assert formats._canonical_encoding(text) is None
        expected = read_outcome(strict_read, text, 1 << 20)
        assert read_outcome(formats.encoding_from_json, text, 1 << 20) == expected
        if kind in ("crlf", "no-final-newline", "duplicate-c-first"):
            assert expected == read_outcome(strict_read, formats.encoding_to_json(enc), 1 << 20)
        else:
            assert isinstance(expected, str)

    def test_text_of_many_chunks(self, rng):
        enc = encode_dendrogram(random_tree(500, rng, heights="rank"), 5)
        text = formats.encoding_to_json(enc)
        assert len(text) > 1.5 * formats._CHUNK
        fields = formats._canonical_encoding(text)
        assert fields is not None
        assert read_outcome(formats.encoding_from_json, text, formats._CHUNK) == (
            5, enc.labels, (500, 499), enc._cells.tobytes())


# Heights whose shortest repr JSON must keep: past 1e16 and below 1e-4 in
# exponent form, the largest and smallest floats, integral floats and ints,
# and a numpy float.
HEIGHTS = [1e300, 5e-324, 0.0, 3.0, 7, 0, 2.5, 1e-5, 1e16, 1.7976931348623157e308, np.float64(0.1)]


class TestTreeJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32),
           st.lists(st.sampled_from(LABEL_PIECES) | st.text(max_size=4), min_size=1, max_size=5),
           st.lists(st.sampled_from(HEIGHTS) | st.floats(0, 1e308), min_size=29, max_size=29))
    def test_equals_json_dumps(self, n, seed, pieces, heights):
        shape = random_tree(n, random.Random(seed), heights="rank")
        labels = tuple(f"{pieces[i % len(pieces)]}{i}" for i in range(n))
        nodes = tuple(MergeNode(node.rank, h, node.left, node.right)
                      for node, h in zip(shape.nodes, heights))
        tree = Dendrogram(labels, nodes)
        assert formats.tree_to_json(tree) == tree_json_by_dumps(tree)

    @pytest.mark.parametrize("label", ["solo", "", 'say "hi"', "雪", "new\nline"])
    def test_single_terminal(self, label):
        tree = Dendrogram((label,), ())
        assert formats.tree_to_json(tree) == tree_json_by_dumps(tree)


def as_levels(table):
    """An n x n table of numbers as ``level_table_csv`` arguments: cell
    (i, k) at level n*i + k, and the value of each level."""
    n = len(table)
    return np.arange(n * n, dtype=np.int64).reshape(n, n), [v for row in table for v in row].__getitem__


class TestFractionMatrixCsv:
    def test_equals_writing_every_cell(self):
        labels = ("", "a,b", 'say "hi"', " lead", "new\nline", "cr\rhere", "é", "plain")
        table = [[Fraction(i - j, 3 ** (i + j)) for j in range(8)] for i in range(8)]
        text = formats.level_table_csv(labels, *as_levels(table))
        assert text == csv_table(["", *labels], labels, table)

    def test_single_label(self):
        expected = csv_table(["", ""], ("",), [[Fraction(0)]])
        assert formats.level_table_csv(("",), *as_levels([[Fraction(0)]])) == expected


# Labels that CSV must quote (",", '"', "\n", "\r"), that it writes bare (a
# leading space), and the empty label, which CSV quotes when it is alone.
LABELS = st.text(st.sampled_from(["a", "b", ",", '"', "\n", "\r", " ", "é"]), max_size=4)
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1 / 3]
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOATS = FLOATS | st.sampled_from([float("inf"), float("-inf"), float("nan")])
# ints past Python's 4,300-digit int-to-str limit among small ones
INTS = st.integers(-10**6, 10**6) | st.builds(
    lambda digit, k, low: digit * 10**k + low,
    st.integers(-9, 9), st.integers(4290, 6000), st.integers(0, 10**6),
)
FRACTIONS = st.builds(Fraction, INTS, INTS.filter(bool))


class TestWriterReferee:
    """Every tabular writer, byte for byte against ``csv_table``, which writes
    each cell through ``csv.writer``; number cells are ``float_text`` and
    ``exact_text``."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 5), st.booleans())
    def test_write_matrix_csv(self, data, n, full):
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = data.draw(FLOATS.map(abs) | st.just(-0.0))
        labels = data.draw(st.none() | st.lists(LABELS, min_size=n, max_size=n))
        m = DissimilarityMatrix(values, labels)
        names = m.label_list()
        rows = [[float_text(v, full) for v in row] for row in values]
        assert formats.write_matrix_csv(m, full) == csv_table(["", *names], names, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 4), st.integers(0, 4), st.booleans())
    def test_write_data_csv(self, data, r, c, full):
        values = np.array(data.draw(st.lists(ANY_FLOATS, min_size=r * c, max_size=r * c)))
        values = values.reshape(r, c)
        labels = data.draw(st.none() | st.lists(LABELS, min_size=r, max_size=r))
        header = data.draw(st.none() | st.lists(LABELS, min_size=c, max_size=c))
        full_header = None if header is None else ([""] if labels is not None else []) + header
        rows = [[float_text(v, full) for v in row] for row in values]
        expected = csv_table(full_header, labels, rows)
        assert formats.write_data_csv(values, labels, header, full) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.booleans())
    def test_haar_to_csv(self, data, n, m, full):
        tree = random_tree(n, random.Random(n)) if n > 1 else Dendrogram(("x",), ())
        draw_vector = lambda: data.draw(st.lists(FLOATS, min_size=m, max_size=m))  # noqa: E731
        t = HaarTransform(tree, draw_vector(), tuple(draw_vector() for _ in range(n - 1)))
        names = data.draw(st.none() | st.lists(LABELS, min_size=m, max_size=m))
        header = ["", f"s{n - 1}", *(f"d{r}" for r in range(n - 1, 0, -1))]
        rows = [[float_text(t.root_smooth[c], full)]
                + [float_text(t.detail(r)[c], full) for r in range(n - 1, 0, -1)]
                for c in range(m)]
        labels = names if names is not None else [f"c{c + 1}" for c in range(m)]
        assert formats.haar_to_csv(t, names, full) == csv_table(header, labels, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(INTS, INTS, INTS, ANY_FLOATS, ANY_FLOATS), max_size=4), st.booleans())
    def test_violations_csv(self, violations, full):
        rows = [[exact_text(i + 1), exact_text(j + 1), exact_text(k + 1),
                 float_text(lhs, full), float_text(rhs, full)]
                for i, j, k, lhs, rhs in violations]
        expected = csv_table(["i", "j", "k", "lhs", "rhs"], None, rows)
        assert formats.violations_csv(violations, full) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 6), st.sampled_from([3, 5, 7]))
    def test_decimal_codes_csv(self, data, n, p):
        labels = data.draw(st.lists(LABELS, min_size=n, max_size=n))
        tree = random_tree(n, random.Random(n)) if n > 1 else Dendrogram(("x",), ())
        enc = encode_dendrogram(Dendrogram(tuple(labels), tree.nodes), p)
        rows = [[exact_text(evaluate_code(code))] for code in enc.codes()]
        assert formats.decimal_codes_csv(enc) == csv_table(["label", "code"], labels, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 4))
    def test_fraction_matrix_csv(self, data, n):
        labels = data.draw(st.lists(LABELS, min_size=n, max_size=n))
        table = [data.draw(st.lists(FRACTIONS, min_size=n, max_size=n)) for _ in range(n)]
        rows = [[exact_text(v) for v in row] for row in table]
        text = formats.level_table_csv(labels, *as_levels(table))
        assert text == csv_table(["", *labels], labels, rows)

    def test_labelled_rows_with_no_cells(self):
        # CSV writes a row holding only the empty label as ""
        text = formats.write_data_csv(np.zeros((3, 0)), ["", "a,b", "c"], [])
        assert text == '""\n""\n"a,b"\nc\n'
        assert text == csv_table([""], ["", "a,b", "c"], [[], [], []])


# Table labels that CSV writes and reads back: each is unique, not a number,
# and has no whitespace at either end (the reader strips cells).  Some need
# quotes (a comma, a quote, a newline, a carriage return); a space or "é"
# leaves plain text.
TABLE_LABEL = st.text(st.sampled_from(["a", "1", ",", '"', "\n", "\r", " ", "é"]), max_size=4)
ROUND_TRIP_FLOATS = FLOATS | st.sampled_from([float("inf"), float("-inf")])


def names(k: int):
    """``k`` such labels."""
    return st.lists(TABLE_LABEL, min_size=k, max_size=k).map(
        lambda texts: [f"r{i}{text}." for i, text in enumerate(texts)])


def bits(values: np.ndarray):
    return values.shape, values.tobytes()


class TestTableRoundTrip:
    """``write_data_csv`` and ``write_matrix_csv --full-precision`` text
    read back bit for bit.  Plain text is read in bulk; text with a quoted
    label, a space or non-ASCII goes through the per-cell reader."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans())
    def test_data_table(self, data, r, c, labelled, headed):
        values = np.array(data.draw(st.lists(ROUND_TRIP_FLOATS, min_size=r * c, max_size=r * c)))
        values = values.reshape(r, c)
        labels = data.draw(names(r)) if labelled else None
        header = data.draw(names(c)) if headed else None
        text = formats.write_data_csv(values, labels, header, full_precision=True)
        table = formats.read_data_csv(text, header=headed, labels=labelled)
        assert table.labels == (tuple(labels) if labelled else None)
        assert table.header == (tuple(header) if headed else None)
        assert bits(table.values) == bits(values)
        plain = not any(ch in text for ch in '" é')
        assert (formats._bulk_table(text, headed, labelled) is not None) == plain

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_matrix(self, data, n):
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = data.draw(FLOATS.map(abs) | st.just(-0.0))
        labels = data.draw(names(n))
        text = formats.write_matrix_csv(DissimilarityMatrix(values, labels), full_precision=True)
        back = formats.read_matrix_csv(text)
        assert back.labels == tuple(labels)
        assert bits(back.values) == bits(values)
        plain = not any(ch in text for ch in '" é')
        assert (formats._bulk_table(text, None, None) is not None) == plain


# Cell text of plain tables: integers, decimals, exponents, both zeros, the
# extremes and the shortest repr of any finite float.
CELL_TEXT = st.sampled_from(["0", "7", "-2", "0.5", "1e3", "-0.0", "5e-324", "+.5",
                             "1.7976931348623157e+308"]) | FLOATS.map(repr)
# One-byte or one-token changes; a token replaces a cell, a byte is put in
# before the chosen character.
TABLE_MUTATIONS = ["space", "quote", "cr", "blank-line", "trailing-comma", "drop-cell",
                   "1_0", "nan", "inf", "١", "", "x", "byte"]


@st.composite
def plain_tables(draw) -> str:
    """Plain table text, as the writers leave it: an optional header row and
    an optional label column around 1-5 rows of 1-4 number cells."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    labelled, headed = draw(st.booleans()), draw(st.booleans())
    rows = [[draw(CELL_TEXT) for _ in range(c)] for _ in range(r)]
    if labelled:
        rows = [[f"r{i}", *row] for i, row in enumerate(rows)]
    if headed:
        rows.insert(0, [""] * labelled + [f"h{j}" for j in range(c)])
    return "".join(",".join(row) + "\n" for row in rows)


def mutate_table(text: str, kind: str, at: int, byte: str = "") -> str:
    """``text`` with one byte or token changed; ``at`` picks the place."""
    rows = [line.split(",") for line in text.splitlines()]
    row = rows[at % len(rows)]
    cell = at // len(rows) % len(row)
    inserted = {"space": " ", "quote": '"', "cr": "\r", "byte": byte}
    if kind in inserted:
        at %= len(text)
        return text[:at] + inserted[kind] + text[at:]
    if kind == "blank-line":
        row.insert(0, "\n" + row.pop(0))
    elif kind == "trailing-comma":
        row.append("")
    elif kind == "drop-cell":
        del row[cell]
    else:
        row[cell] = kind
    return "".join(",".join(r) + "\n" for r in rows)


def table_outcome(read, text: str, *args, bulk: bool = True):
    """What ``read`` makes of ``text``: the table's fields (values by their
    bits) or the CLI error line.  ``bulk=False`` reads cell by cell."""
    with mock.patch.object(formats, "_table_lines", formats._table_lines if bulk else lambda text: None):
        try:
            table = read(text, *args)
        except DendrocodeError as exc:
            return f"{exc.code}: {exc}"
    if isinstance(table, formats.DataTable):
        return table.header, table.labels, bits(table.values)
    t, coord_names = table
    return coord_names, bits(t.root_smooth), bits(t.details)


LAYOUTS = st.sampled_from([None, True, False])
PLACES = st.integers(0, 10**6)
BYTES = st.sampled_from(list('0123456789-+.,e \n\r\t"x\x00é'))


class TestBulkTableReferee:
    """``read_data_csv`` and ``haar_from_csv`` with the bulk path against
    the per-cell reader alone: the same table, or the same error line, on
    plain tables and on each one byte or one token off."""

    @settings(max_examples=300, deadline=None)
    @given(plain_tables(), st.sampled_from(TABLE_MUTATIONS), PLACES, BYTES, LAYOUTS, LAYOUTS)
    def test_data_table(self, text, kind, at, byte, header, labels):
        for case in (text, mutate_table(text, kind, at, byte)):
            fast = table_outcome(formats.read_data_csv, case, header, labels)
            assert fast == table_outcome(formats.read_data_csv, case, header, labels, bulk=False)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.sampled_from(TABLE_MUTATIONS), PLACES, BYTES,
           st.data())
    def test_wavelet_table(self, n, m, kind, at, byte, data):
        tree = random_tree(n, random.Random(n)) if n > 1 else Dendrogram(("x",), ())
        values = lambda: data.draw(st.lists(CELL_TEXT, min_size=m, max_size=m))  # noqa: E731
        header = ["", f"s{n - 1}", *(f"d{r}" for r in range(n - 1, 0, -1))]
        columns = [values() for _ in range(n)]
        text = "".join(",".join(row) + "\n" for row in
                       [header, *([f"c{k}", *(col[k] for col in columns)] for k in range(m))])
        for case in (text, mutate_table(text, kind, at, byte)):
            fast = table_outcome(formats.haar_from_csv, case, tree)
            assert fast == table_outcome(formats.haar_from_csv, case, tree, bulk=False)

    @pytest.mark.parametrize("kind", TABLE_MUTATIONS[:-1])
    def test_each_mutation(self, kind):
        # nan and inf are numbers to both readers; every other change is
        # left to the per-cell reader
        text = ",a,b,c\nr1,0.5,1e3,-2\nr2,7,-0.0,5e-324\nr3,1,2,3\n"
        changed = mutate_table(text, kind, 5)  # row 2, its first number
        assert (formats._bulk_table(changed, None, None) is not None) == (kind in ("nan", "inf"))
        expected = table_outcome(formats.read_data_csv, changed, None, None, bulk=False)
        assert table_outcome(formats.read_data_csv, changed, None, None) == expected

    @pytest.mark.parametrize("header", [None, True, False])
    @pytest.mark.parametrize("labels", [None, True, False])
    @pytest.mark.parametrize("text", [
        ",a,b\n", "a,b\n", ",\n1,2\n", ",,\nr1,1,2\n", "1,2\n,\n3,4\n", "r1,1\n,\n", "a\nb\n",
        "r1,1\nr2\n", "r1,1\nr2,\n", "1\n2\n", "x\n", "7\n", "1,2", "1,2\n3,4,\n", ",1\n,2\n",
        "#,1\n2,3\n", "1,2\n#3,4\n", "1,-\n", "1,0x10\n", "1,1e400\n", "r1,-nan\n",
    ])
    def test_edge_tables(self, text, header, labels):
        # rows of empty cells, which csv skips; a header with no body; rows
        # with no cells past the label; no final newline; comment marks
        expected = table_outcome(formats.read_data_csv, text, header, labels, bulk=False)
        assert table_outcome(formats.read_data_csv, text, header, labels) == expected

    def test_writer_output_is_read_in_bulk(self, rng, monkeypatch):
        data = np.array([[rng.uniform(-5, 5) for _ in range(4)] for _ in range(6)])
        m = pairwise_distances(data, labels=[f"o{i}" for i in range(6)])
        tree = random_tree(6, rng)
        cloud = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
        texts = [formats.write_matrix_csv(m), formats.write_matrix_csv(m, full_precision=True),
                 formats.write_data_csv(data), formats.write_data_csv(data, full_precision=True),
                 formats.write_data_csv(data, [f"o{i}" for i in range(6)], list("wxyz")), cloud]
        wavelet = formats.haar_to_csv(haar_forward(tree, data), full_precision=True)
        expected = [table_outcome(formats.read_data_csv, text, None, None, bulk=False)
                    for text in texts]
        expected_haar = table_outcome(formats.haar_from_csv, wavelet, tree, bulk=False)

        def per_cell(text):
            raise AssertionError("plain writer output went to the per-cell reader")

        monkeypatch.setattr(formats, "_rows_from_csv", per_cell)
        assert [table_outcome(formats.read_data_csv, text, None, None) for text in texts] == expected
        assert table_outcome(formats.haar_from_csv, wavelet, tree) == expected_haar
        assert bits(formats.read_matrix_csv(texts[1]).values) == bits(m.values)


class TestStringsAndStreams:
    def test_plain_lines(self):
        strings = formats.read_strings("241\n248\n", 10)
        assert [s.digits for s in strings] == [(2, 4, 1), (2, 4, 8)]
        assert [s.label for s in strings] == ["s1", "s2"]

    def test_labeled_lines(self):
        strings = formats.read_strings("a,241\nb,311\n", 10)
        assert [s.label for s in strings] == ["a", "b"]

    def test_bad_digit_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            formats.read_strings("11\n21\n", 2)

    def test_stream(self):
        assert formats.read_stream_csv("4\n7\n9\n") == [4.0, 7.0, 9.0]

    def test_stream_rejects_multiple_columns(self):
        with pytest.raises(ParseError):
            formats.read_stream_csv("1,2\n")

    @pytest.mark.parametrize("text, message", [
        ("1\n\n 2 \n,3,\n", None),
        ("1\n2,3\n", "line 2: expected a single value, got 2"),
        ("1\n,\n", "line 2: expected a single value, got 0"),
        ("1\n\nx\n", "line 3: 'x' is not a number"),
        ("1\n y ,\n", "line 2: 'y' is not a number"),
        ("\n \n", "empty stream"),
    ])
    def test_stream_lines_with_and_without_commas(self, text, message):
        """Only a line that holds a comma is split into cells; the messages
        and line numbers are the same either way."""
        if message is None:
            assert formats.read_stream_csv(text) == [1.0, 2.0, 3.0]
        else:
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                formats.read_stream_csv(text)


class TestBooleanTableCsv:
    def test_with_header(self):
        t = formats.read_boolean_table_csv(",d1,d2\na,1,0\nb,0,1\n")
        assert t.attributes == ("d1", "d2")
        assert t.objects == ("a", "b")

    def test_without_header(self):
        t = formats.read_boolean_table_csv("a,1,0\nb,0,1\n")
        assert t.attributes == ("v1", "v2")

    def test_bad_cell_reports_file_line(self):
        with pytest.raises(ParseError, match="^line 5: non-boolean cell$"):
            formats.read_boolean_table_csv(",d1,d2\na,1,0\n\n\nb,0,x\n")

    def test_first_row_of_integers_is_data(self):
        """A first row whose cells past the label all read as integers is a
        data row and gets the data checks; it used to be taken as a header
        naming the attributes 2 and 1."""
        with pytest.raises(ParseError, match="^line 1: non-boolean cell$"):
            formats.read_boolean_table_csv("x,2,1\ny,1,0\nz,1,1\n")

    def test_integer_named_columns_are_refused(self):
        with pytest.raises(ParseError, match="^line 1: non-boolean cell$"):
            formats.read_boolean_table_csv("obj,1,2,3\na,1,0,1\nb,0,1,1\n")

    def test_one_word_makes_a_header(self):
        t = formats.read_boolean_table_csv("obj,1,b\na,1,0\nb,0,1\n")
        assert t.attributes == ("1", "b")
        assert t.cells == ((1, 0), (0, 1))

    def test_semilattice_json_shape(self):
        t = BooleanTable(("a", "b"), ("d1", "d2"), ((1, 0), (0, 1)))
        doc = json.loads(formats.semilattice_to_json(build_semilattice(t)))
        assert set(doc) == {"attributes", "vertices", "covers"}


class TestReportsAndViolations:
    def test_report_json(self):
        m = pairwise_distances(IRIS8)
        report = ultrametricity_coefficient(m, 20, seed=1, tol=0.05)
        doc = json.loads(formats.report_to_json(report))
        assert set(doc) == {"sampled", "coefficient", "seed", "tolerance"}
        assert doc["seed"] == 1

    def test_violations_csv_one_based(self):
        text = formats.violations_csv([(0, 1, 2, 5.0, 1.0)])
        assert text.splitlines()[1] == "1,2,3,5,1"

    def test_fraction_matrix(self):
        levels = np.array([[0, 1], [1, 0]])
        text = formats.level_table_csv(("a", "b"), levels, [Fraction(0), Fraction(2, 3)].__getitem__)
        assert "2/3" in text


class TestRender:
    def test_two_leaf_drawing_is_three_lines(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 5.0, terminal(0), terminal(1)),))
        text = render_tree(tree)
        assert len(text.splitlines()) == 3
        assert "q1" in text and "h=5" in text

    def test_idempotent_byte_identical(self, rng):
        tree = random_tree(7, rng)
        assert render_tree(tree) == render_tree(tree)

    def test_reference_tree_merge_order(self):
        from reference import REFERENCE_ULTRAMETRIC_7, IRIS_LABELS7

        m = DissimilarityMatrix(REFERENCE_ULTRAMETRIC_7, IRIS_LABELS7)
        text = render_tree(agglomerate(m, "single"))
        lines = text.splitlines()
        assert len(lines) == 13
        # canonical drawing: the 3-4 merge sits deepest, then 2 joins, then 1
        terminals = [line.split()[0] for line in lines if line.startswith("iris")]
        assert terminals == [
            "iris1", "iris2", "iris3", "iris4", "iris7", "iris5", "iris6",
        ]
        for rank in range(1, 7):
            assert f"q{rank}" in text

    def test_single_leaf(self):
        assert render_tree(Dendrogram(("only",), ())) == "only\n"


LABEL_PIECES = ["", " ", "\t", "a b", "t\t ", "long label", "x" * 12]


def render_cases():
    rng = random.Random(1301)
    yield random_tree(1, rng)
    yield random_tree(2, rng)
    for n in (2, 3, 7, 40):
        yield caterpillar(n, "left")
        yield caterpillar(n, "right")
    for _ in range(200):
        n = rng.randint(1, 40)
        tree = random_tree(n, rng, rng.choice(["monotone", "rank", "jumbled"]))
        labels = tuple(rng.choice(LABEL_PIECES) for _ in range(n))
        yield Dendrogram(labels, tree.nodes)
    tied = pairwise_distances(np.random.default_rng(7).integers(0, 3, size=(120, 3)).astype(float))
    for linkage in ("single", "complete", "ward", "median"):  # median gives inversions
        yield agglomerate(tied, linkage)


class TestRenderReferee:
    @pytest.mark.parametrize("full_precision", [False, True])
    def test_equals_the_grid_renderer(self, full_precision):
        for tree in render_cases():
            assert render_tree(tree, full_precision) == render_by_grid(tree, full_precision)

    def test_memory_in_proportion_to_the_text(self):
        tree = random_tree(1000, random.Random(1302))
        tracemalloc.start()
        try:
            text = render_tree(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)

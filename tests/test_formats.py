from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode import formats
from dendrocode.baire import BaireString
from dendrocode.errors import DomainError, ParseError
from dendrocode.haar import HaarTransform, haar_forward, haar_inverse
from dendrocode.hierarchy import (
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    agglomerate,
    pairwise_distances,
    terminal,
)
from dendrocode.padic import encode_dendrogram, evaluate_code
from dendrocode.lattice import BooleanTable, build_semilattice
from dendrocode.render import render_tree
from dendrocode.ultrametric import ultrametricity_coefficient

from conftest import random_tree
from oracles import csv_table, exact_text, float_text
from reference import IRIS8, IRIS_LABELS8


class TestDataCsv:
    def test_sniffs_header_and_labels(self):
        text = ",a,b\nrow1,1.0,2.0\nrow2,3.5,4.5\n"
        table = formats.read_data_csv(text)
        assert table.header == ("a", "b")
        assert table.labels == ("row1", "row2")
        assert np.array_equal(table.values, [[1.0, 2.0], [3.5, 4.5]])

    def test_plain_numbers(self):
        table = formats.read_data_csv("1,2\n3,4\n")
        assert table.header is None and table.labels is None
        assert table.values.shape == (2, 2)

    def test_ragged_reported_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            formats.read_data_csv("1,2\n3\n")

    def test_non_numeric_reported_with_position(self):
        with pytest.raises(ParseError, match="line 2, column 2"):
            formats.read_data_csv("1,2\n3,x\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            formats.read_data_csv("\n\n")


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


class TestFractionMatrixCsv:
    def test_equals_writing_every_cell(self):
        labels = ("", "a,b", 'say "hi"', " lead", "new\nline", "cr\rhere", "é", "plain")
        table = [[Fraction(i - j, 3 ** (i + j)) for j in range(8)] for i in range(8)]
        assert formats.fraction_matrix_csv(labels, table) == csv_table(["", *labels], labels, table)

    def test_single_label(self):
        expected = csv_table(["", ""], ("",), [[Fraction(0)]])
        assert formats.fraction_matrix_csv(("",), [[Fraction(0)]]) == expected


# Labels that CSV must quote (",", '"', "\n"), that it writes bare ("\r", a
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
        assert formats.fraction_matrix_csv(labels, table) == csv_table(["", *labels], labels, rows)

    def test_labelled_rows_with_no_cells(self):
        # CSV writes a row holding only the empty label as ""
        text = formats.write_data_csv(np.zeros((3, 0)), ["", "a,b", "c"], [])
        assert text == '""\n""\n"a,b"\nc\n'
        assert text == csv_table([""], ["", "a,b", "c"], [[], [], []])


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


class TestBooleanTableCsv:
    def test_with_header(self):
        t = formats.read_boolean_table_csv(",d1,d2\na,1,0\nb,0,1\n")
        assert t.attributes == ("d1", "d2")
        assert t.objects == ("a", "b")

    def test_without_header(self):
        t = formats.read_boolean_table_csv("a,1,0\nb,0,1\n")
        assert t.attributes == ("v1", "v2")

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
        text = formats.fraction_matrix_csv(
            ("a", "b"), [[Fraction(0), Fraction(2, 3)], [Fraction(2, 3), Fraction(0)]]
        )
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

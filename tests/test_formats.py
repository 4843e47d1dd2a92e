from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from dendrocode import formats
from dendrocode.baire import BaireString
from dendrocode.errors import ParseError
from dendrocode.haar import haar_forward, haar_inverse
from dendrocode.hierarchy import (
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    agglomerate,
    pairwise_distances,
    terminal,
)
from dendrocode.padic import encode_dendrogram
from dendrocode.lattice import BooleanTable, build_semilattice
from dendrocode.render import render_tree
from dendrocode.ultrametric import ultrametricity_coefficient

from conftest import random_tree
from oracles import csv_table
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
        assert formats.fraction_matrix_csv(labels, table) == csv_table(labels, table)

    def test_single_label(self):
        assert formats.fraction_matrix_csv(("",), [[Fraction(0)]]) == csv_table(("",), [[Fraction(0)]])


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

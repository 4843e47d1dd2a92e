from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode.cli import build_parser, main
from dendrocode import errors, formats
from dendrocode.baire import baire_distance
from dendrocode.hierarchy import Dendrogram
from dendrocode.padic import encode_dendrogram, evaluate_code
from dendrocode.permutations import packed_representation

from conftest import caterpillar, random_tree
from oracles import (alternating_count, baire_dist_by_pairs, csv_table, dna_encode_by_lines, exact_text,
                     padic_table)
from reference import FCA_ATTRIBUTES, FCA_CELLS, FCA_OBJECTS, IRIS8, IRIS_LABELS8


# a valid encoding whose columns do not nest: padic-dist reads it, padic-decode cannot
NON_NESTED = '{"p": 3, "n": 3, "labels": ["a", "b", "c"], "C": [1, 1, -1, 1, 1, -1]}'


@pytest.fixture
def iris_csv(tmp_path):
    path = tmp_path / "iris8.csv"
    rows = ["," + ",".join(("Sepal.L", "Sepal.W", "Petal.L", "Petal.W"))]
    for label, row in zip(IRIS_LABELS8, IRIS8):
        rows.append(label + "," + ",".join(str(v) for v in row))
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("4\n7\n9\n10\n6\n11\n3\n")
    return path


@pytest.fixture
def fca_csv(tmp_path):
    path = tmp_path / "fca.csv"
    lines = ["," + ",".join(FCA_ATTRIBUTES)]
    for obj, row in zip(FCA_OBJECTS, FCA_CELLS):
        lines.append(obj + "," + ",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClusterPipeline:
    def test_cluster_then_cophenetic(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        code, _, _ = run(capsys, "cluster", str(iris_csv), "--linkage", "median",
                         "-o", str(tree_path))
        assert code == 0
        code, out, _ = run(capsys, "cophenetic", str(tree_path))
        assert code == 0
        matrix = formats.read_matrix_csv(out)
        assert matrix.labels == IRIS_LABELS8
        assert matrix.values[0, 4] == pytest.approx(0.1414214, abs=1e-6)

    def test_newick_export(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "t.json"
        nwk_path = tmp_path / "t.nwk"
        code, _, _ = run(capsys, "cluster", str(iris_csv), "-o", str(tree_path),
                         "--newick", str(nwk_path))
        assert code == 0
        assert nwk_path.read_text().endswith(";\n")

    def test_deterministic_output(self, tmp_path, iris_csv, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "cluster", str(iris_csv), "-o", str(a))
        run(capsys, "cluster", str(iris_csv), "-o", str(b))
        assert a.read_text() == b.read_text()

    def test_degenerate_input_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "one.csv"
        bad.write_text("1.0,2.0\n")
        code, _, err = run(capsys, "cluster", str(bad))
        assert code == 1
        assert err.startswith("E_DEGENERATE:")
        assert err.count("\n") == 1

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "cluster", "no-such-file.csv")
        assert code == 1
        assert err.startswith("E_PARSE:")


class TestVerifyAndCanonical:
    def test_ultrametric_matrix_passes(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        matrix_path = tmp_path / "m.csv"
        run(capsys, "cluster", str(iris_csv), "--linkage", "complete", "-o", str(tree_path))
        run(capsys, "cophenetic", str(tree_path), "-o", str(matrix_path))
        code, out, err = run(capsys, "verify-um", str(matrix_path), "--tol", "1e-7")
        assert code == 0 and err == ""
        assert out.strip() == "i,j,k,lhs,rhs"

    def test_raw_distances_fail_with_diagnostic(self, tmp_path, iris_csv, capsys):
        m = "".join(formats._matrix_chunks(
            __import__("dendrocode").pairwise_distances(IRIS8, labels=IRIS_LABELS8),
            full_precision=True,
        ))
        path = tmp_path / "raw.csv"
        path.write_text(m)
        code, out, err = run(capsys, "verify-um", str(path))
        assert code == 1
        assert err.startswith("E_ULTRAMETRIC:")
        assert len(out.strip().splitlines()) > 1

    def test_canonical_names_unlabelled_rows_before_reordering(self, tmp_path, capsys):
        # the header was ",t1,t2,t3": names made up after the rows moved,
        # with no permutation printed to tell the order
        path = tmp_path / "m.csv"
        path.write_text("0,3,1\n3,0,3\n1,3,0\n")
        assert run(capsys, "canonical", str(path)) == (
            0, ",t2,t1,t3\nt2,0,3,3\nt1,3,0,1\nt3,3,1,0\n", "")

    def test_canonical_tolerance_cannot_mend_the_exact_conditions(self, tmp_path, capsys):
        # ultrametric within 0.1, so verify-um passes; the reordered table
        # still breaks the run condition, which is exact
        path, out_path = tmp_path / "m.csv", tmp_path / "canon.csv"
        path.write_text(",a,b,c\na,0,1,2\nb,1,0,2.05\nc,2,2.05,0\n")
        assert run(capsys, "verify-um", str(path), "--tol", "0.1") == (0, "i,j,k,lhs,rhs\n", "")
        assert run(capsys, "canonical", str(path), "--tol", "0.1", "-o", str(out_path)) == (
            1, "", "E_ULTRAMETRIC: canonical ordering failed verification: "
                   "run condition fails at row 0, column 2 (expected equality)\n")
        assert not out_path.exists()

    def test_canonical_restores_shuffled(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        matrix_path = tmp_path / "m.csv"
        run(capsys, "cluster", str(iris_csv), "--linkage", "single", "-o", str(tree_path))
        run(capsys, "cophenetic", str(tree_path), "-o", str(matrix_path))
        perm_path = tmp_path / "perm.txt"
        code, out, _ = run(capsys, "canonical", str(matrix_path),
                           "-o", str(tmp_path / "canon.csv"), "--perm-out", str(perm_path))
        assert code == 0
        perm = [int(v) for v in perm_path.read_text().strip().split(",")]
        assert sorted(perm) == list(range(1, 9))

    @pytest.mark.parametrize("verb", ["cophenetic", "canonical"])
    def test_square_table_past_the_guard(self, verb, tmp_path, iris_csv, capsys, monkeypatch):
        tree_path, matrix_path = tmp_path / "tree.json", tmp_path / "m.csv"
        run(capsys, "cluster", str(iris_csv), "-o", str(tree_path))
        run(capsys, "cophenetic", str(tree_path), "-o", str(matrix_path))
        # the 8 x 8 table takes about 600 bytes
        monkeypatch.setattr(errors, "_TABLE_GUARD", 100)
        outputs = [tmp_path / "out.csv"]
        argv = [verb, str(tree_path if verb == "cophenetic" else matrix_path), "-o", str(outputs[0])]
        if verb == "canonical":
            outputs.append(tmp_path / "perm.txt")
            argv += ["--perm-out", str(outputs[1])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("E_RESOURCE: the distance table would take ")
        assert err.count("\n") == 1
        assert not any(path.exists() for path in outputs)


class TestPadicVerbs:
    def test_encode_decode_round_trip(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        enc_path = tmp_path / "enc.json"
        back_path = tmp_path / "back.json"
        run(capsys, "cluster", str(iris_csv), "-o", str(tree_path))
        code, _, _ = run(capsys, "padic-encode", str(tree_path), "-p", "3",
                         "-o", str(enc_path), "--decimals", str(tmp_path / "codes.csv"))
        assert code == 0
        code, _, _ = run(capsys, "padic-decode", str(enc_path), "-o", str(back_path))
        assert code == 0
        original = formats.tree_from_json(tree_path.read_text())
        rebuilt = formats.tree_from_json(back_path.read_text())
        assert rebuilt.labels == original.labels
        assert [(n.rank, n.left, n.right) for n in rebuilt.nodes] == [
            (n.rank, n.left, n.right) for n in original.nodes
        ]
        codes = (tmp_path / "codes.csv").read_text().strip().splitlines()
        values = [int(line.split(",")[1]) for line in codes[1:]]
        assert len(set(values)) == 8
        # and the re-encoded decode output is byte-identical at the file level
        enc2_path = tmp_path / "enc2.json"
        run(capsys, "padic-encode", str(back_path), "-p", "3", "-o", str(enc2_path))
        assert enc2_path.read_text() == enc_path.read_text()

    def test_p2_rejected(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "cluster", str(iris_csv), "-o", str(tree_path))
        code, _, err = run(capsys, "padic-encode", str(tree_path), "-p", "2")
        assert code == 1
        assert err.startswith("E_DOMAIN:") and "unique" in err

    def test_distance_matrix_is_exact(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        enc_path = tmp_path / "enc.json"
        run(capsys, "cluster", str(iris_csv), "-o", str(tree_path))
        run(capsys, "padic-encode", str(tree_path), "-o", str(enc_path))
        code, out, _ = run(capsys, "padic-dist", str(enc_path))
        assert code == 0
        assert "2/3" in out or "/" in out

    @pytest.mark.parametrize("flags", [(), ("--similarity",)])
    def test_dist_equals_fraction_oracle(self, tmp_path, capsys, flags):
        rng = random.Random(6)
        texts = [NON_NESTED]
        for n in (1, 2, 5, 17):
            tree = random_tree(n, rng, heights="rank")
            labels = tuple(f"t{i + 1}" for i in range(n))
            if n == 5:  # labels that CSV must quote
                labels = ("a,b", 'say "hi"', " lead", "new\nline", "plain")
            enc = encode_dendrogram(Dendrogram(labels, tree.nodes), 5)
            text = "".join(formats._encoding_json_chunks(enc))
            texts.append(text)
        path = tmp_path / "enc.json"
        for text in texts:
            path.write_text(text)
            enc = formats.encoding_from_json(text)
            expected = csv_table(["", *enc.labels], enc.labels, padic_table(enc, bool(flags)))
            assert run(capsys, "padic-dist", str(path), *flags) == (0, expected, "")

    def test_dist_reads_encodings_that_do_not_decode(self, tmp_path, capsys):
        # column 1 puts a and c on the +1 side, which is no cluster
        path = tmp_path / "enc.json"
        path.write_text(NON_NESTED)
        code, out, err = run(capsys, "padic-decode", str(path))
        assert (code, out) == (1, "")
        assert err == "E_ENCODING: column 1: +1 entries [0, 2] do not form an available cluster\n"
        code, out, err = run(capsys, "padic-dist", str(path))
        assert (code, out, err) == (0, ",a,b,c\na,0,2/3,8/9\nb,2/3,0,8/9\nc,8/9,8/9,0\n", "")

    @pytest.mark.parametrize("verb", ["padic-decode", "padic-dist"])
    def test_non_integer_json_rejected(self, tmp_path, capsys, verb):
        path = tmp_path / "enc.json"
        for field, value in (("C", "[1, 1, -1, 1.5, 1, -1]"), ("C", "[1, 1, -1, true, 1, -1]"),
                             ("C", '[1, 1, -1, "1", 1, -1]'), ("p", "3.9"), ("labels", '"abc"')):
            doc = json.loads(NON_NESTED)
            doc[field] = json.loads(value)
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, verb, str(path))
            assert (code, out) == (1, "")
            assert err.startswith("E_PARSE: encoding JSON field ") and err.count("\n") == 1


def _random_strings(rng, count, alphabet, longest):
    return "".join(
        f"s{i},{''.join(rng.choice(alphabet) for _ in range(rng.randrange(1, longest)))}\n"
        for i in range(count)
    )


# baire-dist inputs (text, base): pairs at distance 0 off the diagonal, a
# string that prefixes another, labels that repeat or are empty, and cells
# past Python's int-to-str digit limit
BAIRE_INPUTS = {
    "equal-digits-one-label": ("a,123\na,123\nb,124\na,12\n", 10),
    "equal-digits-two-labels": ("a,123\nb,123\nc,12\nb,124\n", 10),
    "prefix": ("a,12\nb,1234\nc,123\nd,2\n", 10),
    "empty-label": (",241\nb,248\n,241\n,24\n", 10),
    "one-string": ("a,5\n", 10),
    "base-2": (_random_strings(random.Random(2), 60, "01", 10), 2),
    "base-40": (_random_strings(random.Random(40), 60, "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ", 4), 40),
    "5000-digits": ("a," + "7" * 5000 + "\nb," + "7" * 5000 + "\nc," + "7" * 4999 + "1\n", 10),
}


class TestBaireVerbs:
    def test_distance_matrix(self, tmp_path, capsys):
        path = tmp_path / "strings.txt"
        path.write_text("a,241\nb,248\nc,311\n")
        code, out, _ = run(capsys, "baire-dist", str(path), "--exact")
        assert code == 0
        assert "1/100" in out and "1" in out

    def test_cluster_with_trie_dump(self, tmp_path, capsys):
        path = tmp_path / "strings.txt"
        path.write_text("241\n248\n311\n")
        trie_path = tmp_path / "trie.txt"
        tree_path = tmp_path / "tree.json"
        code, _, _ = run(capsys, "baire-cluster", str(path), "-o", str(tree_path),
                         "--trie-out", str(trie_path))
        assert code == 0
        assert "(root)" in trie_path.read_text()
        tree = formats.tree_from_json(tree_path.read_text())
        assert tree.n == 3

    def test_dist_and_cluster_name_an_empty_label_alike(self, tmp_path, capsys):
        path = tmp_path / "strings.txt"
        path.write_text(",241\nb,248\n")
        tree_path = tmp_path / "tree.json"
        assert run(capsys, "baire-cluster", str(path), "-o", str(tree_path))[0] == 0
        assert formats.tree_from_json(tree_path.read_text()).labels == ("", "b")
        for flags in ([], ["--exact"]):
            code, out, err = run(capsys, "baire-dist", str(path), *flags)
            assert (code, err) == (0, "")
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0][1:] == ["", "b"]
            assert [row[0] for row in rows[1:]] == ["", "b"]

    def test_trie_dump_past_base_36_writes_numbers(self, tmp_path, capsys):
        path = tmp_path / "strings.txt"
        path.write_text("1Z\n2\n")
        trie_path = tmp_path / "trie.txt"
        code, _, _ = run(capsys, "baire-cluster", str(path), "--base", "40",
                         "--trie-out", str(trie_path))
        assert code == 0
        assert trie_path.read_text() == (
            "(root) [2]\n  1 [1]\n    1,35 [1]  <- s1\n  2 [1]  <- s2\n"
        )

    @pytest.mark.parametrize("flags", [["--exact"], [], ["--full-precision"]],
                             ids=["exact", "float", "full-precision"])
    @pytest.mark.parametrize("name", BAIRE_INPUTS)
    def test_equals_the_pairwise_referee(self, name, flags, tmp_path, capsys):
        text, base = BAIRE_INPUTS[name]
        path = tmp_path / "strings.txt"
        path.write_text(text)
        code, out, err = run(capsys, "baire-dist", str(path), "--base", str(base), *flags)
        assert (code, err) == (0, "")
        strings = formats.read_strings(text, base)
        assert out == baire_dist_by_pairs(strings, "--exact" in flags, "--full-precision" in flags)

    def test_dna_encode(self, tmp_path, capsys):
        path = tmp_path / "seqs.txt"
        path.write_text("probe,ACGT\n")
        code, out, _ = run(capsys, "dna-encode", str(path), "--scheme", "4-adic")
        assert code == 0
        assert out == "probe,0123\n"

    def test_dna_bad_character(self, tmp_path, capsys):
        path = tmp_path / "seqs.txt"
        path.write_text("AXG\n")
        code, _, err = run(capsys, "dna-encode", str(path))
        assert code == 1
        assert err.startswith("E_PARSE:") and "position 2" in err

    @pytest.mark.parametrize("line, error", [
        ("d2,ACXT", "E_PARSE: line 2: invalid nucleotide 'X' at position 3\n"),
        ("d2,", "E_DOMAIN: line 2: empty sequence\n"),
    ], ids=["bad-nucleotide", "empty-sequence"])
    def test_dna_errors_name_their_line(self, tmp_path, capsys, line, error):
        path, out_path = tmp_path / "seqs.txt", tmp_path / "out.txt"
        path.write_text(f"d1,ACGT\n{line}\n")
        assert run(capsys, "dna-encode", str(path), "-o", str(out_path)) == (1, "", error)
        assert not out_path.exists()


@st.composite
def sequence_files(draw):
    """A sequences file: labelled or bare lines over ACGTU in either case,
    then at most one change: CRLF, blank lines, surrounding whitespace, an
    invalid character at a random position or an empty body after a label."""
    names = ["", "d1", "probe"] + ([None] if draw(st.booleans()) else [])
    lines = draw(st.lists(st.tuples(st.sampled_from(names), st.text("ACGTUacgtu", min_size=1, max_size=12)),
                          min_size=1, max_size=8))
    rows = [seq if label is None else f"{label},{seq}" for label, seq in lines]
    change = draw(st.sampled_from([None, None, "crlf", "blank", "space", "invalid", "empty-body"]))
    k = draw(st.integers(0, len(rows) - 1))
    row = rows[k]
    body = row.index(",") + 1 if "," in row else 0
    if change == "invalid":
        at = draw(st.integers(body, len(row)))
        rows[k] = row[:at] + draw(st.sampled_from(["X", "N", "1", "?", " ", "\u00e9", "\u2028"])) + row[at:]
    elif change == "empty-body":
        rows[k] = row[:body] if body else "d9,"
    elif change == "space":
        pad = st.sampled_from([" ", "  ", "\t", "\u00a0"])
        rows[k] = f"{draw(pad)}{row.replace(',', draw(pad) + ',')}{draw(pad)}"
    elif change == "blank":
        rows.insert(k, draw(st.sampled_from(["", " \t"])))
    return ("\r\n" if change == "crlf" else "\n").join(rows) + "\n"


class TestDnaEncodeReferee:
    @pytest.mark.parametrize("scheme", ["5-adic", "4-adic", "2-adic-pairs"])
    @settings(max_examples=200, deadline=None)
    @given(text=sequence_files())
    def test_equals_encode_dna_line_by_line(self, scheme, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seqs.txt"
            path.write_text(text, newline="")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["dna-encode", str(path), "--scheme", scheme])
        expected = dna_encode_by_lines(text, scheme)
        if expected.startswith("E_"):
            assert (code, out.getvalue(), err.getvalue()) == (1, "", expected)
        else:
            assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")

    @pytest.mark.parametrize("scheme", ["5-adic", "4-adic", "2-adic-pairs"])
    def test_plain_text_is_translated_whole(self, scheme, monkeypatch):
        rng = random.Random(scheme)
        text = "".join(f"d{k},{''.join(rng.choices('ACGTUacgtu', k=rng.randint(1, 30)))}\n"
                       for k in range(100))
        expected = dna_encode_by_lines(text, scheme)
        monkeypatch.setattr(formats, "encode_dna", None)  # the line-by-line encoder
        assert "\n".join(formats._dna_lines(text, scheme)) + "\n" == expected


class TestHaarVerbs:
    def test_forward_inverse_round_trip(self, tmp_path, iris_csv, capsys):
        wt = tmp_path / "wt.csv"
        code, _, _ = run(capsys, "haar", str(iris_csv), "--linkage", "median",
                         "-o", str(wt), "--full-precision")
        assert code == 0
        assert (tmp_path / "wt.csv.tree.json").exists()
        back = tmp_path / "back.csv"
        code, _, _ = run(capsys, "haar-inverse", str(wt), "-o", str(back),
                         "--full-precision")
        assert code == 0
        table = formats.read_data_csv(back.read_text())
        assert table.labels == IRIS_LABELS8
        assert np.abs(table.values - IRIS8).max() <= 1e-12

    def test_header_without_corner_cell_names_the_coordinates(self, tmp_path, capsys):
        data, wt = tmp_path / "data.csv", tmp_path / "wt.csv"
        data.write_text("x,y\na,1,2\nb,3,4\nc,5,7\n")
        assert run(capsys, "haar", str(data), "-o", str(wt)) == (0, "", "")
        assert [row[0] for row in csv.reader(io.StringIO(wt.read_text()))] == ["", "x", "y"]

    @pytest.mark.parametrize("header, cells", [("x", 1), ('"x"', 1), ("a,b,c", 3)])
    def test_header_of_another_width_is_refused(self, tmp_path, capsys, header, cells):
        # the bulk reader (plain text) and the cell reader (a quote) alike
        data = tmp_path / "data.csv"
        data.write_text(header + "\n1,2\n3,4\n5,7\n")
        code, out, err = run(capsys, "haar", str(data), "-o", str(tmp_path / "wt.csv"))
        assert (code, out) == (1, "")
        assert err == f"E_PARSE: line 1: expected 2 header names, got {cells}\n"

    def test_denoise_reduces_detail(self, tmp_path, iris_csv, capsys):
        wt = tmp_path / "wt.csv"
        run(capsys, "haar", str(iris_csv), "--linkage", "median", "-o", str(wt))
        out_path = tmp_path / "smooth.csv"
        thin_path = tmp_path / "thin.csv"
        code, _, _ = run(capsys, "haar-denoise", str(wt), "--epsilon", "0.2",
                         "-o", str(out_path), "--transform-out", str(thin_path))
        assert code == 0
        thin = thin_path.read_text()
        # every surviving coefficient is 0 or >= 0.2 in magnitude
        for row in csv.reader(io.StringIO(thin)):
            for cell in row[2:]:
                if cell and not cell[0].isalpha() and cell != "":
                    value = float(cell)
                    assert value == 0.0 or abs(value) >= 0.2


    @pytest.fixture
    def wavelet_tree(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text("".join(formats._tree_json_chunks(random_tree(3, random.Random(7)))))
        return tree

    @pytest.mark.parametrize("verb", [["haar-inverse"], ["haar-denoise", "--epsilon", "0.1"]])
    @pytest.mark.parametrize("table, error", [
        (",s2,d2,d1\nc1,1,2,3\nc2,4,five,6\n",
         "E_PARSE: line 3, column 2: 'five' is not a number\n"),
        (",s2,d2,d1\n\nc1,1,2,3\n\n\nc2,4,five,6\n",
         "E_PARSE: line 6, column 2: 'five' is not a number\n"),
        (",s2,d2,d1\nc1,1,2\n", "E_PARSE: wavelet CSV rows hold 2 values, the tree needs 3\n"),
        (",s2,d2,d1\n", "E_PARSE: wavelet CSV has no coordinate rows\n"),
        (",s2,d2,d1\nc1,inf,0,0\n", "E_DOMAIN: Haar coefficients must be finite"),
        (",s2,d2,d1\nc1,nan,0,0\n", "E_DOMAIN: Haar coefficients must be finite"),
        (",s2,d2,d1\nc1,1e308,1e308,1e308\n",
         "E_DOMAIN: Haar reconstruction overflows the float range\n"),
    ], ids=["word", "word-after-blank-lines", "narrow", "header-only", "inf", "nan", "overflow"])
    def test_bad_wavelet_table_is_one_error_line(self, tmp_path, capsys, wavelet_tree,
                                                 verb, table, error):
        wt = tmp_path / "wt.csv"
        wt.write_text(table)
        out = tmp_path / "out.csv"
        code, stdout, err = run(capsys, *verb, str(wt), "--tree", str(wavelet_tree),
                                "-o", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(error) and err.count("\n") == 1
        assert not out.exists()


class TestExactCellsPastTheDigitLimit:
    """Ints and fractions past Python's 4,300-digit int-to-str limit print
    exactly (``exact_text`` is the referee)."""

    def test_padic_encode_decimals(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text("".join(formats._tree_json_chunks(caterpillar(800, "left"))))
        enc_path, codes = tmp_path / "enc.json", tmp_path / "codes.csv"
        code, _, err = run(capsys, "padic-encode", str(tree), "-p", "1000003",
                           "-o", str(enc_path), "--decimals", str(codes))
        assert (code, err) == (0, "")
        enc = formats.encoding_from_json(enc_path.read_text())
        values = [evaluate_code(c) for c in enc.codes()]
        assert max(len(exact_text(v)) for v in values) > 4300
        expected = csv_table(["label", "code"], enc.labels, [[exact_text(v)] for v in values])
        assert codes.read_text() == expected

    def test_padic_dist(self, tmp_path, capsys):
        # the largest prime below is_prime's bound; only rows 0 and 1 differ
        # from the others at the root level 176, where p^176 has 4,316 digits
        p, n = 3317044064679887385961813, 177
        rows = [[1] * (n - 1), [-1] * (n - 2) + [1]] + [[0] * (n - 2) + [-1]] * (n - 2)
        labels = [f"x{i}" for i in range(n)]
        doc = {"p": p, "n": n, "labels": labels, "C": [c for row in rows for c in row]}
        path = tmp_path / "enc.json"
        path.write_text(json.dumps(doc))
        enc = formats.encoding_from_json(path.read_text())
        table = [[exact_text(v) for v in row] for row in padic_table(enc)]
        assert max(len(cell) for row in table for cell in row) > 2 * 4300
        code, out, err = run(capsys, "padic-dist", str(path))
        assert (code, err) == (0, "")
        assert out == csv_table(["", *labels], labels, table)

    def test_padic_dist_table_past_the_guard(self, tmp_path, capsys):
        # 1 - 1/p^r at p = 1000003 over an 800-leaf caterpillar: about 4 GB of text
        tree = tmp_path / "tree.json"
        tree.write_text("".join(formats._tree_json_chunks(caterpillar(800, "left"))))
        enc_path = tmp_path / "enc.json"
        run(capsys, "padic-encode", str(tree), "-p", "1000003", "-o", str(enc_path))
        code, out, err = run(capsys, "padic-dist", str(enc_path))
        assert (code, out) == (1, "")
        assert err.startswith("E_RESOURCE: the distance table would take ")
        assert err.count("\n") == 1

    def test_baire_dist_table_past_the_guard(self, tmp_path, capsys):
        # 1/10^r with r past 1,100 in each of 10^6 cells: about 1.1 GB of text
        rng = random.Random(11)
        path = tmp_path / "strings.txt"
        path.write_text("".join(f"s{i},{'3' * 1100}{rng.randrange(10**5):05d}\n" for i in range(1000)))
        code, out, err = run(capsys, "baire-dist", str(path), "--exact")
        assert (code, out) == (1, "")
        assert err.startswith("E_RESOURCE: the distance table would take ")
        assert err.count("\n") == 1

    def test_baire_dist_exact(self, tmp_path, capsys):
        digits = "7" * 5000
        path = tmp_path / "strings.txt"
        path.write_text(f"a,{digits}\nb,{digits}\n")
        code, out, err = run(capsys, "baire-dist", str(path), "--exact")
        assert (code, err) == (0, "")
        strings = formats.read_strings(path.read_text(), 10)
        table = [[exact_text(baire_distance(s, t)) for t in strings] for s in strings]
        assert table[0][1] == "1/1" + "0" * 5000
        assert out == csv_table(["", "a", "b"], ["a", "b"], table)


class TestStreamVerbs:
    def test_ordinal(self, stream_csv, capsys):
        code, out, _ = run(capsys, "ordinal", "--order", "2", "--delay", "1",
                           str(stream_csv))
        assert code == 0
        assert out == "012 012 201 102 201\n"

    def test_ordinal_counts(self, stream_csv, capsys):
        code, out, _ = run(capsys, "ordinal", "--order", "2", "--delay", "1",
                           "--counts", str(stream_csv))
        assert code == 0
        assert "classes 012:2 102:1 201:2" in out

    def test_rankperm(self, stream_csv, capsys):
        code, out, _ = run(capsys, "rankperm", str(stream_csv))
        assert code == 0
        assert out == "(1345260)\n"

    def test_stream_too_short(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("1\n2\n")
        code, _, err = run(capsys, "ordinal", "--order", "5", str(path))
        assert code == 1
        assert err.startswith("E_DOMAIN:")


class TestPermutationVerbs:
    def test_packed_unpack_round_trip(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "cluster", str(iris_csv), "--linkage", "median", "-o", str(tree_path))
        code, out, _ = run(capsys, "packed", str(tree_path))
        assert code == 0
        literal = out.strip()
        rebuilt_path = tmp_path / "rebuilt.json"
        code, _, _ = run(capsys, "unpack", literal, "-o", str(rebuilt_path))
        assert code == 0
        code, out2, _ = run(capsys, "packed", str(rebuilt_path))
        assert out2.strip() == literal

    @pytest.mark.parametrize("literal", ["(1,a,3)", "(1²3)", "(12x)", "(١,2)", "(+1,2)", "(١2)"])
    def test_unpack_rejects_non_integers(self, capsys, literal):
        code, out, err = run(capsys, "unpack", literal)
        assert (code, out) == (1, "")
        assert err == f"E_PARSE: cannot parse permutation literal {literal!r}\n"

    def test_unpack_rejects_bad_sentinel(self, capsys):
        code, _, err = run(capsys, "unpack", "(21)")
        assert code == 1
        assert err.startswith("E_UNREALIZABLE:")

    def test_enumerate_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate-nlr", "-n", "5")
        assert code == 0
        assert out.strip() == "5"

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_enumerate_trees_out(self, tmp_path, capsys, n):
        """The tree documents follow one another in increasing packed order."""
        path = tmp_path / "trees.json"
        code, out, _ = run(capsys, "enumerate-nlr", "-n", str(n), "--trees-out", str(path))
        text, decoder, trees = path.read_text(), json.JSONDecoder(), []
        pos = 0
        while pos < len(text):
            end = decoder.raw_decode(text, pos)[1]
            trees.append(formats.tree_from_json(text[pos:end]))
            pos = len(text) - len(text[end:].lstrip())
        assert (code, out) == (0, f"{alternating_count(n - 1)}\n")
        assert len(trees) == alternating_count(n - 1)
        packed = [packed_representation(t).values for t in trees]
        assert all(a < b for a, b in zip(packed, packed[1:]))

    def test_enumerate_guard(self, capsys):
        code, _, err = run(capsys, "enumerate-nlr", "-n", "12")
        assert code == 1
        assert err.startswith("E_RESOURCE:")


class TestCsvLineNumbers:
    @pytest.mark.parametrize("verb, text, error", [
        ("cluster", "1,2\n\n\n3,x\n", "E_PARSE: line 4, column 2: 'x' is not a number\n"),
        ("cluster", "1,2\n\n3\n", "E_PARSE: line 3: expected 2 cells, got 1\n"),
        ("lattice", ",d1,d2\na,1,0\n\n\nb,0,x\n", "E_PARSE: line 5: non-boolean cell\n"),
        ("lattice", ",a,b\nx,1,0\n\ny,2,1\n", "E_PARSE: line 4: non-boolean cell\n"),
        ("lattice", ",a,b\nx,1,0\n\ny,1\n", "E_PARSE: line 4: expected 2 cells, got 1\n"),
    ], ids=["cluster-cell", "cluster-width", "lattice-cell", "lattice-value", "lattice-width"])
    def test_blank_lines_count(self, tmp_path, capsys, verb, text, error):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert run(capsys, verb, str(path)) == (1, "", error)


class TestLatticeVerb:
    def test_semilattice_json(self, fca_csv, capsys):
        code, out, _ = run(capsys, "lattice", str(fca_csv))
        assert code == 0
        doc = json.loads(out)
        levels = {tuple(v["subset"]): v["level"] for v in doc["vertices"]}
        assert levels[("d1", "d2", "d3")] == 3

    def test_clusters_at_level(self, fca_csv, capsys):
        code, out, _ = run(capsys, "lattice", str(fca_csv), "--level", "2")
        assert code == 0
        assert out == "a,b,c,f\na,c,e\n"

    def test_text_output(self, fca_csv, capsys):
        code, out, _ = run(capsys, "lattice", str(fca_csv), "--text")
        assert code == 0
        assert "Level" in out


class TestCloudAndReport:
    def test_gen_cloud_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen-cloud", "-n", "5", "--dim", "3", "--seed", "9", "-o", str(a))
        run(capsys, "gen-cloud", "-n", "5", "--dim", "3", "--seed", "9", "-o", str(b))
        assert a.read_text() == b.read_text()

    def test_ultrametricity_report(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        run(capsys, "gen-cloud", "-n", "20", "--dim", "4", "--seed", "2", "-o", str(cloud))
        code, out, _ = run(capsys, "ultrametricity", str(cloud), "--data",
                           "--sample", "100", "--seed", "3", "--tol", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["coefficient"] <= 1.0
        assert doc["sampled"] == 100


class TestParameterDomains:
    """NaN passes every ``x < 0`` test, so each numeric parameter is
    checked as ``not x >= 0``: a NaN flag is one ``E_DOMAIN`` line."""

    MATRIX = ",a,b,c\na,0,1,3\nb,1,0,1\nc,3,1,0\n"  # d(a,c) = 3 > max(1, 1)

    def refused(self, capsys, *argv) -> str:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("E_DOMAIN: ") and err.count("\n") == 1
        return err

    def test_verify_um_nan_tolerance_was_a_silent_wrong_answer(self, tmp_path, capsys):
        # at --tol nan every comparison failed, and the violated triple
        # went unlisted with exit 0
        matrix = tmp_path / "m.csv"
        matrix.write_text(self.MATRIX)
        code, out, _ = run(capsys, "verify-um", str(matrix), "--tol", "0")
        assert (code, out) == (1, "i,j,k,lhs,rhs\n1,2,3,3,1\n")
        err = self.refused(capsys, "verify-um", str(matrix), "--tol", "nan")
        assert err == "E_DOMAIN: tolerance must be nonnegative\n"

    @pytest.mark.parametrize("verb", ["ultrametricity", "canonical"])
    def test_nan_tolerance(self, verb, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a,b,c\na,0,1,2\nb,1,0,2\nc,2,2,0\n")  # ultrametric
        err = self.refused(capsys, verb, str(matrix), "--tol", "nan")
        assert err == "E_DOMAIN: tolerance must be nonnegative\n"

    def test_nan_epsilon(self, tmp_path, iris_csv, capsys):
        wt = tmp_path / "wt.csv"
        run(capsys, "haar", str(iris_csv), "-o", str(wt))
        err = self.refused(capsys, "haar-denoise", str(wt), "--epsilon", "nan")
        assert err == "E_DOMAIN: epsilon must be nonnegative\n"

    def test_report_json_is_strict(self, tmp_path, capsys):
        # an infinite tolerance is a valid parameter, but strict JSON has no
        # infinity to write it as
        matrix = tmp_path / "m.csv"
        matrix.write_text(self.MATRIX)
        code, out, _ = run(capsys, "ultrametricity", str(matrix), "--tol", "1e308")
        assert code == 0 and json.loads(out)["tolerance"] == 1e308
        self.refused(capsys, "ultrametricity", str(matrix), "--tol", "inf")

    def test_negative_seed(self, tmp_path, capsys):
        # gen-cloud ended in numpy's ValueError traceback; random.Random,
        # which ultrametricity samples with, takes any int
        err = self.refused(capsys, "gen-cloud", "-n", "2", "--dim", "2", "--seed", "-1")
        assert err == "E_DOMAIN: seed must be nonnegative\n"
        matrix = tmp_path / "m.csv"
        matrix.write_text(self.MATRIX)
        code, out, _ = run(capsys, "ultrametricity", str(matrix), "--seed", "-1")
        assert code == 0 and json.loads(out)["seed"] == -1

    @pytest.mark.parametrize("verb", ["baire-dist", "baire-cluster"])
    def test_base_is_checked_before_the_digits(self, verb, tmp_path, capsys):
        # it used to read as "E_PARSE: line 1: invalid base-0 digit '1' at position 1"
        path = tmp_path / "strings.txt"
        path.write_text("1\n2\n")
        err = self.refused(capsys, verb, str(path), "--base", "0")
        assert err == "E_DOMAIN: base must be at least 2\n"

    def test_gen_cloud_past_the_guard(self, tmp_path, capsys):
        out_path = tmp_path / "cloud.csv"
        code, out, err = run(capsys, "gen-cloud", "-n", "1000000000", "--dim", "1000",
                             "-o", str(out_path))
        assert (code, out) == (1, "")
        assert err == ("E_RESOURCE: the point cloud would take 8000000000000 bytes, "
                       f"past the guard ({errors._TABLE_GUARD})\n")
        assert not out_path.exists()


class TestNonFiniteData:
    @pytest.mark.parametrize(
        "rows", ["1,inf\n2,3\n0,1\n", "1e308,0\n-1e308,0\n0,1\n"], ids=["inf", "overflow"]
    )
    @pytest.mark.parametrize(
        "verb", [["cluster"], ["haar"], ["ultrametricity", "--data"]], ids=lambda v: v[0]
    )
    def test_single_domain_error_line(self, tmp_path, capsys, rows, verb):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        code, out, err = run(capsys, *verb, str(data), "-o", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("E_DOMAIN:") and err.count("\n") == 1
        assert "height" not in err

    def test_ward_criterion_overflow(self, tmp_path, capsys):
        # distances are finite, but the Lance-Williams update overflows
        data = tmp_path / "data.csv"
        data.write_text("0,0\n6e153,0\n-6e153,0\n0,6e153\n")
        code, _, err = run(capsys, "cluster", str(data), "--linkage", "ward")
        assert code == 1
        assert err.startswith("E_DOMAIN:") and err.count("\n") == 1
        assert "overflows the float range" in err

    def test_haar_overflow(self, tmp_path, capsys):
        # equal rows are at distance 0, but their smooths overflow
        data = tmp_path / "data.csv"
        data.write_text("1e308,1e308\n1e308,1e308\n1e308,1e308\n")
        code, _, err = run(capsys, "haar", str(data), "-o", str(tmp_path / "wt.csv"))
        assert code == 1
        assert err.startswith("E_DOMAIN:") and err.count("\n") == 1
        assert not (tmp_path / "wt.csv").exists()

    @pytest.mark.parametrize("verb", ["verify-um", "canonical", "ultrametricity"])
    def test_infinite_matrix_entries(self, tmp_path, capsys, verb):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a,b,c\na,0,inf,1\nb,inf,0,1\nc,1,1,0\n")
        code, out, err = run(capsys, verb, str(matrix))
        assert code == 1
        assert out == ""
        assert err == "E_DOMAIN: matrix contains infinite values\n"


class TestUltrametricityData:
    """``ultrametricity --data`` measures only the sampled sides, but refuses
    data with the lines, in the order, that building the table gave."""

    @pytest.mark.parametrize("rows, sample, line", [
        ("1,2\n", "5", "E_DEGENERATE: need at least two observations"),
        ("1,2\n3,4\n", "5", "E_DEGENERATE: need at least three objects to sample triangles"),
        ("1,2\n3,4\n", "0", "E_DEGENERATE: need at least three objects to sample triangles"),
        ("1,nan\n3,4\n", "5", "E_DOMAIN: data contains missing values"),
        ("nan,inf\n3,4\n0,1\n", "0", "E_DOMAIN: data contains missing values"),
        ("1,inf\n3,4\n0,1\n", "0", "E_DOMAIN: data contains infinite values"),
        ("1,-inf\n3,4\n", "5", "E_DOMAIN: data contains infinite values"),
        ("1e308,0\n-1e308,0\n", "0", "E_DOMAIN: pairwise distances overflow the float range"),
        ("0,0\n1,0\n0,1\n5,5\n", "0", "E_DOMAIN: sample must be at least 1"),
        # the pair past the float range is the last; a sample of 1 misses it
        ("".join(f"{i},0\n" for i in range(40)) + "1e308,0\n-1e308,0\n", "1",
         "E_DOMAIN: pairwise distances overflow the float range"),
    ])
    def test_error_lines(self, tmp_path, capsys, rows, sample, line):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        code, out, err = run(capsys, "ultrametricity", str(data), "--data", "--sample", sample)
        assert (code, out, err) == (1, "", line + "\n")

    def test_large_cloud_in_bounded_memory(self, tmp_path):
        """20,000 points under a 512 MiB address-space cap: their distance
        table alone would take 3.2 GB."""
        data = tmp_path / "cloud.csv"
        cloud = np.random.default_rng(29).random((20_000, 2))
        data.write_text("".join(f"{a!r},{b!r}\n" for a, b in cloud.tolist()))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from dendrocode.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = ["ultrametricity", str(data), "--data", "--sample", "2000", "--seed", "3"]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": src,
                                                  "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["sampled"] == 2000


class TestRenderVerb:
    def test_render_idempotent(self, tmp_path, iris_csv, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "cluster", str(iris_csv), "-o", str(tree_path))
        code, first, _ = run(capsys, "render", str(tree_path))
        assert code == 0
        _, second, _ = run(capsys, "render", str(tree_path))
        assert first == second

    def test_malformed_tree_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "render", str(bad))
        assert code == 1
        assert err.startswith("E_PARSE:") and "line" in err
        # well-formed JSON whose node list is not a list of ranked objects
        for nodes in ('[1]', '5', '[{"rank": "x", "height": 1.0, "left": "t1", "right": "t2"}]'):
            bad.write_text('{"labels": ["a", "b"], "nodes": ' + nodes + "}")
            code, _, err = run(capsys, "render", str(bad))
            assert code == 1
            assert err.startswith("E_PARSE:") and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_method_flag_removed(self, iris_csv, capsys):
        # one builder serves every linkage; there is nothing to select
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", str(iris_csv), "--method", "greedy"])
        assert excinfo.value.code == 2

    def test_no_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


# each verb with its required arguments; the first group prints floats
FLOAT_VERBS = [
    ["cluster", "x.csv"], ["cophenetic", "t.json"], ["verify-um", "m.csv"],
    ["canonical", "m.csv"], ["baire-dist", "s.txt"], ["baire-cluster", "s.txt"],
    ["haar", "x.csv"], ["haar-inverse", "w.csv"], ["haar-denoise", "w.csv", "--epsilon", "1"],
    ["gen-cloud", "-n", "3", "--dim", "2"], ["render", "t.json"],
]
EXACT_VERBS = [
    ["padic-encode", "t.json"], ["padic-decode", "e.json"], ["padic-dist", "e.json"],
    ["dna-encode", "s.txt"], ["ordinal", "s.csv", "--order", "3"], ["rankperm", "s.csv"],
    ["packed", "t.json"], ["unpack", "(12)"], ["lattice", "b.csv"], ["ultrametricity", "m.csv"],
]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


class TestFullPrecisionFlag:
    """Only the verbs that print floats take ``--full-precision``."""

    @pytest.mark.parametrize("argv", FLOAT_VERBS, ids=lambda argv: argv[0])
    def test_float_verbs_accept_it(self, argv):
        assert build_parser().parse_args(argv).full_precision is False
        assert build_parser().parse_args([*argv, "--full-precision"]).full_precision is True

    @pytest.mark.parametrize("argv", EXACT_VERBS, ids=lambda argv: argv[0])
    def test_other_verbs_exit_2(self, argv, capsys):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--full-precision"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --full-precision" in capsys.readouterr().err

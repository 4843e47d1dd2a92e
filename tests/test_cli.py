from __future__ import annotations

import csv
import io
import json
import random

import numpy as np
import pytest

from dendrocode.cli import main
from dendrocode import formats
from dendrocode.baire import baire_distance
from dendrocode.hierarchy import Dendrogram
from dendrocode.padic import encode_dendrogram, evaluate_code

from conftest import caterpillar, random_tree
from oracles import csv_table, exact_text, padic_table
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
        m = formats.write_matrix_csv(
            __import__("dendrocode").pairwise_distances(IRIS8, labels=IRIS_LABELS8),
            full_precision=True,
        )
        path = tmp_path / "raw.csv"
        path.write_text(m)
        code, out, err = run(capsys, "verify-um", str(path))
        assert code == 1
        assert err.startswith("E_ULTRAMETRIC:")
        assert len(out.strip().splitlines()) > 1

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
            text = formats.encoding_to_json(encode_dendrogram(Dendrogram(labels, tree.nodes), 5))
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
        tree.write_text(formats.tree_to_json(random_tree(3, random.Random(7))))
        return tree

    @pytest.mark.parametrize("verb", [["haar-inverse"], ["haar-denoise", "--epsilon", "0.1"]])
    @pytest.mark.parametrize("table, error", [
        (",s2,d2,d1\nc1,1,2,3\nc2,4,five,6\n",
         "E_PARSE: line 3, column 2: 'five' is not a number\n"),
        (",s2,d2,d1\nc1,1,2\n", "E_PARSE: wavelet CSV rows hold 2 values, the tree needs 3\n"),
        (",s2,d2,d1\n", "E_PARSE: wavelet CSV has no coordinate rows\n"),
        (",s2,d2,d1\nc1,inf,0,0\n", "E_DOMAIN: Haar coefficients must be finite"),
        (",s2,d2,d1\nc1,nan,0,0\n", "E_DOMAIN: Haar coefficients must be finite"),
        (",s2,d2,d1\nc1,1e308,1e308,1e308\n",
         "E_DOMAIN: Haar reconstruction overflows the float range\n"),
    ], ids=["word", "narrow", "header-only", "inf", "nan", "overflow"])
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
        tree.write_text(formats.tree_to_json(caterpillar(800, "left")))
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
        tree.write_text(formats.tree_to_json(caterpillar(800, "left")))
        enc_path = tmp_path / "enc.json"
        run(capsys, "padic-encode", str(tree), "-p", "1000003", "-o", str(enc_path))
        code, out, err = run(capsys, "padic-dist", str(enc_path))
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

    @pytest.mark.parametrize("literal", ["(1,a,3)", "(1²3)", "(12x)"])
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

    def test_enumerate_guard(self, capsys):
        code, _, err = run(capsys, "enumerate-nlr", "-n", "12")
        assert code == 1
        assert err.startswith("E_RESOURCE:")


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

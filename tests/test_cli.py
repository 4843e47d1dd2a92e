from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from dendrocode.cli import main
from dendrocode import formats

from reference import FCA_ATTRIBUTES, FCA_CELLS, FCA_OBJECTS, IRIS8, IRIS_LABELS8


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

    def test_no_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

"""Deep trees: every tree walk keeps its own stack, so caterpillars far deeper
than the recursion limit convert like any other tree."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dendrocode import formats
from dendrocode.cli import main
from dendrocode.haar import haar_forward, haar_inverse
from dendrocode.hierarchy import Dendrogram, DissimilarityMatrix
from dendrocode.padic import decode, encode_dendrogram, evaluate_code
from dendrocode.permutations import packed_representation, unpack
from dendrocode.render import render_tree
from dendrocode.ultrametric import canonical_form, check_canonical_form, cophenetic_matrix

from conftest import caterpillar, random_tree

DEEP = 20_000
CLI_DEEP = 2_000


def caterpillar_newick(n: int, lean: str) -> str:
    if lean == "left":
        body = "(" * (n - 1) + "t1:1,t2:1)" + "".join(f":1,t{r + 1}:{r})" for r in range(2, n))
    else:
        body = "".join(f"(t{r + 1}:{r}," for r in range(n - 1, 1, -1)) + "(t1:1,t2:1)" + ":1)" * (n - 2)
    return f"{body}[height={n - 1}];\n"


def integer_haar_data(n: int, seed: int = 5) -> np.ndarray:
    """Rows whose Haar smooths and details along either caterpillar are small
    integers, so the round trip is exact whatever the depth: with s the
    smooth of rank r, terminal r holds 2*s(r) - s(r-1)."""
    rng = np.random.default_rng(seed)
    s = rng.integers(-1000, 1000, size=(n, 2)).astype(float)  # s[r]: smooth of rank r
    d1 = rng.integers(-1000, 1000, size=2).astype(float)
    data = np.empty((n, 2))
    data[0], data[1] = s[1] + d1, s[1] - d1
    data[2:] = 2.0 * s[2:] - s[1:-1]
    return data


@pytest.fixture(scope="module", params=["left", "right"])
def deep(request) -> tuple[str, Dendrogram]:
    return request.param, caterpillar(DEEP, request.param)


class TestDeepCaterpillar:
    def test_terminal_order(self, deep):
        lean, tree = deep
        if lean == "left":
            expected = tuple(range(DEEP))
        else:
            expected = tuple(range(DEEP - 1, 1, -1)) + (0, 1)
        assert tree.terminal_order() == expected

    def test_newick(self, deep):
        lean, tree = deep
        assert "".join(formats._newick_chunks(tree)) == caterpillar_newick(DEEP, lean)

    def test_packed_unpack_round_trip(self, deep):
        _, tree = deep
        perm = packed_representation(tree)
        assert perm.values == tuple(range(1, DEEP + 1))
        assert packed_representation(unpack(perm)) == perm

    def test_haar_round_trip_is_exact(self, deep):
        _, tree = deep
        data = integer_haar_data(DEEP)
        assert np.array_equal(haar_inverse(haar_forward(tree, data)), data)

    def test_render(self):
        # the drawing has O(n^2) characters, so this one stays at n=2000
        out = render_tree(caterpillar(CLI_DEEP, "left"))
        lines = out.splitlines()
        assert len(lines) == 2 * CLI_DEEP - 1
        assert sum(" h=" in line for line in lines) == CLI_DEEP - 1
        assert lines[0].startswith("t2000 ")


def test_canonical_form_of_twin_caterpillars():
    # two equal 1200-leaf chains joined at height 1200: ordering the root's
    # children compares their subtree codes 1199 levels deep
    half = 1200
    chain = cophenetic_matrix(caterpillar(half, "left")).values
    values = np.full((2 * half, 2 * half), float(half))
    values[:half, :half] = values[half:, half:] = chain
    perm, canon = canonical_form(DissimilarityMatrix(values))
    # a bare terminal's code is the smallest, so each chain reads outside in
    first = list(range(half - 1, 1, -1)) + [0, 1]
    assert perm == tuple(first + [half + i for i in first])
    assert check_canonical_form(canon.values) is None


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory):
    """An n=2000 caterpillar as tree JSON plus its full-precision wavelet table."""
    root = tmp_path_factory.mktemp("deep")
    tree = caterpillar(CLI_DEEP, "right")
    data = integer_haar_data(CLI_DEEP)
    tree_path = root / "tree.json"
    tree_path.write_text("".join(formats._tree_json_chunks(tree)))
    wt_path = root / "wt.csv"
    wt_path.write_text("".join(formats._haar_chunks(haar_forward(tree, data), full_precision=True)))
    (root / "wt.csv.tree.json").write_text("".join(formats._tree_json_chunks(tree)))
    return root, tree, data


class TestDeepCli:
    def test_packed_and_unpack(self, deep_files, capsys):
        root, _, _ = deep_files
        code, out, err = run(capsys, "packed", str(root / "tree.json"))
        literal = "(" + ",".join(str(v) for v in range(1, CLI_DEEP + 1)) + ")"
        assert (code, out, err) == (0, literal + "\n", "")
        code, out, err = run(capsys, "unpack", literal)
        assert code == 0 and err == ""
        assert packed_representation(formats.tree_from_json(out)).text() == literal

    def test_haar_inverse(self, deep_files, capsys):
        root, tree, data = deep_files
        code, out, err = run(capsys, "haar-inverse", str(root / "wt.csv"), "--full-precision")
        assert code == 0 and err == ""
        assert out == "".join(formats._data_chunks(data, tree.labels, ("c1", "c2"), full_precision=True))

    def test_haar_denoise(self, deep_files, capsys):
        root, tree, _ = deep_files
        code, out, err = run(capsys, "haar-denoise", str(root / "wt.csv"), "--epsilon", "inf",
                             "--full-precision")
        assert code == 0 and err == ""
        rows = formats.read_data_csv(out).values
        assert len(rows) == CLI_DEEP
        assert np.array_equal(rows, np.tile(rows[0], (CLI_DEEP, 1)))

    def test_render(self, deep_files, capsys):
        root, _, _ = deep_files
        code, out, err = run(capsys, "render", str(root / "tree.json"))
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2 * CLI_DEEP - 1


class TestDeepBaire:
    def test_identical_strings(self, tmp_path, capsys):
        strings = tmp_path / "same.txt"
        strings.write_text("12345\n" * 3000)
        nwk, trie = tmp_path / "t.nwk", tmp_path / "trie.txt"
        code, out, err = run(capsys, "baire-cluster", str(strings), "--newick", str(nwk),
                             "--trie-out", str(trie))
        assert code == 0 and err == ""
        assert len(formats.tree_from_json(out).nodes) == 2999
        assert nwk.read_text().startswith("(" * 2999 + "s1:1e-05,s2:1e-05)")
        dump = trie.read_text().splitlines()
        assert len(dump) == 6
        assert dump[-1].startswith("          12345 [3000]  <- s1, s2, ")

    def test_long_shared_prefix(self, tmp_path, capsys):
        strings = tmp_path / "long.txt"
        strings.write_text("0" * 3000 + "1\n" + "0" * 3000 + "2\n")
        nwk, trie = tmp_path / "t.nwk", tmp_path / "trie.txt"
        code, out, err = run(capsys, "baire-cluster", str(strings), "--newick", str(nwk),
                             "--trie-out", str(trie))
        assert code == 0 and err == ""
        assert len(formats.tree_from_json(out).nodes) == 1
        assert nwk.read_text() == "(s1:0,s2:0)[height=0];\n"
        dump = trie.read_text().splitlines()
        assert len(dump) == 3003
        assert dump[-1] == "  " * 3001 + "0" * 3000 + "2 [1]  <- s2"


class TestDeepPadic:
    """The p-adic verbs cost O(n * depth) plus their output, so a deep
    caterpillar converts like a shallow random tree."""

    @pytest.mark.parametrize("shape", ["caterpillar", "random"])
    def test_encode_decode_round_trip(self, tmp_path, capsys, shape):
        if shape == "caterpillar":
            tree = caterpillar(CLI_DEEP, "right")
        else:
            tree = random_tree(CLI_DEEP, random.Random(7), heights="rank")
        tree_path, enc_path, codes_path = tmp_path / "tree.json", tmp_path / "enc.json", tmp_path / "codes.csv"
        tree_path.write_text("".join(formats._tree_json_chunks(tree)))
        code, out, err = run(capsys, "padic-encode", str(tree_path), "-o", str(enc_path),
                             "--decimals", str(codes_path))
        assert (code, out, err) == (0, "", "")
        code, out, err = run(capsys, "padic-decode", str(enc_path))
        assert code == 0 and err == ""
        assert formats.tree_from_json(out) == tree  # the heights are already the ranks
        lines = codes_path.read_text().splitlines()
        values = [int(line.rpartition(",")[2]) for line in lines[1:]]
        assert len(set(values)) == CLI_DEEP
        enc = encode_dendrogram(tree, 3)
        for i in (0, 1, CLI_DEEP // 2, CLI_DEEP - 1):
            assert values[i] == evaluate_code(enc.code(i))

    def test_distance_matrix(self, tmp_path, capsys):
        n = 400
        tree = random_tree(n, random.Random(8), heights="rank")
        path = tmp_path / "enc.json"
        path.write_text("".join(formats._encoding_json_chunks(encode_dendrogram(tree, 3))))
        code, out, err = run(capsys, "padic-dist", str(path))
        assert code == 0 and err == ""
        # with rank heights the cophenetic matrix holds the rank of each
        # lowest common ancestor
        ranks = cophenetic_matrix(tree).values.astype(int)
        dense = formats._dense_levels(ranks, lambda r: 1 - Fraction(1, 3**r))
        assert out == "".join(formats._level_table_chunks(tree.labels, *dense))

    def test_decoding_in_bounded_memory(self):
        """The canonical reader holds the int8 matrix and about 1 MB of text
        at a time: decoding the n=1500 caterpillar's encoding peaks below
        half the text's length.  ``json.loads`` of the whole text built a
        list of its 2,247,000 coefficients, past the text's length."""
        tree = caterpillar(1500, "left")
        text = "".join(formats._encoding_json_chunks(encode_dendrogram(tree, 3)))
        tracemalloc.start()
        try:
            back = decode(formats.encoding_from_json(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == tree
        assert peak < 0.5 * len(text), (peak, len(text))

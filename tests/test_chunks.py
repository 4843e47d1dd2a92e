"""Referee for the streamed writers: every large output is written as a
generator of pieces (rows, node records, tokens, lines), which the one
writer, ``cli._write``, joins into blocks of about ``errors._CHUNK``
characters; a caller that wants one string joins the pieces, as
``render_tree`` and ``PrefixHierarchy.dump_text`` do.  What the writer
writes must equal, byte for byte, the output of the whole-string writer
each generator replaced (``tests/oracles.py``), with blocks of the usual
size and with blocks so small that every piece ends one.  The
level-table verbs size their tables from the tree, so the counts they read
off it must equal the counts of the built table."""

from __future__ import annotations

import itertools
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode import cli, errors, formats
from dendrocode.baire import BaireString, baire_cluster, digitize_reals
from dendrocode.cli import main
from dendrocode.hierarchy import Dendrogram, gap_counts, gap_levels
from dendrocode.padic import encode_dendrogram
from dendrocode.render import _render_chunks, render_tree
from dendrocode.ultrametric import cophenetic_matrix

import oracles
from conftest import TREE_KINDS, make_tree

CHUNKS = st.sampled_from([1, 64, errors._CHUNK])


def _counts(levels: np.ndarray) -> dict[int, int]:
    distinct, counts = np.unique(levels, return_counts=True)
    return dict(zip(distinct.tolist(), counts.tolist()))


def _same(got: str, want: str) -> None:
    """``got == want``, or an error naming the first difference: a diff of
    two long texts would take minutes on each example hypothesis shrinks."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"texts differ at {at} (lengths {len(got)}, {len(want)}): "
                             f"{got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def _tree(n: int, kind: str, seed: int) -> Dendrogram:
    """``make_tree``, or the one-terminal tree when n is 1."""
    return make_tree(n, kind, random.Random(seed)) if n > 1 else Dendrogram(("t 1",), ())


def _written(*texts) -> list[str]:
    """What ``cli._write`` writes of each of ``texts``, each to a file of
    its own."""
    with tempfile.TemporaryDirectory() as folder:
        paths = [str(Path(folder, str(i))) for i in range(len(texts))]
        assert cli._write(list(zip(paths, texts))) == 0
        return [Path(path).read_bytes().decode() for path in paths]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=9), max_size=40), st.integers(1, 30))
def test_blocks_join_whole_pieces_until_the_chunk_size(pieces, chunk):
    """The writer's blocks join to the pieces, and no block splits a piece.
    Every block but the last holds at least ``_CHUNK`` characters and ends
    with the first piece that brings it there.  A str is one block."""
    with mock.patch.object(errors, "_CHUNK", chunk):
        blocks = list(cli._blocks(iter(pieces)))
        assert list(cli._blocks("".join(pieces))) == ["".join(pieces)]
    assert "".join(blocks) == "".join(pieces)
    ends = sorted(set(itertools.accumulate(map(len, pieces), initial=0)))
    start = 0
    for i, block in enumerate(blocks):
        stop = start + len(block)
        assert stop in ends
        if i < len(blocks) - 1:
            assert len(block) >= chunk
            assert ends[ends.index(stop) - 1] - start < chunk  # where its last piece starts
        start = stop


def _match_through_the_writer(chunk: int, writers: list) -> None:
    """For each ``(pieces, want)``: what ``cli._write`` writes of
    ``pieces`` with blocks of ``chunk`` characters is ``want``."""
    with mock.patch.object(errors, "_CHUNK", chunk):
        written = _written(*(pieces for pieces, _ in writers))
    for got, (_, want) in zip(written, writers):
        _same(got, want)


def _verb(argv: list[str], inputs: dict[str, str]) -> tuple[int, str]:
    """Exit code and output text of one verb, its inputs named as in
    ``inputs`` and its output at ``out``."""
    with tempfile.TemporaryDirectory() as folder:
        for name, text in inputs.items():
            Path(folder, name).write_text(text)
        code = main([str(Path(folder, arg)) if arg in (*inputs, "out") else arg for arg in argv])
        out = Path(folder, "out")
        return code, out.read_text() if out.exists() else None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.sampled_from(TREE_KINDS), st.integers(0, 2**32), CHUNKS,
       st.booleans())
def test_tree_writers_match_the_whole_string_writers(n, kind, seed, chunk, full_precision):
    tree = _tree(n, kind, seed)
    enc = encode_dendrogram(tree, 3)
    m = cophenetic_matrix(tree)
    drawing = oracles.render_whole(tree, full_precision)
    _match_through_the_writer(chunk, [
        (formats._tree_json_chunks(tree), oracles.tree_json_whole(tree)),
        (formats._newick_chunks(tree, full_precision), oracles.newick_whole(tree, full_precision)),
        (_render_chunks(tree, full_precision), drawing),
        (formats._encoding_json_chunks(enc), oracles.encoding_json_whole(enc)),
        (formats._matrix_chunks(m, full_precision), oracles.matrix_csv_whole(m, full_precision)),
    ])
    _same(render_tree(tree, full_precision), drawing)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.sampled_from(TREE_KINDS), st.integers(0, 2**32), CHUNKS,
       st.booleans())
def test_level_table_verbs_match_the_whole_tables(n, kind, seed, chunk, full_precision):
    """``cophenetic`` writes the rank table of the drawing, sized from the
    tree, with each rank's height: the text of the float matrix."""
    tree = _tree(n, kind, seed)
    enc = encode_dendrogram(tree, 3)
    precision = ["--full-precision"] if full_precision else []
    with mock.patch.object(errors, "_CHUNK", chunk):
        code, text = _verb(["cophenetic", "tree", "-o", "out", *precision],
                           {"tree": "".join(formats._tree_json_chunks(tree))})
        assert code == 0
        _same(text, oracles.matrix_csv_whole(cophenetic_matrix(tree), full_precision))
        code, text = _verb(["padic-dist", "enc", "-o", "out"],
                           {"enc": "".join(formats._encoding_json_chunks(enc))})
        rows = [[oracles.exact_text(d) for d in row] for row in oracles.padic_table(enc)]
        assert code == 0
        _same(text, oracles.csv_table(["", *enc.labels], enc.labels, rows))


@pytest.mark.parametrize("n", [256, 257, 300])
@pytest.mark.parametrize("kind", ["random", "left", "tied"])
def test_cophenetic_past_one_byte_of_ranks(n, kind, rng):
    """Ranks past 255 take a two-byte table."""
    tree = make_tree(n, kind, rng)
    code, text = _verb(["cophenetic", "tree", "-o", "out"],
                       {"tree": "".join(formats._tree_json_chunks(tree))})
    assert code == 0
    _same(text, oracles.matrix_csv_whole(cophenetic_matrix(tree)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 10, 40, 2**70]), st.integers(1, 30), st.integers(1, 12),
       st.integers(0, 2**32), CHUNKS)
def test_prefix_trees_match_the_whole_string_writers(base, n, width, seed, chunk):
    """Strings cut from a few shared stems, some equal, some under one
    label, so prefixes are shared and runs end together."""
    rng = random.Random(seed)
    stems = [[rng.randrange(base) for _ in range(width)] for _ in range(rng.randint(1, 3))]
    strings = [BaireString(base, tuple(rng.choice(stems)[: rng.randint(1, width)]),
                           rng.choice(["a", "b", None])) for _ in range(n)]
    hierarchy, tree = baire_cluster(strings)
    dump = oracles.dump_whole(hierarchy)
    _match_through_the_writer(chunk, [
        (hierarchy._dump_chunks(), dump),
        (formats._tree_json_chunks(hierarchy._tree_columns()), oracles.tree_json_whole(tree)),
        (formats._newick_chunks(hierarchy._tree_columns()), oracles.newick_whole(tree)),
    ])
    _same(hierarchy.dump_text(), dump)
    pos, gaps = hierarchy._level_gaps()
    assert gap_counts(pos, gaps) == _counts(gap_levels(pos, gaps))


@pytest.mark.parametrize("base, digits", [(2, 6), (10, 6), (2, 130)])
def test_baire_dist_matches_the_whole_table(base, digits):
    """130 digits take a two-byte level table."""
    rng = random.Random(base)
    reals = [rng.choice([0.5, 0.25, rng.random()]) for _ in range(25)]
    text = "".join(f"{s.label},{s.text()}\n" for s in digitize_reals(reals, digits, base))
    for exact in (False, True):
        code, out = _verb(["baire-dist", "s", "--base", str(base), "-o", "out",
                           *(["--exact"] if exact else [])], {"s": text})
        assert code == 0
        _same(out, oracles.baire_dist_by_pairs(formats.read_strings(text, base), exact))


@pytest.mark.parametrize("exact", [False, True])
def test_baire_dist_of_equal_digits_under_labels_a_b_a(exact):
    """The two strings under label a are at distance 0 and share a
    position; the one under b lies between them in sorted order."""
    text = "a,123\nb,123\na,123\nc,12\na,124\nb,123\n"
    code, out = _verb(["baire-dist", "s", "-o", "out", *(["--exact"] if exact else [])], {"s": text})
    assert code == 0
    _same(out, oracles.baire_dist_by_pairs(formats.read_strings(text, 10), exact))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14), st.integers(0, 4), st.integers(0, 2**32))
def test_gap_counts_are_the_counts_of_the_table(n, top, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, top + 1, max(n - 1, 0))
    pos = rng.permutation(n)
    assert gap_counts(pos, gaps) == _counts(gap_levels(pos, gaps))


def test_encoding_counts_are_the_counts_of_the_table(rng):
    from conftest import encoding_sweep

    for enc in encoding_sweep(3, rng):
        assert gap_counts(*enc._level_gaps()) == _counts(enc.differing_levels())


def test_drawing_counts_are_the_counts_of_the_rank_table(rng):
    for kind in TREE_KINDS:
        tree = make_tree(40, kind, rng)
        order, gap, _, _ = tree._drawing
        pos, ranks = np.argsort(order), np.argsort(gap) + 1
        assert gap_counts(pos, ranks) == _counts(gap_levels(pos, ranks))


@pytest.mark.parametrize("verb", ["cophenetic", "padic-dist", "baire-dist"])
def test_level_tables_are_sized_before_they_are_built(verb, rng, capsys):
    """Past the guard, each level-table verb is one E_RESOURCE line and
    writes nothing; the table builder is never called."""
    tree = make_tree(30, "random", rng)
    inputs = {"cophenetic": "".join(formats._tree_json_chunks(tree)),
              "padic-dist": "".join(formats._encoding_json_chunks(encode_dendrogram(tree, 3))),
              "baire-dist": "".join(f"s{i},{i:05d}\n" for i in range(30))}
    with (mock.patch("dendrocode.errors._TABLE_GUARD", 100),
          mock.patch("dendrocode.cli.gap_levels", side_effect=AssertionError)):
        code, out = _verb([verb, "in", "-o", "out"], {"in": inputs[verb]})
    err = capsys.readouterr().err
    assert (code, out) == (1, None)
    assert err.startswith("E_RESOURCE: the distance table would take ") and err.count("\n") == 1


def _data(n: int, kind: str) -> tuple[np.ndarray, str]:
    """Data whose agglomerated tree is random, tied, or a caterpillar under
    single linkage (points whose gaps grow left to right), and the linkage."""
    rng = np.random.default_rng(n)
    if kind == "random":
        return rng.random((n, 3)), "complete"
    if kind == "tied":
        return rng.integers(0, 3, (n, 2)).astype(float), "complete"
    return np.cumsum(np.arange(n, dtype=float))[:, None], "single"


@pytest.mark.parametrize("n", [1, 2, 600, 1500])
@pytest.mark.parametrize("kind", ["random", "tied", "left"])
def test_tree_verbs_write_the_whole_string_bytes(n, kind, tmp_path):
    """Every verb that writes a tree passes its tree's columns to the two
    tree writers, and writes the bytes of the whole-string writers."""
    from dendrocode.hierarchy import agglomerate, pairwise_distances
    from dendrocode.padic import decode
    from dendrocode.permutations import packed_representation, unpack

    tree = _tree(n, kind, n)
    enc = encode_dendrogram(tree, 3)
    perm = packed_representation(tree)
    written = {"enc.json": "".join(formats._encoding_json_chunks(enc)), "perm.txt": perm.text()}
    runs = {"decoded.json": (["padic-decode", "enc.json"], oracles.tree_json_whole(decode(enc))),
            "unpacked.json": (["unpack", "--file", "perm.txt"], oracles.tree_json_whole(unpack(perm)))}
    if n > 1:  # the data verbs need two observations
        data, linkage = _data(n, kind)
        written["data.csv"] = "".join(formats._data_chunks(data, full_precision=True))
        built = agglomerate(pairwise_distances(data), linkage)
        median = agglomerate(pairwise_distances(data), "median")
        runs["cluster.json"] = (["cluster", "data.csv", "--linkage", linkage, "--newick", "cluster.nwk"],
                                oracles.tree_json_whole(built))
        runs["cluster.nwk"] = (None, oracles.newick_whole(built))
        runs["haar.csv.tree.json"] = (["haar", "data.csv", "-o", "haar.csv"], oracles.tree_json_whole(median))
    for name, text in written.items():
        (tmp_path / name).write_text(text)
    for name, (argv, want) in runs.items():
        if argv is not None:
            argv = [str(tmp_path / a) if a in written or "." in a else a for a in argv]
            out = [] if argv[0] == "haar" else ["-o", str(tmp_path / name)]
            assert main([*argv, *out]) == 0
        _same((tmp_path / name).read_text(), want)
    if n > 1:
        assert main(["cluster", str(tmp_path / "data.csv"), "--linkage", linkage, "--full-precision",
                     "--newick", str(tmp_path / "full.nwk"), "-o", str(tmp_path / "full.json")]) == 0
        _same((tmp_path / "full.nwk").read_text(), oracles.newick_whole(built, True))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_enumerate_nlr_writes_the_whole_string_bytes(n, tmp_path):
    from dendrocode.permutations import enumerate_nlr

    assert main(["enumerate-nlr", "-n", str(n), "--trees-out", str(tmp_path / "trees.json")]) == 0
    _same((tmp_path / "trees.json").read_text(), "".join(map(oracles.tree_json_whole, enumerate_nlr(n))))

"""Referee for the trusted construction path.

Builders whose output is valid by construction make trees, matrices and
strings through private entries that skip the public checks:
``hierarchy._tree``, ``DissimilarityMatrix._built``,
``baire._baire_strings`` and ``padic._code``.  A tree is made from its
columns, and with its drawing too when the builder joins gaps
(``hierarchy._joined``, which writes the children as it joins and calls
``_tree``).  Here every call of those
entries runs the public constructor on what the entry made, over random,
caterpillar and tied inputs: the fields must come back equal, and a
drawing handed in must be the one read off the children.
A second test lists the calls in the source, so that a new call site fails
until it is added to ``CALL_SITES`` and exercised below.  A third runs
every tree verb with the maker of the ``nodes`` view raising, so that the
verbs keep to the columns.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dendrocode
from dendrocode import baire, formats, hierarchy, padic, permutations
from dendrocode.padic import PadicCode, decode, encode_dendrogram
from dendrocode.baire import BaireString, baire_cluster, digitize_reals
from dendrocode.hierarchy import (
    LINKAGES,
    Dendrogram,
    DissimilarityMatrix,
    agglomerate,
    canonicalize,
    pairwise_distances,
    swap_children,
    swap_orbit,
)
from dendrocode.permutations import enumerate_nlr, packed_representation, unpack
from dendrocode.ultrametric import canonical_form, cophenetic_matrix, verify_ultrametric

from conftest import TREE_KINDS, make_tree

# (entry, module, function) for every call of a trusted entry in the package
CALL_SITES = {
    ("_tree", "hierarchy", "_merge_tree"),
    ("_tree", "hierarchy", "swap_children"),
    ("_tree", "hierarchy", "canonicalize"),
    ("_tree", "hierarchy", "swap_orbit"),
    ("_tree", "permutations", "enumerate_nlr"),
    ("_tree", "hierarchy", "_joined"),
    ("_tree", "padic", "_decode_by_columns"),
    ("_built", "hierarchy", "pairwise_distances"),
    ("_built", "ultrametric", "cophenetic_matrix"),
    ("_built", "ultrametric", "canonical_form"),
    ("_baire_strings", "baire", "digitize_reals"),
    ("_baire_strings", "formats", "read_strings"),
    ("_baire_strings", "baire", "_strings_of"),
    ("_code", "padic", "code"),
}

PACKAGE = Path(dendrocode.__file__).parent


def entry_calls(node: ast.AST, module: str, function: str | None = None):
    """(entry, module, function) for each call of a trusted entry under
    ``node``, by name or as an attribute, in its innermost function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("_tree", "_built", "_baire_strings", "_code"):
            yield name, module, function
    for child in ast.iter_child_nodes(node):
        yield from entry_calls(child, module, function)


def test_every_call_of_a_trusted_entry_is_pinned():
    found = {call for path in PACKAGE.glob("*.py")
             for call in entry_calls(ast.parse(path.read_text()), path.stem)}
    assert found == CALL_SITES


def _caller() -> tuple[str, str]:
    frame = sys._getframe(2)
    return frame.f_globals["__name__"].rpartition(".")[2], frame.f_code.co_name


@contextlib.contextmanager
def refereed():
    """Patch each trusted entry so that the public constructor checks what
    it makes; yields the set of (entry, module, function) calls seen."""
    seen: set[tuple[str, str, str]] = set()
    tree, built, strings = hierarchy._tree, DissimilarityMatrix._built.__func__, baire._baire_strings
    code = padic._code

    def checked_tree(labels, heights, level, left, right, drawing=None):
        seen.add(("_tree", *_caller()))
        out = tree(labels, heights, level, left, right, drawing)
        again = Dendrogram(out.labels, out.nodes)
        assert type(out.labels) is tuple and type(out.nodes) is tuple
        assert (again.labels, again.nodes) == (out.labels, out.nodes)
        if drawing is not None:
            # the tree's own drawing is the one its columns were built with
            assert [np.asarray(c).tolist() for c in drawing] == [list(c) for c in again._drawing]
        return out

    def checked_built(cls, values, labels=None):
        seen.add(("_built", *_caller()))
        out = built(cls, values, labels)
        again = DissimilarityMatrix(out.values, out.labels)
        assert type(out) is cls and out.values.dtype == again.values.dtype
        assert np.array_equal(out.values, again.values) and out.labels == again.labels
        assert not out.values.flags.writeable
        assert not np.signbit(out.values).any()  # no -0.0, on the diagonal or off it
        return out

    def checked_strings(base, labels, digits, lengths):
        seen.add(("_baire_strings", *_caller()))
        out = strings(base, labels, digits, lengths)
        for s in out:
            assert type(s.digits) is tuple and {int}.issuperset(map(type, s.digits))
            assert BaireString(s.base, s.digits, s.label) == s
        return out

    def checked_code(coefficients, p):
        seen.add(("_code", *_caller()))
        out = code(coefficients, p)
        assert type(out.coefficients) is tuple and {int}.issuperset(map(type, out.coefficients))
        assert PadicCode(out.coefficients, out.p) == out
        return out

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(padic, "_code", checked_code))
        for module in (hierarchy, permutations, padic):
            stack.enter_context(mock.patch.object(module, "_tree", checked_tree))
        stack.enter_context(mock.patch.object(DissimilarityMatrix, "_built", classmethod(checked_built)))
        for module in (baire, formats):
            stack.enter_context(mock.patch.object(module, "_baire_strings", checked_strings))
        yield seen


TREES = st.sampled_from(TREE_KINDS)


def exercise_tree(tree: Dendrogram) -> None:
    for rank in range(1, tree.n):
        swap_children(tree, rank)
    canonicalize(tree)
    list(itertools.islice(swap_orbit(tree), 16))
    assert unpack(packed_representation(tree)).n == tree.n
    um = cophenetic_matrix(tree)
    if all(a <= b for a, b in zip(tree.heights(), tree.heights()[1:])):
        canonical_form(um)  # a monotone tree's cophenetic matrix is ultrametric
    verify_ultrametric(um, 0.0)
    enc = encode_dendrogram(tree)
    assert [code.coefficients for code in enc.codes()] == list(enc.C)
    assert decode(enc).nodes == tuple(
        hierarchy.MergeNode(node.rank, float(node.rank), node.left, node.right) for node in tree.nodes)


def exercise_data(data: np.ndarray) -> None:
    m = pairwise_distances(data, labels=[f"r{i}" for i in range(len(data))])
    for linkage in LINKAGES:
        agglomerate(m, linkage)
    verify_ultrametric(m, 0.0)
    canonical_form(cophenetic_matrix(agglomerate(m, "single")))


class TestReferee:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), TREES, st.integers(0, 2**32))
    def test_tree_builders(self, n, kind, seed):
        rng = random.Random(seed)
        with refereed() as seen:
            exercise_tree(make_tree(n, kind, rng))
        assert seen >= {
            ("_tree", "hierarchy", "swap_children"), ("_tree", "hierarchy", "canonicalize"),
            ("_tree", "hierarchy", "swap_orbit"), ("_tree", "hierarchy", "_merge_tree"),
            ("_built", "ultrametric", "cophenetic_matrix"),
            ("_tree", "hierarchy", "_joined"), ("_code", "padic", "code"),
        }

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 4), st.sampled_from(["grid", "uniform"]),
           st.integers(0, 2**32))
    def test_matrix_builders(self, n, dim, kind, seed):
        # integer grids tie often, in the data and in the distances
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 3, (n, dim)).astype(float) if kind == "grid" else rng.random((n, dim))
        with refereed() as seen:
            exercise_data(data)
        assert ("_built", "hierarchy", "pairwise_distances") in seen

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 4), st.integers(0, 2**32))
    def test_tie_rule_tree_of_a_tied_table(self, n, top, seed):
        # a symmetric table of a few values, ultrametric or not: the screen's
        # tree (_certify through _merge_tree) is made for every table
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, top + 1, (n, n)).astype(float), 1)
        with refereed() as seen:
            verify_ultrametric(DissimilarityMatrix(upper + upper.T), 0.0)
        assert ("_tree", "hierarchy", "_merge_tree") in seen

    @pytest.mark.parametrize("n", range(1, 10))
    def test_enumerate_nlr(self, n):
        with refereed() as seen:
            trees = enumerate_nlr(n)
        assert len(trees) == [1, 1, 1, 2, 5, 16, 61, 272, 1385][n - 1]
        assert seen == {("_tree", "permutations", "enumerate_nlr")}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 4, 10, 36, 40, 257, 2**70]), st.integers(1, 30), st.integers(1, 12),
           st.integers(0, 2**32))
    def test_string_builders(self, base, n, width, seed):
        # strings cut from a few shared stems, so prefixes are shared and
        # some strings are equal
        rng = random.Random(seed)
        stems = [[rng.randrange(base) for _ in range(width)] for _ in range(rng.randint(1, 3))]
        rows = [rng.choice(stems)[: rng.randint(1, width)] for _ in range(n)]
        with refereed() as seen:
            if base <= 36:
                text = "".join(f"s{k},{''.join(baire._DIGIT_CHARS[d] for d in row)}\n"
                               for k, row in enumerate(rows))
                strings = formats.read_strings(text, base)
                assert [list(s.digits) for s in strings] == rows
                # the verbs' hierarchy makes its strings only when asked
                assert baire._prefix_tree(base, *formats._read_digits(text, base)).strings == tuple(strings)
            else:
                strings = [BaireString(base, tuple(row), f"s{k}") for k, row in enumerate(rows)]
            baire_cluster(strings)
            pool = [rng.random() for _ in range(3)]  # some reals are equal
            reals = digitize_reals([rng.choice(pool) for _ in range(n)], width, base)
            baire_cluster(reals)
        expected = {("_tree", "hierarchy", "_joined"), ("_baire_strings", "baire", "digitize_reals")}
        if base <= 36:
            expected |= {("_baire_strings", "formats", "read_strings"), ("_baire_strings", "baire", "_strings_of")}
        assert seen == expected

    def test_every_call_site_is_exercised(self):
        rng = random.Random(23)
        with refereed() as seen:
            exercise_tree(make_tree(12, "tied", rng))
            exercise_data(np.random.default_rng(23).integers(0, 3, (12, 2)).astype(float))
            enumerate_nlr(5)
            baire_cluster(formats.read_strings("a,0123\nb,01\nc,3\n", 4))
            assert len(baire._prefix_tree(4, *formats._read_digits("a,0123\nb,01\n", 4)).strings) == 2
            baire_cluster(digitize_reals([0.25, 0.5, 0.125], 4, 40))
            decode(encode_dendrogram(Dendrogram(("a",), ())))  # one terminal: read column by column
        assert seen == CALL_SITES


def test_no_tree_verb_makes_the_merge_nodes(tmp_path, capsys):
    """Each tree verb exits 0 with the maker of the ``nodes`` view raising:
    the verbs read and write the columns alone."""
    from dendrocode import cli

    def path(name: str) -> str:
        return str(tmp_path / name)

    assert cli.main(["gen-cloud", "-n", "12", "--dim", "2", "--seed", "3", "-o", path("data.csv")]) == 0
    (tmp_path / "strings.txt").write_text("a,0123\nb,01\nc,3\nd,0123\n")
    runs = [
        ["cluster", path("data.csv"), "--newick", path("tree.nwk"), "-o", path("tree.json")],
        ["cophenetic", path("tree.json"), "-o", path("um.csv")],
        ["padic-encode", path("tree.json"), "--decimals", path("codes.csv"), "-o", path("enc.json")],
        ["padic-decode", path("enc.json"), "-o", path("decoded.json")],
        ["packed", path("tree.json"), "-o", path("perm.txt")],
        ["unpack", path("perm.txt"), "--file", "-o", path("unpacked.json")],
        ["enumerate-nlr", "-n", "5", "--trees-out", path("shapes.json")],
        ["haar", path("data.csv"), "-o", path("wt.csv")],
        ["haar-inverse", path("wt.csv"), "-o", path("back.csv")],
        ["haar-denoise", path("wt.csv"), "--epsilon", "0.1", "-o", path("smooth.csv")],
        ["render", path("tree.json"), "-o", path("tree.txt")],
        ["baire-cluster", path("strings.txt"), "--base", "4", "--newick", path("trie.nwk"),
         "--trie-out", path("trie.txt"), "-o", path("trie.json")],
    ]
    with mock.patch.object(Dendrogram.nodes, "make", side_effect=AssertionError("nodes made")):
        for argv in runs:
            assert cli.main(argv) == 0, (argv, capsys.readouterr().err)

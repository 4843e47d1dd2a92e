"""Malformed-input sweep of the CLI: every verb that reads CSV, JSON or a
literal, over a table of bad inputs.  On any of them a verb succeeds (0),
fails with exactly one ``E_CODE: message`` line on stderr (1) or is a usage
error (2); no exception escapes ``main``, and numpy warnings are errors
(``filterwarnings`` in pyproject.toml)."""

from __future__ import annotations

import json
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from dendrocode import cli, errors, formats
from dendrocode.baire import baire_cluster
from dendrocode.cli import main
from dendrocode.errors import ResourceGuardError
from dendrocode.padic import encode_dendrogram
from dendrocode.permutations import permutation_text

from conftest import dense_table_csv, make_tree
from oracles import ordinal_sequence_by_windows, rank_permutation_by_sort

TREE = json.dumps({
    "n": 3, "labels": ["a", "b", "c"],
    "nodes": [{"rank": 1, "height": 1.0, "left": "t1", "right": "t2"},
              {"rank": 2, "height": 2.0, "left": "q1", "right": "t3"}],
})
ENCODING = json.dumps({"p": 3, "n": 3, "labels": ["a", "b", "c"], "C": [1, 1, -1, 1, 0, -1]})
ERROR_LINE = re.compile(r"E_[A-Z]+: [^\n]*\n")


def _tree(**changes) -> str:
    doc = json.loads(TREE)
    doc.update(changes)
    return json.dumps(doc)


def _tree_node(**changes) -> str:
    doc = json.loads(TREE)
    doc["nodes"][0].update(changes)
    return json.dumps(doc)


def _encoding(**changes) -> str:
    doc = json.loads(ENCODING)
    doc.update(changes)
    return json.dumps(doc)


# Inputs every reader gets: empty, blank, truncated, binary-ish, not UTF-8
# (a UTF-16 byte-order mark), deeply nested, and an integer past Python's
# int-to-str digit limit.
NON_UTF8 = b"\xff\xfe1\x00,\x002\x00\n\x00"
COMMON = {
    "empty": "",
    "non-utf8": NON_UTF8,
    "blank": "\n \n",
    "truncated-json": TREE[: len(TREE) // 2],
    "nul": "\x00\x01\n",
    "deep-json": "[" * 50_000 + "]" * 50_000,
    "long-int": "1" * 5000 + "\n",
}

LONG_CELL = "1" * 200_000  # past csv's default field limit of 131,072 characters

CSV = {
    "ragged": "1,2\n3\n4,5\n",
    "word-cell": "1,2\n3,x\n",
    "unterminated-quote": '"a,1\n2,3\n',
    "header-only": ",a,b\n",
    "labels-only": "a\nb\nc\n",
    "inf": "1,inf\n2,3\n0,1\n",
    "huge": "1e308,1e308\n-1e308,1e308\n0,1\n",
    "nan-matrix": ",a,b\na,0,nan\nb,nan,0\n",
    "asymmetric": ",a,b\na,0,1\nb,2,0\n",
    "not-square": ",a,b\na,0,1\n",
    "single-row": "1,2\n",
    "long-cell": "1," + LONG_CELL + "\n",
    "long-quoted-cell": '"a","' + LONG_CELL + '"\n',
    "header-without-corner": "x,y\na,1,2\nb,3,4\nc,5,7\n",
    "header-too-narrow": "x\n1,2\n3,4\n5,7\n",
    "header-too-wide": "a,b,c\n1,2\n3,4\n5,7\n",
}

WAVELET = {
    # for the 3-leaf TREE: the root smooth s2, then d2 and d1
    "word-cell": ",s2,d2,d1\nc1,1,2,3\nc2,4,five,6\n",
    "inf": ",s2,d2,d1\nc1,inf,0,0\n",
    "nan": ",s2,d2,d1\nc1,0,nan,0\n",
    "overflow": ",s2,d2,d1\nc1,1e308,1e308,1e308\n",
    "header-only": ",s2,d2,d1\n",
    "narrow": ",s2,d2,d1\nc1,1,2\n",
    "ragged": ",s2,d2,d1\nc1,1,2,3\nc2,1,2\n",
    "wrong-header": ",s1,d1\nc1,1,2\n",
    "corner": "x,s2,d2,d1\nc1,1,2,3\n",
    "long-cell": ",s2,d2,d1\nc1,1,2," + LONG_CELL + "\n",
    "long-quoted-cell": ',s2,d2,d1\n"c1",1,2,"' + LONG_CELL + '"\n',
}

TREE_JSON = {
    "n-word": _tree(n="abc"),
    "n-overflow": TREE.replace('"n": 3', '"n": 1e400'),
    "n-float": _tree(n=1.7),
    "n-bool": _tree(n=True),
    "n-mismatch": _tree(n=5),
    "rank-bool": _tree_node(rank=True),
    "rank-float": _tree_node(rank=1.0),
    "rank-word": _tree_node(rank="x"),
    "rank-range": _tree_node(rank=7),
    "height-word": _tree_node(height="high"),
    "height-negative": _tree_node(height=-1.0),
    "height-bool": _tree_node(height=True),
    "height-text": _tree_node(height="0.5"),
    "height-overflow": _tree_node(height=10**400),
    "bad-child": _tree_node(left="z1"),
    "child-range": _tree_node(left="t9"),
    # int() would read each of these as t1
    "child-sign": _tree_node(left="t+1"),
    "child-space": _tree_node(left="t 1"),
    "child-underscore": _tree_node(left="t0_1"),
    "child-arabic-indic": _tree_node(left="t\u0661"),
    "repeated-child": _tree_node(right="t1"),
    "nodes-not-list": _tree(nodes=5),
    "node-not-object": _tree(nodes=[1, 2]),
    "labels-not-list": _tree(labels=5),
    "labels-text": _tree(labels="abc"),
    "labels-numbers": _tree(labels=[1, 2, 3]),
    "no-labels": json.dumps({"nodes": []}),
    "array": "[1, 2, 3]",
    "null": "null",
    "string": '"tree"',
}

# C cells past int8, and JSON values that compare equal to 1: each must be
# refused.  With 0 in their place the encoding is valid, and an int8
# conversion that wraps (numpy < 2) reads 256 as 0.
INT8_CELLS = {
    "c-2": 2, "c-127": 127, "c-128": 128, "c-minus-129": -129, "c-256": 256,
    "c-10e30": 10**30, "c-true": True, "c-float-one": 1.0,
}


def _cell(value) -> str:
    return _encoding(C=[1, 1, -1, 1, value, -1])


ENCODING_JSON = {
    **{name: _cell(value) for name, value in INT8_CELLS.items()},
    "p-word": _encoding(p="3"),
    "p-float": _encoding(p=3.0),
    "p-one": _encoding(p=1),
    "p-two": _encoding(p=2),
    "p-composite": _encoding(p=3215031751),
    "p-mersenne": _encoding(p=2**61 - 1),
    "p-past-bound": _encoding(p=3317044064679887385961981),
    "p-long": ENCODING.replace('"p": 3', '"p": ' + "7" * 5000),
    "n-bool": _encoding(n=True),
    "c-short": _encoding(C=[1, -1]),
    "c-value": _encoding(C=[1, 1, -1, 2, 0, -1]),
    "c-root-zero": _encoding(C=[1, 1, -1, 0, 0, -1]),
    "c-one-sided": _encoding(C=[1, 1, 1, 1, 1, -1]),
    "labels-not-strings": _encoding(labels=[1, 2, 3]),
    "array": "[]",
}

LITERALS = {
    "word": "(1,a,3)", "superscript": "(1²3)", "empty-parens": "()", "open": "(",
    "empty": "", "letter": "x", "double-comma": "(1,,3)", "negative": "(-1,2)",
    "zero": "(0,1)", "repeat": "(1,1)", "bad-sentinel": "(21)",
    "long-int": "(" + "9" * 5000 + ")", "repeats": "(1,2,3" + ",4" * 5 + ")",
}

# Streams for the stream verbs: NaN has no order and is refused; the
# infinities, and both zeros, order as float64 values do.
STREAMS = {
    "nan-first": "nan\n1\n2\n0.5\n3\n",
    "nan-middle": "1,\nnan\n2\n0.5\nNaN\n3\n",
    "nan-last": "1\n2\n0.5\n3\n-nan\n",
    "inf-mixed": "1\ninf\n2\n-inf\n0.5\ninf\n-0.0\n0\n3\n",
    "inf-only": "inf\n-inf\ninf\ninf\n-inf\n-inf\n",
}
STREAM_VERBS = [["ordinal", "--order", "2"], ["ordinal", "--order", "2", "--delay", "2", "--counts"],
                ["ordinal", "--order", "1", "--tie-rule", "later-low"], ["rankperm"],
                ["rankperm", "--delay", "2"]]

CSV_VERBS = [
    ["cluster"], ["cluster", "--linkage", "ward"], ["haar"], ["ultrametricity", "--data"],
    ["verify-um"], ["canonical"], ["ultrametricity"], ["lattice"], ["lattice", "--level", "1"],
    ["ordinal", "--order", "2"], ["rankperm"], ["baire-dist"], ["baire-dist", "--exact"],
    ["baire-cluster"], ["dna-encode"],
]
TREE_VERBS = [["cophenetic"], ["padic-encode"], ["packed"], ["render"]]
ENCODING_VERBS = [["padic-decode"], ["padic-dist"]]
WAVELET_VERBS = [["haar-inverse"], ["haar-denoise", "--epsilon", "0.1"]]


def _cases():
    for verb in CSV_VERBS:
        for name, text in {**COMMON, **CSV}.items():
            yield pytest.param(verb, text, None, id=f"{' '.join(verb)}:{name}")
    for verb in TREE_VERBS + ENCODING_VERBS:
        inputs = {**COMMON, **(TREE_JSON if verb in TREE_VERBS else ENCODING_JSON)}
        for name, text in inputs.items():
            yield pytest.param(verb, text, None, id=f"{verb[0]}:{name}")
    for verb in WAVELET_VERBS:
        for name, text in {**COMMON, **WAVELET}.items():
            yield pytest.param(verb, text, None, id=f"{verb[0]}:{name}")
        for name, text in {**COMMON, **TREE_JSON}.items():
            # a good wavelet table with a bad tree sidecar
            yield pytest.param(verb, WAVELET["word-cell"].replace("five", "5"), text,
                               id=f"{verb[0]}:tree-{name}")


def _write(path, data) -> None:
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.err


def _check(code, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert ERROR_LINE.fullmatch(err), err
    elif code == 0:
        assert err == ""


@pytest.mark.parametrize("verb, text, tree", _cases())
def test_bad_file_input(tmp_path, capsys, verb, text, tree):
    path = tmp_path / "input"
    _write(path, text)
    argv = [*verb, str(path), "-o", str(tmp_path / "out")]
    if tree is not None or verb in WAVELET_VERBS:
        tree_path = tmp_path / "tree.json"
        _write(tree_path, TREE if tree is None else tree)
        argv += ["--tree", str(tree_path)]
    _check(*_run(capsys, argv))


@pytest.mark.parametrize("literal", LITERALS.values(), ids=LITERALS.keys())
def test_bad_permutation_literal(tmp_path, capsys, literal):
    _check(*_run(capsys, ["unpack", literal, "-o", str(tmp_path / "out")]))
    path = tmp_path / "literal.txt"
    path.write_text(literal)
    _check(*_run(capsys, ["unpack", "--file", str(path), "-o", str(tmp_path / "out")]))


@pytest.mark.parametrize("verb", ENCODING_VERBS, ids=lambda verb: verb[0])
@pytest.mark.parametrize("name", INT8_CELLS)
def test_cells_past_int8_fail_cleanly(tmp_path, capsys, verb, name):
    path = tmp_path / "input"
    path.write_text(_cell(0))
    assert _run(capsys, [*verb, str(path), "-o", str(tmp_path / "valid")])[0] == 0
    path.write_text(ENCODING_JSON[name])
    code, err = _run(capsys, [*verb, str(path), "-o", str(tmp_path / "out")])
    assert code == 1
    assert ERROR_LINE.fullmatch(err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, text", [
    pytest.param(["render"], TREE_JSON["n-word"], id="render:n-word"),
    pytest.param(["render"], TREE_JSON["n-overflow"], id="render:n-overflow"),
    pytest.param(["render"], TREE_JSON["n-float"], id="render:n-float"),
    pytest.param(["render"], TREE_JSON["rank-bool"], id="render:rank-bool"),
    pytest.param(["render"], TREE_JSON["height-bool"], id="render:height-bool"),
    pytest.param(["render"], TREE_JSON["height-text"], id="render:height-text"),
    pytest.param(["render"], TREE_JSON["height-overflow"], id="render:height-overflow"),
    pytest.param(["render"], TREE_JSON["labels-text"], id="render:labels-text"),
    pytest.param(["render"], TREE_JSON["labels-numbers"], id="render:labels-numbers"),
    *(pytest.param(["packed"], TREE_JSON[name], id=f"packed:{name}")
      for name in ("child-sign", "child-space", "child-underscore", "child-arabic-indic")),
    pytest.param(["padic-decode"], ENCODING_JSON["p-past-bound"], id="padic-decode:p-past-bound"),
    pytest.param(["lattice"], dense_table_csv(), id="lattice:dense-table"),
    pytest.param(["lattice"], "x,2,1\ny,1,0\nz,1,1\n", id="lattice:numeric-first-row"),
])
def test_inputs_that_used_to_be_misread_fail_cleanly(tmp_path, capsys, verb, text):
    """Each of these ended in a traceback, was misread or ran for minutes;
    now exit 1.  The wavelet and literal cases are in test_cli.py."""
    path = tmp_path / "input"
    path.write_text(text)
    code, err = _run(capsys, [*verb, str(path), "-o", str(tmp_path / "out")])
    assert code == 1
    assert ERROR_LINE.fullmatch(err), err
    assert not (tmp_path / "out").exists()


TABLE_VERBS = [verb for verb in CSV_VERBS if verb[0] in (
    "cluster", "haar", "ultrametricity", "verify-um", "canonical", "lattice")] + WAVELET_VERBS


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("verb", TABLE_VERBS, ids=" ".join)
def test_cell_past_the_field_limit_is_one_error_line(tmp_path, capsys, verb, quoted):
    """A cell longer than csv's field limit ended in a ``_csv.Error``
    traceback; now it is one ``E_PARSE`` line naming its line, whether the
    text is plain (read in bulk) or quoted, and no output is written."""
    head = ",s2,d2,d1\nc1,1,2,3\nc2,4,5," if verb in WAVELET_VERBS else "1,2\n3,4\n5,"
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_text(head + (f'"{LONG_CELL}"' if quoted else LONG_CELL) + "\n")
    argv = [*verb, str(path), "-o", str(out)]
    if verb in WAVELET_VERBS:
        (tmp_path / "tree.json").write_text(TREE)
        argv += ["--tree", str(tmp_path / "tree.json")]
    code, err = _run(capsys, argv)
    assert (code, err) == (1, "E_PARSE: line 3: field larger than field limit (131072)\n")
    assert not out.exists()


def _stream_referee(verb, text):
    """The verb's stdout computed by the referee loops."""
    args = dict(zip(verb[1::2], verb[2::2]))
    stream = [float(line.strip(", ")) for line in text.split()]
    tau = int(args.get("--delay", 1))
    if verb[0] == "rankperm":
        return "(" + permutation_text(rank_permutation_by_sort(stream, tau)) + ")\n"
    patterns, classes = ordinal_sequence_by_windows(
        stream, int(args["--order"]), tau, args.get("--tie-rule", "earlier-low"))
    out = " ".join(p.text() for p in patterns) + "\n"
    if "--counts" in verb:
        out += "classes " + " ".join(f"{t}:{len(idx)}" for t, idx in sorted(classes.items())) + "\n"
    return out


@pytest.mark.parametrize("verb", STREAM_VERBS, ids=" ".join)
@pytest.mark.parametrize("name", STREAMS)
def test_non_finite_streams(tmp_path, capsys, verb, name):
    """A NaN stream is one E_DOMAIN line with nothing printed (it used to
    exit 0 with an order that depended on the sort); an infinite value
    orders as float64 does, as in the referee loops."""
    path = tmp_path / "stream.csv"
    path.write_text(STREAMS[name])
    code = main([*verb, str(path)])
    captured = capsys.readouterr()
    if name.startswith("nan"):
        assert code == 1
        assert captured.err.startswith("E_DOMAIN: stream value #")
        assert ERROR_LINE.fullmatch(captured.err), captured.err
        assert captured.out == ""
    else:
        assert (code, captured.err) == (0, "")
        assert captured.out == _stream_referee(verb, STREAMS[name])


READER_VERBS = CSV_VERBS + TREE_VERBS + ENCODING_VERBS + WAVELET_VERBS + [["unpack", "--file"]]


@pytest.mark.parametrize("verb", READER_VERBS, ids=" ".join)
def test_non_utf8_input_fails_cleanly(tmp_path, capsys, verb):
    """Bytes that are not UTF-8 used to raise UnicodeDecodeError out of main."""
    path = tmp_path / "input"
    path.write_bytes(NON_UTF8)
    argv = [*verb, str(path), "-o", str(tmp_path / "out")]
    if verb in WAVELET_VERBS:
        argv += ["--tree", str(path)]
    code, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith(f"E_PARSE: cannot read {path}: ") and ERROR_LINE.fullmatch(err), err


@pytest.mark.parametrize("verb", WAVELET_VERBS, ids=lambda verb: verb[0])
def test_non_utf8_tree_sidecar_fails_cleanly(tmp_path, capsys, verb):
    transform, tree_path = tmp_path / "transform.csv", tmp_path / "tree.json"
    transform.write_text(WAVELET["word-cell"].replace("five", "5"))
    tree_path.write_bytes(NON_UTF8)
    code, err = _run(capsys, [*verb, str(transform), "--tree", str(tree_path)])
    assert code == 1
    assert err.startswith(f"E_PARSE: cannot read {tree_path}: ") and ERROR_LINE.fullmatch(err), err


INPUTS = {
    "data.csv": "1,2\n3,4\n5,7\n",
    "strings.txt": "a,241\nb,248\n",
    "tree.json": TREE,
    "matrix.csv": ",a,b,c\na,0,1,2\nb,1,0,2\nc,2,2,0\n",
    "transform.csv": WAVELET["word-cell"].replace("five", "5"),
}
# one invocation per output flag; BAD stands for the unwritable path
OUTPUT_FLAGS = {
    "-o": ["gen-cloud", "-n", "3", "--dim", "2", "-o", "BAD"],
    "--newick": ["cluster", "data.csv", "-o", "out", "--newick", "BAD"],
    "--trie-out": ["baire-cluster", "strings.txt", "-o", "out", "--trie-out", "BAD"],
    "--decimals": ["padic-encode", "tree.json", "-o", "out", "--decimals", "BAD"],
    "--perm-out": ["canonical", "matrix.csv", "-o", "out", "--perm-out", "BAD"],
    "--tree-out": ["haar", "data.csv", "-o", "out", "--tree-out", "BAD"],
    "--transform-out": ["haar-denoise", "transform.csv", "--tree", "tree.json", "--epsilon", "0.1",
                        "-o", "out", "--transform-out", "BAD"],
    "--trees-out": ["enumerate-nlr", "-n", "4", "--trees-out", "BAD"],
}


@pytest.mark.parametrize("argv", OUTPUT_FLAGS.values(), ids=OUTPUT_FLAGS.keys())
def test_unwritable_output_fails_cleanly(tmp_path, capsys, argv):
    """A missing output directory used to end in a FileNotFoundError traceback."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    bad = tmp_path / "missing" / "out"
    names = {"BAD": str(bad), **{name: str(tmp_path / name) for name in [*INPUTS, "out"]}}
    code, err = _run(capsys, [names.get(arg, arg) for arg in argv])
    assert code == 1
    assert err == f"E_DOMAIN: cannot write {bad}: No such file or directory\n"


def _secondary_output_cases():
    """Each output flag besides ``-o`` at an unwritable path, with ``-o`` at
    a fresh path and at an existing file (``enumerate-nlr`` has no ``-o``)."""
    for flag, argv in OUTPUT_FLAGS.items():
        if flag == "-o":
            continue
        for existing in (False, True) if "out" in argv else (False,):
            kind = "existing" if existing else "fresh"
            yield pytest.param(argv, existing, id=f"{flag}:{kind}-output")


@pytest.mark.parametrize("argv, existing", _secondary_output_cases())
def test_unwritable_output_leaves_no_output(tmp_path, capsys, argv, existing):
    """Every output is written only once all of them can be: the first one
    used to be written, or printed, before the second failed."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    if existing:
        out.write_bytes(b"kept\n")
    bad = tmp_path / "missing" / "x"
    names = {"BAD": str(bad), **{name: str(tmp_path / name) for name in [*INPUTS, "out"]}}
    code = main([names.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"E_DOMAIN: cannot write {bad}: No such file or directory\n"
    assert captured.out == ""
    expected = [*INPUTS, "out"] if existing else [*INPUTS]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    if existing:
        assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("output", [[], ["-o", "-"]], ids=["no-output", "stdout"])
def test_haar_to_stdout_without_tree_out_prints_nothing(tmp_path, capsys, output):
    """The wavelet table used to be printed before the missing sidecar failed the run."""
    path = tmp_path / "data.csv"
    path.write_text(INPUTS["data.csv"])
    code = main(["haar", str(path), *output])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "E_DOMAIN: writing to stdout requires --tree-out for the tree sidecar\n"
    assert captured.out == ""


def test_output_to_dev_null(tmp_path, capsys):
    """A device that cannot be truncated is still a valid output path."""
    path = tmp_path / "data.csv"
    path.write_text(INPUTS["data.csv"])
    assert main(["cluster", str(path), "-o", "/dev/null", "--newick", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_canonical_prints_the_permutation_when_the_table_goes_to_a_file(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(INPUTS["matrix.csv"])
    perm_path = tmp_path / "perm.txt"
    argv = ["canonical", str(matrix), "-o", str(tmp_path / "a.csv"), "--perm-out", str(perm_path)]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["canonical", str(matrix), "-o", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr() == (perm_path.read_text(), "")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_verify_um_writes_its_list_then_fails(tmp_path, capsys, to_file):
    """The one verb that writes its output and exits 1."""
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(",a,b,c\na,0,1,3\nb,1,0,1\nc,3,1,0\n")
    out = tmp_path / "violations.csv"
    code = main(["verify-um", str(matrix), *(["-o", str(out)] if to_file else [])])
    captured = capsys.readouterr()
    listing = "i,j,k,lhs,rhs\n1,2,3,3,1\n"
    assert code == 1
    assert captured.err == "E_ULTRAMETRIC: 1 violating triple(s) at tolerance 1e-09\n"
    if to_file:
        assert (out.read_text(), captured.out) == (listing, "")
    else:
        assert captured.out == listing


# The writer's contract: a file target is written to a temporary file beside
# it and renamed over it only once every output is complete; stdout is
# printed after that.


def _chunks_then(error):
    yield "a first chunk\n"
    raise error


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("error", [ResourceGuardError("past the guard"), MemoryError()],
                         ids=["dendrocode-error", "memory-error"])
def test_an_error_in_a_chunk_changes_no_target(tmp_path, capsys, existing, error):
    out, later = tmp_path / "out", tmp_path / "later"
    if existing:
        out.write_bytes(b"kept\n")
    outputs = [(str(out), "the whole text\n"), ("-", "printed\n"),
               (str(later), _chunks_then(error)), (None, "printed too\n")]
    with pytest.raises(type(error)):
        cli._write(outputs)
    assert capsys.readouterr() == ("", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if existing else [])
    if existing:
        assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_a_failed_write_changes_no_other_target(tmp_path, capsys, existing):
    """/dev/full takes every open and fails every write (ENOSPC)."""
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    out = tmp_path / "tree.json"
    if existing:
        out.write_bytes(b"kept\n")
    code, err = _run(capsys, ["cluster", str(tmp_path / "data.csv"), "-o", str(out),
                              "--newick", "/dev/full"])
    assert (code, err) == (1, "E_DOMAIN: cannot write /dev/full: No space left on device\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", *(["tree.json"] if existing else [])]
    if existing:
        assert out.read_bytes() == b"kept\n"


def test_the_running_count_is_a_backstop_for_every_output(tmp_path, capsys):
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    argv = ["cluster", str(tmp_path / "data.csv"), "-o", str(tmp_path / "tree.json"),
            "--newick", str(tmp_path / "tree.nwk")]
    with mock.patch.object(cli, "_TABLE_GUARD", 100):
        code, err = _run(capsys, argv)
    assert (code, err) == (1, f"E_RESOURCE: the output to {tmp_path / 'tree.json'} "
                              "passed the guard (100 bytes)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize("kind", ["random", "left", "right", "tied"])
def test_the_encoding_is_sized_before_its_cells_are_built(tmp_path, capsys, kind):
    """``padic-encode`` refuses an encoding whose text would pass the guard
    before ``encode_dendrogram`` runs; the size it gives is the text's."""
    tree = make_tree(23, kind, random.Random(23))
    (tmp_path / "tree.json").write_text("".join(formats._tree_json_chunks(tree)))
    out = tmp_path / "enc.json"
    size = len("".join(formats._encoding_json_chunks(encode_dendrogram(tree, 5))).encode())
    argv = ["padic-encode", str(tmp_path / "tree.json"), "-p", "5", "-o", str(out)]
    with mock.patch.object(errors, "_TABLE_GUARD", size):
        assert _run(capsys, argv) == (0, "")
    assert len(out.read_bytes()) == size
    out.unlink()
    with (mock.patch.object(errors, "_TABLE_GUARD", size - 1),
          mock.patch.object(cli, "encode_dendrogram", side_effect=AssertionError)):
        code, err = _run(capsys, argv)
    assert (code, err) == (1, f"E_RESOURCE: the encoding would take {size} bytes, "
                              f"past the guard ({size - 1})\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]
    # a prime that the encoder refuses is refused first, as before the guard
    with mock.patch.object(errors, "_TABLE_GUARD", 1):
        code, err = _run(capsys, [*argv[:3], "9", *argv[4:]])
    assert (code, err) == (1, "E_DOMAIN: 9 is not prime\n")


@pytest.mark.parametrize("verb", ["padic-decode", "padic-dist"])
def test_a_short_body_under_a_long_header_is_a_size_error(tmp_path, capsys, verb):
    """400,000 labels and 2 coefficients: the canonical reader used to make
    the n(n-1) cells (160 GB) before it read the body."""
    n = 400_000
    doc = {"p": 3, "n": n, "labels": [f"t{i}" for i in range(n)], "C": [1, -1]}
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert _run(capsys, [verb, str(path), "-o", str(tmp_path / "out")]) == (
        1, "E_PARSE: encoding JSON has inconsistent sizes\n")


@pytest.mark.parametrize("dangling", [False, True], ids=["existing", "dangling"])
def test_a_symlinked_target_is_written_through(tmp_path, capsys, dangling):
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    if not dangling:
        real.write_text("old\n")
    link.symlink_to(real)
    assert main(["cluster", str(tmp_path / "data.csv"), "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text().startswith('{\n  "n": 3,')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.json", "real.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_files_take_the_umask_and_existing_files_keep_their_mode(tmp_path, capsys, umask):
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.nwk"
    kept.write_text("old\n")
    kept.chmod(0o604)
    old = os.umask(umask)
    try:
        code = main(["cluster", str(tmp_path / "data.csv"), "-o", str(fresh), "--newick", str(kept)])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert kept.read_text().endswith("];\n")


def test_a_read_only_target_is_refused_before_anything_is_written(tmp_path, capsys):
    """The superuser may open a read-only file for writing; the open is made
    to refuse as it does for anyone else."""
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    locked = tmp_path / "locked.nwk"
    locked.write_text("old\n")
    locked.chmod(0o444)

    def refusing_open(path, mode="r", *args, **kwargs):
        if str(path) == str(locked) and set(mode) & set("wa+"):
            raise PermissionError(13, "Permission denied")
        return open(path, mode, *args, **kwargs)

    with mock.patch.object(cli, "open", refusing_open, create=True):
        code, err = _run(capsys, ["cluster", str(tmp_path / "data.csv"), "-o", str(tmp_path / "tree.json"),
                                  "--newick", str(locked)])
    assert (code, err) == (1, f"E_DOMAIN: cannot write {locked}: Permission denied\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "locked.nwk"]
    assert locked.read_text() == "old\n"


def test_one_path_given_twice_keeps_the_later_output(tmp_path, capsys):
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    out = tmp_path / "out"
    assert main(["cluster", str(tmp_path / "data.csv"), "-o", str(out), "--newick", str(out)]) == 0
    assert out.read_text().endswith("];\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out"]


def _canonical_to(tmp_path, path: str, mode: str, stream: str) -> subprocess.CompletedProcess:
    """``canonical matrix.csv -o path`` in a new process whose ``stream``
    (stdout or stderr) writes to out.txt, opened with ``mode``."""
    (tmp_path / "matrix.csv").write_text(INPUTS["matrix.csv"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    with open(tmp_path / "out.txt", mode) as out:
        return subprocess.run(
            [sys.executable, "-m", "dendrocode.cli", "canonical", str(tmp_path / "matrix.csv"),
             "-o", path], text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: out})


def test_dev_stdout_sent_to_a_file_is_written_in_place(tmp_path):
    """``canonical -o /dev/stdout`` writes its table through stdout and
    then prints its permutation: both reach the file stdout appends to (as
    after ``>>``).  Renaming over that file would leave stdout writing to a
    file no longer in the directory, and the permutation would be lost."""
    result = _canonical_to(tmp_path, "/dev/stdout", "a", "stdout")
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "out.txt").read_text() == ",c,a,b\nc,0,2,2\na,2,0,1\nb,2,1,0\n3,1,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.csv", "out.txt"]


@pytest.mark.parametrize("path, stream", [("/dev/stdout", "stdout"), ("/dev/stderr", "stderr")])
def test_dev_stdout_truncated_by_the_shell_gets_every_output_in_order(tmp_path, path, stream):
    """After ``>`` the file has no append flag: a second open of it would
    write at its own offset, and the stream's text would overwrite the
    start of the table.  The table goes through the stream instead, in
    output order; the permutation goes to stdout."""
    result = _canonical_to(tmp_path, path, "w", stream)
    table = ",c,a,b\nc,0,2,2\na,2,0,1\nb,2,1,0\n"
    assert result.returncode == 0
    if stream == "stdout":
        assert (result.stderr, (tmp_path / "out.txt").read_text()) == ("", table + "3,1,2\n")
    else:
        assert (result.stdout, (tmp_path / "out.txt").read_text()) == ("3,1,2\n", table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.csv", "out.txt"]


def test_out_of_memory_is_one_error_line(tmp_path, capsys):
    """An input larger than the memory the host gives used to end in a
    MemoryError traceback; a chunk that runs out leaves no target either."""
    (tmp_path / "data.csv").write_text(INPUTS["data.csv"])
    with mock.patch.object(cli.Path, "read_text", side_effect=MemoryError):
        assert _run(capsys, ["cluster", str(tmp_path / "data.csv")]) == (1, "E_RESOURCE: out of memory\n")
    with mock.patch.object(formats, "_newick_chunks", lambda *args: _chunks_then(MemoryError())):
        code, err = _run(capsys, ["cluster", str(tmp_path / "data.csv"), "-o", str(tmp_path / "t.json"),
                                  "--newick", str(tmp_path / "t.nwk")])
    assert (code, err) == (1, "E_RESOURCE: out of memory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_stdout_is_spooled_whole_past_the_memory_spool(tmp_path, capsys):
    """A spool past its memory size moves to disk; text split inside a
    character by the copy's blocks prints whole."""
    labels = [f"é{i}" for i in range(40)]
    text = "".join(f"{label},{i:04d}\n" for i, label in enumerate(labels))
    (tmp_path / "s.txt").write_text(text)
    with mock.patch.object(errors, "_CHUNK", 7):
        code = main(["baire-cluster", str(tmp_path / "s.txt"), "--trie-out", "-"])
    hierarchy, tree = baire_cluster(formats.read_strings(text, 10))
    assert code == 0
    assert capsys.readouterr().out == "".join(formats._tree_json_chunks(tree)) + hierarchy.dump_text()


# Every numeric flag of every verb: the verb's argv up to the flag (input
# names as in INPUTS and SWEEP_INPUTS), the flag, and the type argparse reads it with.
NUMERIC_FLAGS = {
    "verify-um --tol": (["verify-um", "matrix.csv"], "--tol", float),
    "canonical --tol": (["canonical", "matrix.csv"], "--tol", float),
    "ultrametricity --tol": (["ultrametricity", "matrix.csv"], "--tol", float),
    "padic-encode -p": (["padic-encode", "tree.json"], "-p", int),
    "baire-dist --base": (["baire-dist", "strings.txt", "--exact"], "--base", int),
    "baire-cluster --base": (["baire-cluster", "strings.txt"], "--base", int),
    "haar-denoise --epsilon": (["haar-denoise", "transform.csv", "--tree", "tree.json"],
                               "--epsilon", float),
    "ordinal --order": (["ordinal", "stream.csv"], "--order", int),
    "ordinal --delay": (["ordinal", "stream.csv", "--order", "2"], "--delay", int),
    "rankperm --delay": (["rankperm", "stream.csv"], "--delay", int),
    "enumerate-nlr -n": (["enumerate-nlr"], "-n", int),
    "gen-cloud -n": (["gen-cloud", "--dim", "2"], "-n", int),
    "lattice --level": (["lattice", "table.csv"], "--level", int),
    "ultrametricity --sample": (["ultrametricity", "matrix.csv"], "--sample", int),
    "ultrametricity --seed": (["ultrametricity", "matrix.csv"], "--seed", int),
    "gen-cloud --seed": (["gen-cloud", "-n", "2", "--dim", "2"], "--seed", int),
    "gen-cloud --dim": (["gen-cloud", "-n", "2"], "--dim", int),
}
SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", str(2**63)]
SWEEP_INPUTS = {**INPUTS, "stream.csv": "4\n7\n9\n10\n6\n11\n3\n",
                "table.csv": ",d1,d2,d3\na,1,0,1\nb,0,1,1\nc,1,1,0\n"}

# Runs each argv of the JSON list on stdin through main() in a process
# whose address space is capped at 2 GiB, and prints [code, stdout,
# stderr] of each; anything escaping main() is recorded as its traceback.
SWEEP_SCRIPT = """
import contextlib, io, json, resource, sys, traceback, warnings
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
warnings.simplefilter("error", RuntimeWarning)
from dendrocode.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "escaped"
            print(traceback.format_exc(), file=sys.stderr)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


@pytest.fixture(scope="module")
def numeric_sweep(tmp_path_factory):
    """The outcome of every numeric flag at every SWEEP_VALUES value, keyed
    by (flag id, value), from one capped subprocess."""
    root = tmp_path_factory.mktemp("sweep")
    for name, text in SWEEP_INPUTS.items():
        (root / name).write_text(text)
    cases, argvs = [], []
    for key, (argv, flag, _) in NUMERIC_FLAGS.items():
        for value in SWEEP_VALUES:
            # --flag=value: as a separate word, -inf would read as an option
            cases.append((key, value))
            argvs.append([str(root / a) if a in SWEEP_INPUTS else a for a in argv]
                         + [f"{flag}={value}"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", SWEEP_SCRIPT], input=json.dumps(argvs), capture_output=True,
        text=True, timeout=300, cwd=root,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert result.returncode == 0, result.stderr[-2000:]
    return dict(zip(cases, json.loads(result.stdout)))


def _type_refuses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("value", SWEEP_VALUES, ids=["nan", "inf", "-inf", "-1", "0", "2**63"])
@pytest.mark.parametrize("key", NUMERIC_FLAGS)
def test_numeric_flag_sweep(numeric_sweep, key, value):
    """Each run exits 0 with nothing on stderr, or 1 with one ``E_CODE:``
    line, or 2 where argparse's type refuses the text (an int flag given
    nan or an infinity).  ``gen-cloud --seed -1`` ended in numpy's
    traceback until the seed was checked."""
    code, _, err = numeric_sweep[key, value]
    if _type_refuses(NUMERIC_FLAGS[key][2], value):
        assert code == 2, err
    elif code == 1:
        assert ERROR_LINE.fullmatch(err), err
    else:
        assert (code, err) == (0, "")

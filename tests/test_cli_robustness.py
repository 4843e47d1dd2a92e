"""Malformed-input sweep of the CLI: every verb that reads CSV, JSON or a
literal, over a table of bad inputs.  On any of them a verb succeeds (0),
fails with exactly one ``E_CODE: message`` line on stderr (1) or is a usage
error (2); no exception escapes ``main``, and numpy warnings are errors
(``filterwarnings`` in pyproject.toml)."""

from __future__ import annotations

import json
import re

import pytest

from dendrocode.cli import main

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


# Inputs every reader gets: empty, blank, truncated, binary-ish, deeply
# nested, and an integer past Python's int-to-str digit limit.
COMMON = {
    "empty": "",
    "blank": "\n \n",
    "truncated-json": TREE[: len(TREE) // 2],
    "nul": "\x00\x01\n",
    "deep-json": "[" * 50_000 + "]" * 50_000,
    "long-int": "1" * 5000 + "\n",
}

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
    "bad-child": _tree_node(left="z1"),
    "child-range": _tree_node(left="t9"),
    "repeated-child": _tree_node(right="t1"),
    "nodes-not-list": _tree(nodes=5),
    "node-not-object": _tree(nodes=[1, 2]),
    "labels-not-list": _tree(labels=5),
    "no-labels": json.dumps({"nodes": []}),
    "array": "[1, 2, 3]",
    "null": "null",
    "string": '"tree"',
}

ENCODING_JSON = {
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
    path.write_text(text)
    argv = [*verb, str(path), "-o", str(tmp_path / "out")]
    if tree is not None or verb in WAVELET_VERBS:
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(TREE if tree is None else tree)
        argv += ["--tree", str(tree_path)]
    _check(*_run(capsys, argv))


@pytest.mark.parametrize("literal", LITERALS.values(), ids=LITERALS.keys())
def test_bad_permutation_literal(tmp_path, capsys, literal):
    _check(*_run(capsys, ["unpack", literal, "-o", str(tmp_path / "out")]))
    path = tmp_path / "literal.txt"
    path.write_text(literal)
    _check(*_run(capsys, ["unpack", "--file", str(path), "-o", str(tmp_path / "out")]))


@pytest.mark.parametrize("verb, text", [
    pytest.param(["render"], TREE_JSON["n-word"], id="render:n-word"),
    pytest.param(["render"], TREE_JSON["n-overflow"], id="render:n-overflow"),
    pytest.param(["render"], TREE_JSON["n-float"], id="render:n-float"),
    pytest.param(["render"], TREE_JSON["rank-bool"], id="render:rank-bool"),
    pytest.param(["padic-decode"], ENCODING_JSON["p-past-bound"], id="padic-decode:p-past-bound"),
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

"""Byte-level mutation fuzz of every file reader through ``cli.main``.

One valid file per input format is mutated by a few edits (insert,
delete, replace, duplicate) whose pieces are the characters and tokens
that readers have tripped on: ``,`` ``"`` a carriage return, an Arabic-Indic
digit, NUL, ``1e400`` and ``nan``.  Each verb that reads the format runs on
the mutated bytes: it exits 0, or exits 1 with exactly one ``E_CODE:
message`` line on stderr; an exception escaping ``main`` fails the test.
The search is derandomized, so every run tries the same inputs."""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from dendrocode.cli import main

TREE = json.dumps({
    "n": 3, "labels": ["a", "b", "c"],
    "nodes": [{"rank": 1, "height": 1.0, "left": "t1", "right": "t2"},
              {"rank": 2, "height": 2.0, "left": "q1", "right": "t3"}],
})
FILES = {
    "data": "x,y\na,1,2\nb,3,4\nc,5,7\nd,2,8\n",
    "matrix": ",a,b,c\na,0,1,2\nb,1,0,2\nc,2,2,0\n",
    "tree": TREE,
    "encoding": json.dumps({"p": 3, "n": 3, "labels": ["a", "b", "c"], "C": [1, 1, -1, 1, 0, -1]}),
    "wavelet": ",s2,d2,d1\nc1,1,2,3\nc2,4,5,6\n",
    "strings": "a,241\nb,248\nc,1\n",
    "stream": "4\n7\n9\n10\n6\n11\n3\n",
    "table": ",d1,d2,d3\na,1,0,1\nb,0,1,1\nc,1,1,0\n",
    "dna": "s1,ACGT\ns2,ACGA\ns3,TTGA\n",
    "literal": "(2,1,3)\n",
}
# each verb form, with the format of the file it reads
VERBS = [
    (["cluster"], "data"), (["haar"], "data"), (["ultrametricity", "--data"], "data"),
    (["cluster"], "matrix"), (["verify-um"], "matrix"), (["canonical"], "matrix"),
    (["ultrametricity"], "matrix"),
    (["cophenetic"], "tree"), (["padic-encode"], "tree"), (["packed"], "tree"), (["render"], "tree"),
    (["padic-decode"], "encoding"), (["padic-dist"], "encoding"),
    (["haar-inverse"], "wavelet"), (["haar-denoise", "--epsilon", "0.5"], "wavelet"),
    (["baire-cluster"], "strings"), (["baire-dist"], "strings"), (["baire-dist", "--exact"], "strings"),
    (["ordinal", "--order", "2"], "stream"), (["rankperm"], "stream"),
    (["lattice"], "table"), (["lattice", "--level", "1"], "table"),
    (["dna-encode"], "dna"),
    (["unpack", "--file"], "literal"),
]
ERROR_LINE = re.compile(r"E_[A-Z]+: [^\n]*\n")
PIECES = [piece.encode() for piece in (",", '"', "\r", "١", "\x00", "1e400", "nan")]


@st.composite
def mutated_runs(draw) -> tuple[list[str], bytes]:
    """A verb form and its format's file after one to four edits."""
    argv, kind = draw(st.sampled_from(VERBS))
    data = bytearray(FILES[kind].encode())
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "replace", "duplicate"]))
        at = draw(st.integers(0, len(data)))
        end = draw(st.integers(at, min(at + 8, len(data))))
        if edit == "insert":
            data[at:at] = draw(st.sampled_from(PIECES))
        elif edit == "delete":
            del data[at:end]
        elif edit == "replace":
            data[at:end] = draw(st.sampled_from(PIECES))
        else:
            data[end:end] = data[at:end]
    return argv, bytes(data)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "tree.json").write_text(TREE)
    return root


@settings(max_examples=1200, deadline=None, derandomize=True, database=None)
@given(run=mutated_runs())
# a data header that does not match the rows' width used to end in an IndexError
@example(run=(["haar"], b"x,y\na,1,2\nb,3,4\nc,5,7\n"))
@example(run=(["haar"], b"x\n1,2\n3,4\n5,7\n"))
@example(run=(["haar"], b"a,b,c\n1,2\n3,4\n5,7\n"))
def test_mutated_input_exits_cleanly(workdir, run):
    argv, data = run
    path = workdir / "input"
    path.write_bytes(data)
    if argv[0] in ("haar-inverse", "haar-denoise"):
        argv = [*argv, "--tree", str(workdir / "tree.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, str(path), "-o", str(workdir / "out")])
    assert (code, stderr.getvalue()) == (0, "") or (
        code == 1 and ERROR_LINE.fullmatch(stderr.getvalue())), (code, stderr.getvalue())

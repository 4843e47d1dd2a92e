from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dendrocode.hierarchy import Dendrogram, MergeNode, internal, terminal


def random_tree(n: int, rng: random.Random, heights: str = "monotone") -> Dendrogram:
    """Random ranked binary tree on n terminals.

    heights="monotone" draws sorted positive heights; "rank" uses the rank
    values; "jumbled" draws unsorted heights (inversions allowed).
    """
    refs = [terminal(i) for i in range(n)]
    nodes = []
    if heights == "monotone":
        hs = sorted(rng.uniform(0.1, 10.0) for _ in range(n - 1))
    elif heights == "rank":
        hs = [float(r) for r in range(1, n)]
    else:
        hs = [rng.uniform(0.1, 10.0) for _ in range(n - 1)]
    for rank in range(1, n):
        i, j = rng.sample(range(len(refs)), 2)
        left, right = refs[i], refs[j]
        if rng.random() < 0.5:
            left, right = right, left
        nodes.append(MergeNode(rank, hs[rank - 1], left, right))
        refs = [refs[k] for k in range(len(refs)) if k not in (i, j)]
        refs.append(internal(rank))
    labels = tuple(f"t{i + 1}" for i in range(n))
    return Dendrogram(labels, tuple(nodes))


def dense_table_csv() -> str:
    """A 60-object by 20-attribute boolean table, each cell 1 with
    probability 0.8 (fixed seed): its union closure has far more than 4,096
    subsets, so it trips the semilattice vertex guard."""
    rng = random.Random(0)
    lines = ["," + ",".join(f"a{j + 1}" for j in range(20))]
    for i in range(60):
        lines.append(f"o{i + 1}," + ",".join(str(int(rng.random() < 0.8)) for _ in range(20)))
    return "\n".join(lines) + "\n"


def caterpillar(n: int, lean: str) -> Dendrogram:
    """Rank 1 merges t1 and t2; every later rank r merges q(r-1) with
    terminal index r at height r, drawing q(r-1) on the ``lean`` side."""
    nodes = [MergeNode(1, 1.0, terminal(0), terminal(1))]
    for r in range(2, n):
        pair = (internal(r - 1), terminal(r))
        nodes.append(MergeNode(r, float(r), *(pair if lean == "left" else pair[::-1])))
    return Dendrogram(tuple(f"t{i + 1}" for i in range(n)), tuple(nodes))


def corrupt(enc, rng):
    """Rows of ``enc`` with two columns swapped, one column negated (a
    child swap), part or all of one sign group of a column flipped, or one
    nonzero entry moved to a zero of its column."""
    rows = [list(row) for row in enc.C]
    n, width = enc.n, enc.n - 1
    kind = rng.randrange(4)
    if kind == 0:
        a, b = rng.sample(range(width), 2)
        for row in rows:
            row[a], row[b] = row[b], row[a]
    elif kind == 1:
        j = rng.randrange(width)
        for row in rows:
            row[j] = -row[j]
    elif kind == 2:
        j, sign = rng.randrange(width), rng.choice((1, -1))
        group = [i for i in range(n) if rows[i][j] == sign]
        for i in rng.sample(group, rng.randrange(1, len(group) + 1)):
            rows[i][j] = -sign
    else:
        j = rng.randrange(width - 1)  # the root column has no zero to move to
        source = rng.choice([i for i in range(n) if rows[i][j]])
        target = rng.choice([i for i in range(n) if not rows[i][j]])
        rows[target][j], rows[source][j] = rows[source][j], 0
    return tuple(map(tuple, rows))


def encoding_sweep(p: int, rng: random.Random) -> list:
    """Encodings at prime p: the constructor's with no terminal, the
    one-terminal tree's, a random and a caterpillar tree's for n = 2, ...,
    40, and for n >= 3 a corrupted copy of each that the constructor
    accepts and ``decode`` rejects, when one of five tries gives one."""
    from dendrocode.errors import MalformedEncodingError
    from dendrocode.padic import PadicEncoding, decode, encode_dendrogram

    out = [PadicEncoding(p, (), ()), encode_dendrogram(Dendrogram(("t1",), ()), p)]
    for n in range(2, 41):
        for tree in (random_tree(n, rng, heights="rank"),
                     caterpillar(n, rng.choice(("left", "right")))):
            enc = encode_dendrogram(tree, p)
            out.append(enc)
            for _ in range(5 if n >= 3 else 0):
                try:
                    bad = PadicEncoding(p, enc.labels, corrupt(enc, rng))
                except MalformedEncodingError:
                    continue
                try:
                    decode(bad)
                except MalformedEncodingError:
                    out.append(bad)
                    break
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)

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


def caterpillar(n: int, lean: str) -> Dendrogram:
    """Rank 1 merges t1 and t2; every later rank r merges q(r-1) with
    terminal index r at height r, drawing q(r-1) on the ``lean`` side."""
    nodes = [MergeNode(1, 1.0, terminal(0), terminal(1))]
    for r in range(2, n):
        pair = (internal(r - 1), terminal(r))
        nodes.append(MergeNode(r, float(r), *(pair if lean == "left" else pair[::-1])))
    return Dendrogram(tuple(f"t{i + 1}" for i in range(n)), tuple(nodes))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)

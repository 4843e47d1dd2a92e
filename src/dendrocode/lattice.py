"""Generalized (set-valued) ultrametric on boolean attribute tables: pairwise
dissimilarities valued in the subset lattice of attributes, the realized join
semilattice with its covering relations, and level-thresholded clusters.

The dissimilarity of two 0/1 rows is the set of attributes NOT shared as a
joint presence: a coordinate contributes unless both rows hold a 1 there.
Union realizes the join, and d(x,z) is always contained in
d(x,y) | d(y,z), the set-valued strong triangle inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceGuardError

_CLIQUE_GUARD = 64
_VERTEX_GUARD = 4096


@dataclass(frozen=True)
class BooleanTable:
    """Objects (rows) by boolean attributes (columns)."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.objects):
            raise DomainError("one row per object required")
        rows = []
        for label, row in zip(self.objects, self.cells):
            row = tuple(int(v) for v in row)
            if len(row) != len(self.attributes):
                raise DomainError(f"row {label!r} has {len(row)} cells, expected {len(self.attributes)}")
            if any(v not in (0, 1) for v in row):
                raise DomainError(f"row {label!r} contains a non-boolean cell")
            rows.append(row)
        object.__setattr__(self, "cells", tuple(rows))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @property
    def n(self) -> int:
        return len(self.objects)

    def row(self, label: str) -> tuple[int, ...]:
        try:
            return self.cells[self.objects.index(label)]
        except ValueError:
            raise DomainError(f"unknown object {label!r}") from None


def set_dissimilarity(a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
    """Attribute indices j where not (a_j = 1 and b_j = 1): the simple
    matching view in which a joint absence still separates."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise DomainError(f"rows have different lengths ({len(a)} vs {len(b)})")
    return frozenset(j for j, (x, y) in enumerate(zip(a, b)) if not (x == 1 and y == 1))


@dataclass(frozen=True)
class SemilatticeVertex:
    subset: frozenset[int]
    level: int
    pairs: tuple[tuple[str, str], ...]  # object pairs realizing this subset


@dataclass(frozen=True)
class Semilattice:
    """Realized dissimilarity subsets, closed under union, with covers."""

    table: BooleanTable
    vertices: tuple[SemilatticeVertex, ...]
    covers: tuple[tuple[frozenset[int], frozenset[int]], ...]  # (lower, upper)

    def vertex(self, subset: frozenset[int]) -> SemilatticeVertex:
        for v in self.vertices:
            if v.subset == subset:
                return v
        raise DomainError(f"subset {sorted(subset)} is not a vertex")

    def subset_name(self, subset: frozenset[int]) -> str:
        return ",".join(self.table.attributes[j] for j in sorted(subset)) or "(empty)"


def build_semilattice(table: BooleanTable) -> Semilattice:
    """Distinct pairwise dissimilarity subsets, union-closed, each annotated
    with the object pairs mapping to it; covering edges by inclusion.

    Subsets are int bitmasks while they are built.  The closure of a family
    F together with r is F, r and every c | r for c in F.  A cover is a pair
    of vertices with none between, so the covers are
    ``below & (below @ below == 0)`` for strict inclusion ``below``, read
    row-major in vertex order.
    """
    if table.n < 2:
        raise DegenerateInputError("need at least two objects")
    width = len(table.attributes)
    full = (1 << width) - 1
    rows = [sum(v << j for j, v in enumerate(row)) for row in table.cells]
    realized: dict[int, list[tuple[str, str]]] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(table.objects), 2):
        realized.setdefault(full & ~(rows[i] & rows[j]), []).append((a, b))
    closed: set[int] = set()
    for r in realized:
        closed |= {r} | {c | r for c in closed}
        if len(closed) > _VERTEX_GUARD:  # checked each step; a step at most doubles the family
            raise ResourceGuardError(f"{len(closed)} subsets exceed the vertex guard ({_VERTEX_GUARD})")
    bits = {m: [j for j in range(width) if m >> j & 1] for m in closed}
    order = sorted(closed, key=lambda m: (len(bits[m]), bits[m]))
    vertices = tuple(
        SemilatticeVertex(frozenset(bits[m]), len(bits[m]), tuple(realized.get(m, ()))) for m in order
    )
    inside = np.array([[m >> j & 1 for j in range(width)] for m in order], dtype=np.float32)
    # strict inclusion as 0/1: a lies below b when a has no member outside b
    below = (inside @ (1 - inside).T == 0) - np.eye(len(order), dtype=np.float32)
    cover = (below == 1) & (below @ below == 0)
    covers = tuple((vertices[a].subset, vertices[b].subset) for a, b in zip(*np.nonzero(cover)))
    return Semilattice(table, vertices, covers)


def _maximal_cliques(adjacency: dict[int, set[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting; fine at the guarded desk scale."""
    cliques: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adjacency), set())
    return cliques


def clusters_at_level(table: BooleanTable, k: int) -> list[tuple[str, ...]]:
    """Maximal object subsets whose internal pairs all have dissimilarity
    cardinality <= k: maximal cliques of the threshold graph, possibly
    overlapping, sorted lexicographically by member labels."""
    if not 0 <= k <= len(table.attributes):
        raise DomainError(f"level must lie in 0..{len(table.attributes)}")
    if table.n > _CLIQUE_GUARD:
        raise ResourceGuardError(
            f"{table.n} objects exceed the clique-enumeration guard ({_CLIQUE_GUARD})"
        )
    adjacency: dict[int, set[int]] = {i: set() for i in range(table.n)}
    for i, j in itertools.combinations(range(table.n), 2):
        if len(set_dissimilarity(table.cells[i], table.cells[j])) <= k:
            adjacency[i].add(j)
            adjacency[j].add(i)
    cliques = _maximal_cliques(adjacency)
    named = [tuple(sorted(table.objects[i] for i in clique)) for clique in cliques]
    named.sort()
    return named


def semilattice_text(lat: Semilattice) -> str:
    """Indented text rendering: vertices by level with their pair
    annotations, then the covering edges."""
    lines = ["Lattice vertices found      Level"]
    for v in lat.vertices:
        lines.append(f"  {lat.subset_name(v.subset):<26s}{v.level}")
    lines.append("")
    for v in lat.vertices:
        if v.pairs:
            pair_text = ", ".join(f"d({a},{b})" for a, b in v.pairs)
            lines.append(f"  {lat.subset_name(v.subset)} corresponds to: {pair_text}")
    lines.append("")
    for low, high in lat.covers:
        lines.append(f"  {lat.subset_name(low)} < {lat.subset_name(high)}")
    return "\n".join(lines) + "\n"

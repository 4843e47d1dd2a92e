from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from dendrocode.cli import main
from dendrocode.errors import DomainError, ResourceGuardError
from dendrocode.formats import read_boolean_table_csv
from dendrocode.lattice import (
    BooleanTable,
    build_semilattice,
    clusters_at_level,
    semilattice_text,
    set_dissimilarity,
)

from conftest import dense_table_csv
from oracles import semilattice_by_pairs
from reference import FCA_ATTRIBUTES, FCA_CELLS, FCA_OBJECTS


@pytest.fixture(scope="module")
def table():
    return BooleanTable(FCA_OBJECTS, FCA_ATTRIBUTES, FCA_CELLS)


class TestSetDissimilarity:
    def test_mixed_pair(self):
        assert set_dissimilarity((1, 0, 1), (0, 1, 1)) == frozenset({0, 1})

    def test_identical_rows_share_only_joint_presences(self):
        assert set_dissimilarity((1, 0, 1), (1, 0, 1)) == frozenset({1})

    def test_all_ones_against_itself(self):
        assert set_dissimilarity((1, 1, 1), (1, 1, 1)) == frozenset()

    def test_joint_absence_still_separates(self):
        assert set_dissimilarity((0,), (0,)) == frozenset({0})

    def test_symmetry(self):
        a, b = (1, 0, 1, 0), (0, 0, 1, 1)
        assert set_dissimilarity(a, b) == set_dissimilarity(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            set_dissimilarity((1, 0), (1, 0, 1))

    @given(st.data())
    def test_generalized_strong_triangle(self, data):
        width = data.draw(st.integers(1, 5))
        row = st.lists(st.integers(0, 1), min_size=width, max_size=width).map(tuple)
        x, y, z = data.draw(row), data.draw(row), data.draw(row)
        assert set_dissimilarity(x, z) <= set_dissimilarity(x, y) | set_dissimilarity(y, z)


class TestSemilattice:
    def test_reference_vertices_and_levels(self, table):
        lat = build_semilattice(table)
        by_name = {lat.subset_name(v.subset): v.level for v in lat.vertices}
        assert by_name == {
            "d2": 1,
            "d1,d2": 2,
            "d2,d3": 2,
            "d1,d2,d3": 3,
        }

    def test_reference_pair_annotations(self, table):
        lat = build_semilattice(table)
        pairs = {lat.subset_name(v.subset): set(v.pairs) for v in lat.vertices}
        assert pairs["d1,d2,d3"] == {("b", "e"), ("e", "f")}
        assert pairs["d1,d2"] == {("a", "b"), ("a", "f"), ("b", "c"), ("b", "f"), ("c", "f")}
        assert pairs["d2,d3"] == {("a", "e"), ("c", "e")}
        assert pairs["d2"] == {("a", "c")}

    def test_pair_lists_partition_all_pairs(self, table):
        lat = build_semilattice(table)
        seen = [p for v in lat.vertices for p in v.pairs]
        assert sorted(seen) == sorted(itertools.combinations(table.objects, 2))
        realized = [v for v in lat.vertices if v.pairs]
        assert all(v.pairs for v in realized)

    def test_reference_covering_edges(self, table):
        lat = build_semilattice(table)
        names = {
            (lat.subset_name(lo), lat.subset_name(hi)) for lo, hi in lat.covers
        }
        assert names == {
            ("d2", "d1,d2"),
            ("d2", "d2,d3"),
            ("d1,d2", "d1,d2,d3"),
            ("d2,d3", "d1,d2,d3"),
        }

    def test_identical_all_ones_rows(self):
        t = BooleanTable(("p", "q"), ("v1", "v2"), ((1, 1), (1, 1)))
        lat = build_semilattice(t)
        assert len(lat.vertices) == 1
        assert lat.vertices[0].subset == frozenset()

    def test_union_closure_adds_missing_joins(self):
        # the three pairs realize {0,1}, {1,2} and {0,2}; their join
        # {0,1,2} is realized by no pair and must come from the closure
        t = BooleanTable(
            ("w", "x", "y"),
            ("v1", "v2", "v3", "v4"),
            ((1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1)),
        )
        lat = build_semilattice(t)
        subsets = {v.subset for v in lat.vertices}
        assert frozenset({0, 1, 2}) in subsets
        assert lat.vertex(frozenset({0, 1, 2})).pairs == ()

    def test_random_tables_are_union_closed(self, rng):
        for _ in range(20):
            n, w = rng.randrange(2, 7), rng.randrange(1, 5)
            cells = tuple(
                tuple(rng.randrange(2) for _ in range(w)) for _ in range(n)
            )
            t = BooleanTable(
                tuple(f"o{i}" for i in range(n)),
                tuple(f"v{j}" for j in range(w)),
                cells,
            )
            lat = build_semilattice(t)
            subsets = {v.subset for v in lat.vertices}
            for a, b in itertools.combinations(subsets, 2):
                assert a | b in subsets

    def test_text_rendering_mentions_everything(self, table):
        text = semilattice_text(build_semilattice(table))
        assert "d1,d2,d3" in text and "Level" in text and "d(a,c)" in text


def _table(cells) -> BooleanTable:
    return BooleanTable(
        tuple(f"o{i}" for i in range(len(cells))),
        tuple(f"v{j}" for j in range(len(cells[0]))),
        tuple(cells),
    )


@st.composite
def boolean_tables(draw):
    """Tables small enough for the referee: random rows, repeated rows,
    all-ones rows, a single attribute, and 70 attributes (masks past 64
    bits) on at most four rows."""
    width = draw(st.sampled_from([1, 2, 3, 4, 5, 70]))
    most = 4 if width == 70 else 8
    row = st.one_of(
        st.lists(st.integers(0, 1), min_size=width, max_size=width).map(tuple),
        st.just((1,) * width),
    )
    distinct = draw(st.lists(row, min_size=1, max_size=most))
    return _table(draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=most)))


class TestSemilatticeReferee:
    @given(boolean_tables())
    def test_equals_the_pairwise_referee(self, t):
        assert build_semilattice(t) == semilattice_by_pairs(t)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_shaped_tables(self, seed):
        """40 objects by 12 attributes with six attributes held per row."""
        rng = random.Random(seed)
        cells = [
            tuple(int(j in held) for j in range(12))
            for held in (set(rng.sample(range(12), 6)) for _ in range(40))
        ]
        t = _table(cells)
        assert build_semilattice(t) == semilattice_by_pairs(t)

    def test_vertex_guard(self, tmp_path, capsys):
        t = read_boolean_table_csv(dense_table_csv())
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="vertex guard"):
            build_semilattice(t)
        assert time.perf_counter() - start < 5.0
        path = tmp_path / "dense.csv"
        path.write_text(dense_table_csv())
        assert main(["lattice", str(path), "-o", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E_RESOURCE: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestClustersAtLevel:
    def test_level_two(self, table):
        assert clusters_at_level(table, 2) == [("a", "b", "c", "f"), ("a", "c", "e")]

    def test_level_three(self, table):
        assert clusters_at_level(table, 3) == [("a", "b", "c", "e", "f")]

    def test_level_zero_gives_singletons(self, table):
        assert clusters_at_level(table, 0) == [
            ("a",), ("b",), ("c",), ("e",), ("f",),
        ]

    def test_refinement_between_levels(self, rng):
        for _ in range(10):
            n, w = rng.randrange(3, 8), rng.randrange(2, 5)
            t = BooleanTable(
                tuple(f"o{i}" for i in range(n)),
                tuple(f"v{j}" for j in range(w)),
                tuple(tuple(rng.randrange(2) for _ in range(w)) for _ in range(n)),
            )
            for k in range(w):
                small = clusters_at_level(t, k)
                large = clusters_at_level(t, k + 1)
                for cluster in small:
                    assert any(set(cluster) <= set(big) for big in large)

    def test_bad_level_rejected(self, table):
        with pytest.raises(DomainError):
            clusters_at_level(table, 4)

    def test_clique_guard(self):
        n = 65
        t = BooleanTable(
            tuple(f"o{i}" for i in range(n)),
            ("v1",),
            tuple((1,) for _ in range(n)),
        )
        with pytest.raises(ResourceGuardError):
            clusters_at_level(t, 1)


class TestBooleanTableValidation:
    def test_non_boolean_cell_rejected(self):
        with pytest.raises(DomainError):
            BooleanTable(("a",), ("v1",), ((2,),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError):
            BooleanTable(("a", "b"), ("v1", "v2"), ((1, 0), (1,)))

    def test_row_lookup(self, table):
        assert table.row("e") == (1, 0, 0)
        with pytest.raises(DomainError):
            table.row("zz")

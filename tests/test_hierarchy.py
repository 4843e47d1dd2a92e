from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode.errors import (
    DegenerateInputError,
    DomainError,
    InputShapeError,
    RankRangeError,
)
from dendrocode.hierarchy import (
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    agglomerate,
    canonicalize,
    gap_counts,
    gap_levels,
    internal,
    member_sets,
    pairwise_distances,
    swap_children,
    swap_orbit,
    terminal,
)
from dendrocode.ultrametric import cophenetic_matrix

from conftest import caterpillar, random_tree
from oracles import lance_williams_linkage, naive_linkage_heights
from reference import COMPLETE_7_HEIGHTS, IRIS7, IRIS8, IRIS_LABELS7


class TestPairwiseDistances:
    def test_iris_pair_from_reference_table(self):
        d = pairwise_distances(IRIS7).values
        assert d[2, 3] == pytest.approx(0.2449490, abs=1e-7)

    def test_identical_rows(self):
        d = pairwise_distances([[1.0, 2.0], [1.0, 2.0]]).values
        assert d[0, 1] == 0.0

    def test_unlabelled_rows_are_named_by_the_matrix(self):
        m = pairwise_distances([[0.0], [1.0], [3.0]])
        assert m.labels == m.label_list() == ("t1", "t2", "t3")
        assert agglomerate(m).labels == ("t1", "t2", "t3")

    def test_hand_summed_pair(self):
        # iris5 vs iris6: squared coordinate differences sum to 0.38
        d = pairwise_distances(IRIS7).values
        assert d[4, 5] == pytest.approx(math.sqrt(0.38), abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        d = pairwise_distances(IRIS8)
        assert np.array_equal(d.values, d.values.T)
        assert np.all(np.diag(d.values) == 0.0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputShapeError):
            pairwise_distances([[1.0, 2.0], [1.0]])

    def test_missing_values_rejected(self):
        with pytest.raises(DomainError):
            pairwise_distances(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, np.inf], [0.0, 1.0]], "infinite values"),
            ([[-np.inf, 0.0], [0.0, 1.0]], "infinite values"),
            ([[1e308, 0.0], [-1e308, 0.0]], "overflow"),
            ([[1e200, 1e200], [-1e200, 0.0]], "overflow"),
        ],
    )
    def test_non_finite_rejected(self, rows, message):
        with pytest.raises(DomainError, match=message):
            pairwise_distances(np.array(rows))

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            pairwise_distances([[1.0, 2.0]])

    @pytest.mark.parametrize("shape", [(301, 50), (37, 3), (5, 20000), (70, 1000), (4, 70000)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_row_blocks_equal_the_full_broadcast(self, shape):
        # 301 rows of 50 split into blocks of 4 with one row left over; past
        # a row of 65,536 cells a block is a run of one row's columns (65
        # of 1,000), down to one pair
        arr = np.random.default_rng(3).normal(size=shape) * 100.0
        diff = arr[:, None, :] - arr[None, :, :]
        expected = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(pairwise_distances(arr).values, expected)


class TestAgglomerate:
    def test_two_objects_any_linkage(self):
        diss = DissimilarityMatrix(np.array([[0.0, 5.0], [5.0, 0.0]]))
        for linkage in ("single", "complete", "ward", "median"):
            tree = agglomerate(diss, linkage)
            assert tree.root.rank == 1
            assert tree.root.height == pytest.approx(5.0)

    def test_complete_heights_on_iris7_match_oracle(self):
        heights, _ = naive_linkage_heights([list(r) for r in IRIS7], "complete")
        tree = agglomerate(pairwise_distances(IRIS7, labels=IRIS_LABELS7), "complete")
        assert tree.heights() == pytest.approx(heights, abs=1e-12)
        assert tree.heights() == pytest.approx(COMPLETE_7_HEIGHTS, abs=1e-9)

    @pytest.mark.parametrize("linkage", ["single", "complete", "ward", "median"])
    def test_matches_from_members_oracle(self, linkage, rng):
        for trial in range(5):
            n = rng.randrange(4, 12)
            data = [[rng.uniform(0, 10) for _ in range(3)] for _ in range(n)]
            expected_h, expected_sets = naive_linkage_heights(data, linkage)
            tree = agglomerate(pairwise_distances(np.array(data)), linkage)
            assert tree.heights() == pytest.approx(expected_h, rel=1e-9)
            sets = member_sets(tree)
            assert [sets[r] for r in range(1, n)] == expected_sets

    @pytest.mark.parametrize("linkage", ["single", "complete", "ward", "median"])
    def test_tie_rule_on_integer_grids(self, linkage):
        # small integer grids tie often; single and complete heights come
        # from members, ward and median from the plain-Python recurrence
        oracle = naive_linkage_heights if linkage in ("single", "complete") else lance_williams_linkage
        rng = random.Random(1109)
        for n in range(2, 31):
            for dim in (1, 2, 3, 3):
                data = [[float(rng.randrange(4)) for _ in range(dim)] for _ in range(n)]
                expected_h, expected_sets = oracle(data, linkage)
                tree = agglomerate(pairwise_distances(np.array(data)), linkage)
                sets = member_sets(tree)
                assert [sets[r] for r in range(1, n)] == expected_sets
                assert list(tree.heights()) == expected_h

    @pytest.mark.parametrize("linkage", ["single", "complete", "ward"])
    def test_monotone_heights(self, linkage, rng):
        for _ in range(10):
            n = rng.randrange(3, 20)
            data = np.array([[rng.uniform(0, 5) for _ in range(2)] for _ in range(n)])
            hs = agglomerate(pairwise_distances(data), linkage).heights()
            assert all(a <= b for a, b in zip(hs, hs[1:]))

    def test_median_inversions_permitted(self):
        # the 8-flower iris sample has monotone median heights, but ranks
        # must record merge order even when a criterion inverts
        rng = random.Random(7)
        found_inversion = False
        for _ in range(200):
            n = rng.randrange(4, 9)
            data = np.array([[rng.uniform(0, 1) for _ in range(2)] for _ in range(n)])
            hs = agglomerate(pairwise_distances(data), "median").heights()
            if any(a > b for a, b in zip(hs, hs[1:])):
                found_inversion = True
                break
        assert found_inversion

    def test_bad_linkage_rejected(self):
        with pytest.raises(DomainError):
            agglomerate(pairwise_distances(IRIS7), "average")

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            agglomerate(DissimilarityMatrix(np.zeros((1, 1))), "single")

    def test_tie_rule_prefers_smallest_indices(self):
        # four equidistant points: first merge must be (0, 1)
        d = np.ones((4, 4)) - np.eye(4)
        tree = agglomerate(DissimilarityMatrix(d), "single")
        assert member_sets(tree)[1] == frozenset({0, 1})


class TestSwapAndCanonical:
    def test_swap_is_involution(self, rng):
        tree = random_tree(9, rng)
        for r in range(1, 9):
            assert swap_children(swap_children(tree, r), r) == tree

    def test_swap_preserves_cophenetic(self, rng):
        tree = random_tree(8, rng)
        base = cophenetic_matrix(tree).values
        for r in range(1, 8):
            swapped = cophenetic_matrix(swap_children(tree, r)).values
            assert np.array_equal(base, swapped)

    def test_swap_rank_out_of_range(self, rng):
        tree = random_tree(4, rng)
        with pytest.raises(RankRangeError):
            swap_children(tree, 4)
        with pytest.raises(RankRangeError):
            swap_children(tree, 0)

    def test_orbit_enumerates_distinct_drawings(self, rng):
        for n in (3, 4, 5):
            tree = random_tree(n, rng)
            drawings = {t.terminal_order() for t in swap_orbit(tree)}
            assert len(drawings) == 2 ** (n - 1)

    def test_canonicalize_idempotent(self, rng):
        tree = random_tree(10, rng)
        once = canonicalize(tree)
        assert canonicalize(once) == once

    def test_canonicalize_collapses_the_swap_orbit(self, rng):
        tree = random_tree(6, rng)
        canon = canonicalize(tree)
        for t in swap_orbit(tree):
            assert canonicalize(t) == canon

    def test_canonical_puts_later_merges_right(self, rng):
        tree = canonicalize(random_tree(10, rng))

        def own_rank(child):
            kind, idx = child
            return 0 if kind == "t" else idx

        for node in tree.nodes:
            assert own_rank(node.left) <= own_rank(node.right)


class TestDendrogramValidation:
    def test_rank_gap_rejected(self):
        with pytest.raises(DomainError):
            Dendrogram(
                ("a", "b", "c"),
                (
                    MergeNode(1, 1.0, terminal(0), terminal(1)),
                    MergeNode(3, 2.0, internal(1), terminal(2)),
                ),
            )

    def test_terminal_used_twice_rejected(self):
        with pytest.raises(DomainError, match="^every terminal and every non-root node needs exactly one parent$"):
            Dendrogram(
                ("a", "b", "c"),
                (
                    MergeNode(1, 1.0, terminal(0), terminal(1)),
                    MergeNode(2, 2.0, terminal(1), terminal(2)),
                ),
            )

    def test_non_integral_reference_rejected(self):
        # in range, distinct, and no terminal's index: 0.5 would break the walk
        with pytest.raises(DomainError, match="^every terminal and every non-root node needs exactly one parent$"):
            Dendrogram(("a", "b"), (MergeNode(1, 1.0, terminal(0), terminal(0.5)),))

    def test_parent_rank_must_exceed_child(self):
        with pytest.raises(DomainError):
            Dendrogram(
                ("a", "b", "c"),
                (
                    MergeNode(1, 1.0, terminal(0), internal(2)),
                    MergeNode(2, 2.0, terminal(1), terminal(2)),
                ),
            )

    def test_single_terminal_tree(self):
        tree = Dendrogram(("only",), ())
        assert tree.n == 1
        assert tree.root is None
        assert tree.terminal_order() == (0,)

    def test_negative_height_rejected(self):
        with pytest.raises(DomainError):
            Dendrogram(
                ("a", "b"),
                (MergeNode(1, -0.5, terminal(0), terminal(1)),),
            )

    @pytest.mark.parametrize(
        "rank, height, left",
        [
            (1, 1.0, ("t", 0.0)),  # tree JSON would write it as "t1.0"
            (1, 1.0, ("t", np.int64(0))),
            (1, 1.0, ("t", False)),
            (True, 1.0, terminal(0)),  # tree JSON would write "rank": true
            (np.int64(1), 1.0, terminal(0)),  # tree JSON cannot write it
            (1.0, 1.0, terminal(0)),
            (1, "x", terminal(0)),  # "x" >= 0.0 used to raise TypeError
            (1, True, terminal(0)),
            (1, np.float32(1.0), terminal(0)),
            (1, 10**400, terminal(0)),  # past the float range
        ],
        ids=["index-float", "index-numpy", "index-bool", "rank-bool", "rank-numpy",
             "rank-float", "height-str", "height-bool", "height-float32", "height-huge-int"],
    )
    def test_only_ints_and_floats_are_taken(self, rank, height, left):
        with pytest.raises(DomainError):
            Dendrogram(("a", "b"), (MergeNode(rank, height, left, terminal(1)),))

    @pytest.mark.parametrize("child", ["t0", None, ("t", "0"), ("t", 0, 1), ["t", 0], ("t",)],
                             ids=["text", "none", "text-index", "triple", "list", "single"])
    def test_malformed_child_is_a_bad_child_reference(self, child):
        with pytest.raises(DomainError, match=r"^bad child reference "):
            Dendrogram(("a", "b"), (MergeNode(1, 1.0, child, terminal(1)),))

    def test_node_that_is_no_merge_node_is_refused(self):
        with pytest.raises(DomainError, match=r"^node q1 is not a MergeNode: "):
            Dendrogram(("a", "b"), ((1, 1.0, terminal(0), terminal(1)),))

    def test_int_and_float64_heights_are_kept(self):
        for height in (2, np.float64(0.5), 0.0):
            tree = Dendrogram(("a", "b"), (MergeNode(1, height, terminal(0), terminal(1)),))
            assert tree.heights() == (height,)

    def test_labels_and_nodes_are_stored_as_tuples(self):
        node = MergeNode(1, 1.0, terminal(0), terminal(1))
        tree = Dendrogram(["a", "b"], [node])
        assert tree.labels == ("a", "b") and tree.nodes == (node,)
        assert hash(tree) == hash(Dendrogram(("a", "b"), (node,)))


class TestMembers:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.sampled_from(["random", "left", "right"]), st.integers(0, 2**32))
    def test_equal_member_sets(self, n, kind, seed):
        tree = random_tree(n, random.Random(seed)) if kind == "random" else caterpillar(n, kind)
        sets = member_sets(tree)
        for rank in range(1, n):
            assert tree.members(rank) == sets[rank]

    def test_reads_only_the_subtree(self):
        # the lowest node of a caterpillar has two members, while the sets
        # of every node (member_sets) hold n^2 / 2 indices, about 200 MB here
        tree = caterpillar(3000, "left")
        tracemalloc.start()
        try:
            assert tree.members(1) == frozenset({0, 1})
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert tree.members(2999) == frozenset(range(3000))

    def test_rank_out_of_range(self):
        tree = caterpillar(4, "right")
        for rank in (0, 4):
            with pytest.raises(RankRangeError):
                tree.members(rank)


@st.composite
def drawings(draw):
    """Each row's position in a drawing and one gap value between each two
    neighbouring positions: the rows are a permutation of the positions, or
    any rows, so positions repeat and some hold no row; now and then a gap
    past one or two bytes."""
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pos = draw(st.permutations(range(m)))
    else:
        pos = draw(st.lists(st.integers(0, m - 1), max_size=14))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.intp]))
    values = st.one_of(st.integers(0, 9), st.sampled_from([255, 256, 65535, 65536]))
    gaps = draw(st.lists(values, min_size=m - 1, max_size=m - 1))
    return np.array(pos, dtype=np.intp), np.array(gaps, dtype=dtype)


def largest_gaps_between(pos, gaps):
    """The largest gap between the positions of each two rows, 0 where the
    two share a position, one pair at a time."""
    return [[int(gaps[min(a, b) : max(a, b)].max()) if a != b else 0 for b in pos] for a in pos]


class TestGapLevels:
    @settings(max_examples=300, deadline=None)
    @given(drawings())
    def test_equals_the_largest_gap_between(self, drawing):
        pos, gaps = drawing
        n = len(pos)
        levels = gap_levels(pos, gaps)
        assert levels.dtype == np.min_scalar_type(max(gaps.tolist(), default=0))
        assert np.array_equal(levels, np.array(largest_gaps_between(pos, gaps), dtype=np.int64).reshape(n, n))

    @settings(max_examples=300, deadline=None)
    @given(drawings())
    def test_counts_are_the_counts_of_the_largest_gaps(self, drawing):
        pos, gaps = drawing
        expected = Counter(itertools.chain.from_iterable(largest_gaps_between(pos, gaps)))
        assert gap_counts(pos, gaps) == dict(expected)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_gaps(self, n):
        """Below two rows there are no gaps: the table is n x n zeros in one byte."""
        gaps = np.zeros(0, dtype=np.intp)
        levels = gap_levels(np.zeros(n, dtype=np.intp), gaps)
        assert (levels.shape, levels.dtype, levels.tolist()) == ((n, n), np.uint8, [[0]] * n)
        assert gap_counts(np.zeros(n, dtype=np.intp), gaps) == ({0: 1} if n else {})

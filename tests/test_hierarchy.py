from __future__ import annotations

import math
import random

import numpy as np
import pytest

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
    internal,
    member_sets,
    pairwise_distances,
    swap_children,
    swap_orbit,
    terminal,
)
from dendrocode.ultrametric import cophenetic_matrix

from conftest import random_tree
from oracles import naive_linkage_heights
from reference import COMPLETE_7_HEIGHTS, IRIS7, IRIS8, IRIS_LABELS7


class TestPairwiseDistances:
    def test_iris_pair_from_reference_table(self):
        d = pairwise_distances(IRIS7).values
        assert d[2, 3] == pytest.approx(0.2449490, abs=1e-7)

    def test_identical_rows(self):
        d = pairwise_distances([[1.0, 2.0], [1.0, 2.0]]).values
        assert d[0, 1] == 0.0

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

    @pytest.mark.parametrize("linkage", ["single", "complete", "ward"])
    def test_nn_chain_equals_greedy(self, linkage, rng):
        for n in (8, 33, 64):
            data = np.array([[rng.uniform(0, 1) for _ in range(4)] for _ in range(n)])
            diss = pairwise_distances(data)
            greedy = agglomerate(diss, linkage, method="greedy")
            chain = agglomerate(diss, linkage, method="nn-chain")
            assert greedy.heights() == pytest.approx(chain.heights(), rel=1e-12)
            assert member_sets(greedy) == member_sets(chain)

    def test_nn_chain_refuses_median(self):
        diss = pairwise_distances(IRIS7)
        with pytest.raises(DomainError):
            agglomerate(diss, "median", method="nn-chain")

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
        with pytest.raises(DomainError):
            Dendrogram(
                ("a", "b", "c"),
                (
                    MergeNode(1, 1.0, terminal(0), terminal(1)),
                    MergeNode(2, 2.0, terminal(1), terminal(2)),
                ),
            )

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

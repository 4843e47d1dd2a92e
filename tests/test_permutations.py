from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from dendrocode import formats
from dendrocode.errors import (
    DomainError,
    ResourceGuardError,
    UnrealizablePermutationError,
)
from dendrocode.hierarchy import canonicalize, member_sets, swap_children
from dendrocode.permutations import (
    TIE_RULES,
    OrdinalPattern,
    PackedPermutation,
    enumerate_nlr,
    is_down_up,
    is_up_down,
    ordinal_pattern,
    ordinal_sequence,
    packed_representation,
    rank_permutation,
    unpack,
)

from conftest import random_tree
from oracles import (
    alternating_count,
    nlr_by_nested_shapes,
    ordinal_sequence_by_windows,
    rank_permutation_by_sort,
    unpack_by_spans,
)
from reference import packed_example_tree

STREAM = (4.0, 7.0, 9.0, 10.0, 6.0, 11.0, 3.0)


def shape_code(tree):
    """Label-free canonical code of a ranked topology."""
    tree = canonicalize(tree)

    def walk(child):
        kind, idx = child
        if kind == "t":
            return (0,)
        node = tree.nodes[idx - 1]
        return (node.rank, walk(node.left), walk(node.right))

    return walk(("q", tree.nodes[-1].rank)) if tree.nodes else (0,)


class TestOrdinalPattern:
    @pytest.mark.parametrize(
        "window,expected",
        [((4, 7, 9), "012"), ((9, 10, 6), "201"), ((10, 6, 11), "102")],
    )
    def test_reference_windows(self, window, expected):
        assert ordinal_pattern(window).text() == expected

    def test_decreasing_triple(self):
        assert ordinal_pattern((9, 5, 1)).text() == "210"

    def test_tie_rule_earlier_index_ranks_lower(self):
        # equal values: the earlier position counts as smaller
        assert ordinal_pattern((5, 5, 1)).text() == "201"

    def test_later_low_tie_rule(self):
        assert ordinal_pattern((5, 5, 1), tie_rule="later-low").text() == "210"

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            ordinal_pattern(())

    def test_symbols_validated(self):
        with pytest.raises(DomainError):
            OrdinalPattern((0, 2))


class TestOrdinalSequence:
    def test_reference_stream(self):
        patterns, classes = ordinal_sequence(STREAM, d=2, tau=1)
        assert " ".join(p.text() for p in patterns) == "012 012 201 102 201"
        assert {k: len(v) for k, v in classes.items()} == {
            "012": 2,
            "201": 2,
            "102": 1,
        }

    def test_constant_stream(self):
        patterns, classes = ordinal_sequence([3.0] * 6, d=2, tau=1)
        assert {p.text() for p in patterns} == {"012"}
        assert len(classes) == 1

    def test_order_one_counts_moves(self):
        for tau in (1, 2):
            patterns, _ = ordinal_sequence(STREAM, d=1, tau=tau)
            assert len(patterns) == len(STREAM) - tau

    def test_too_short_reports_minimum(self):
        with pytest.raises(DomainError, match="at least 7"):
            ordinal_sequence((1.0, 2.0), d=3, tau=2)

    def test_class_sizes_sum_to_window_count(self, rng):
        stream = [rng.uniform(0, 1) for _ in range(40)]
        patterns, classes = ordinal_sequence(stream, d=3, tau=2)
        assert sum(len(v) for v in classes.values()) == len(patterns)

    def test_invariant_under_increasing_transforms(self, rng):
        stream = [rng.uniform(0, 2) for _ in range(30)]
        base, _ = ordinal_sequence(stream, d=2, tau=1)
        for transform in (math.exp, lambda x: 3.0 * x + 7.0, lambda x: x**3):
            mapped, _ = ordinal_sequence([transform(v) for v in stream], d=2, tau=1)
            assert mapped == base

    @given(st.lists(st.integers(-100, 100), min_size=5, max_size=20))
    def test_exp_invariance_hypothesis(self, stream):
        # integer values keep exp injective in floating point
        base, _ = ordinal_sequence(stream, d=2, tau=1)
        mapped, _ = ordinal_sequence([math.exp(v / 50.0) for v in stream], d=2, tau=1)
        assert mapped == base


class TestRankPermutation:
    def test_reference_stream(self):
        assert rank_permutation(STREAM, tau=1) == (1, 3, 4, 5, 2, 6, 0)

    def test_increasing_stream_lists_latest_first(self):
        assert rank_permutation((1.0, 2.0, 3.0, 4.0), tau=1) == (0, 1, 2, 3)

    def test_single_value(self):
        assert rank_permutation((5.0,), tau=1) == (0,)

    def test_delay_two_subsamples(self):
        # labels 0,1,2 pick stream[-1]=7, stream[-3]=8, stream[-5]=9
        assert rank_permutation((9.0, 1.0, 8.0, 2.0, 7.0), tau=2) == (2, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rank_permutation((), tau=1)


TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, math.inf, -math.inf, 2.5])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def streams(min_size=0):
    """Streams over a small tied alphabet, with both zeros and both
    infinities, or of arbitrary finite floats."""
    return st.one_of(st.lists(TIED, min_size=min_size, max_size=min_size + 40),
                     st.lists(FINITE, min_size=min_size, max_size=min_size + 40))


class TestStreamsAgainstTheReferees:
    @given(st.data(), st.integers(1, 6), st.integers(1, 4), st.sampled_from(TIE_RULES))
    def test_ordinal_sequence_equals_the_window_loop(self, data, d, tau, tie_rule):
        stream = data.draw(streams(min_size=d * tau + 1))
        patterns, classes = ordinal_sequence(stream, d, tau, tie_rule)
        expected, expected_classes = ordinal_sequence_by_windows(stream, d, tau, tie_rule)
        assert patterns == expected
        assert list(classes.items()) == list(expected_classes.items())
        assert len({id(p) for p in patterns}) == len(classes)

    @given(streams(min_size=1), st.integers(1, 4))
    def test_rank_permutation_equals_the_sort(self, stream, tau):
        assert rank_permutation(stream, tau) == rank_permutation_by_sort(stream, tau)

    def test_too_short_message_equals_the_window_loop(self):
        for fn in (ordinal_sequence, ordinal_sequence_by_windows):
            with pytest.raises(DomainError, match="^stream of length 2 too short: order 3 at "
                               "delay 2 needs at least 7 values$"):
                fn((1.0, 2.0), 3, 2)

    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
    def test_nan_is_refused(self, where):
        stream = [1.0, 2.0, 0.5, 3.0, 2.0, 4.0, 1.5]
        stream[where] = math.nan
        message = f"^stream value #{where + 1} is NaN, which has no order$"
        with pytest.raises(DomainError, match=message):
            ordinal_sequence(stream, 2)
        with pytest.raises(DomainError, match=message):
            rank_permutation(stream)

    @pytest.mark.parametrize("value", [10**400, "x"], ids=["past-float64", "text"])
    def test_values_float64_cannot_hold_are_refused(self, value):
        message = "^stream values must be real numbers in the float64 range$"
        with pytest.raises(DomainError, match=message):
            ordinal_sequence([1.0, value, 2.0], 1)
        with pytest.raises(DomainError, match=message):
            rank_permutation([1.0, value])

    def test_nan_window_is_refused(self):
        with pytest.raises(DomainError, match="^window value #2 is NaN"):
            ordinal_pattern((1.0, math.nan, 0.0))

    def test_equal_windows_share_one_pattern(self):
        patterns, classes = ordinal_sequence([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 0.0], d=2)
        assert [p.text() for p in patterns] == ["012", "201", "120", "012", "201"]
        assert patterns[0] is patterns[3] and patterns[1] is patterns[4]
        assert list(classes.items()) == [("012", [0, 3]), ("201", [1, 4]), ("120", [2])]


class TestPacked:
    def test_reference_eight_terminal_tree(self):
        perm = packed_representation(packed_example_tree())
        assert perm.values == (1, 3, 6, 2, 5, 7, 4, 8)
        assert perm.text() == "(13625748)"

    def test_two_leaf_tree(self, rng):
        assert packed_representation(random_tree(2, rng)).values == (1, 2)

    def test_invariant_under_child_swaps(self, rng):
        tree = random_tree(8, rng)
        base = packed_representation(tree)
        for r in range(1, 8):
            assert packed_representation(swap_children(tree, r)) == base

    def test_round_trip_from_reference(self):
        perm = PackedPermutation((1, 3, 6, 2, 5, 7, 4, 8))
        assert packed_representation(unpack(perm)) == perm

    def test_unpack_two_leaf(self):
        tree = unpack(PackedPermutation((1, 2)))
        assert tree.n == 2

    def test_wrong_sentinel_rejected(self):
        with pytest.raises(UnrealizablePermutationError, match="last value"):
            PackedPermutation((2, 1))

    def test_not_a_permutation_rejected(self):
        with pytest.raises(DomainError):
            PackedPermutation((1, 1, 3))

    def test_unrealizable_prefix_named(self):
        # (1,2,3,...) style chains are fine; this one forces a singleton
        # as the left flank of an already-merged right cluster
        with pytest.raises(UnrealizablePermutationError, match="rank 2"):
            unpack(PackedPermutation((2, 1, 3)))

    def test_exhaustive_round_trip_small_n(self):
        for n in range(2, 8):
            realizable = 0
            for tail in itertools.permutations(range(1, n)):
                perm = PackedPermutation(tail + (n,))
                try:
                    tree = unpack(perm)
                except UnrealizablePermutationError:
                    continue
                realizable += 1
                assert packed_representation(tree) == perm
            assert realizable == alternating_count(n - 1)

    def test_unpack_equals_the_span_referee(self):
        def outcome(fn, perm):
            try:
                return "".join(formats._tree_json_chunks(fn(perm)))
            except UnrealizablePermutationError as exc:
                return str(exc)

        for n in range(1, 8):
            for tail in itertools.permutations(range(1, n)):
                perm = PackedPermutation(tail + (n,))
                assert outcome(unpack, perm) == outcome(unpack_by_spans, perm)


class TestAlternationPredicates:
    def test_up_down_example(self):
        assert is_up_down((1, 3, 2))
        assert not is_down_up((1, 3, 2))

    def test_down_up_example(self):
        assert is_down_up((2, 1, 3))
        assert not is_up_down((2, 1, 3))

    def test_monotone_is_neither(self):
        assert not is_up_down((1, 2, 3))
        assert not is_down_up((1, 2, 3))

    def test_singleton_is_vacuously_both(self):
        assert is_up_down((1,)) and is_down_up((1,))


class TestEnumerateNlr:
    def test_counts_match_zigzag_numbers(self):
        expected = {n: alternating_count(n - 1) for n in range(2, 9)}
        assert expected == {
            2: 1, 3: 1, 4: 2, 5: 5, 6: 16, 7: 61, 8: 272,
        }
        for n, count in expected.items():
            assert len(enumerate_nlr(n)) == count

    def test_small_counts(self):
        assert len(enumerate_nlr(3)) == 1
        assert len(enumerate_nlr(4)) == 2
        assert len(enumerate_nlr(5)) == 5

    def test_guard_rejects_large_n(self):
        with pytest.raises(ResourceGuardError):
            enumerate_nlr(11)

    def test_shapes_distinct_and_packed_reps_unique(self):
        for n in (4, 5, 6, 7):
            trees = enumerate_nlr(n)
            codes = {shape_code(t) for t in trees}
            packed = {packed_representation(t).values for t in trees}
            assert len(codes) == len(trees)
            assert len(packed) == len(trees)

    def test_packed_reps_are_exactly_the_realizable_permutations(self):
        for n in (4, 5, 6):
            from_trees = {packed_representation(t).values for t in enumerate_nlr(n)}
            realizable = set()
            for tail in itertools.permutations(range(1, n)):
                perm = PackedPermutation(tail + (n,))
                try:
                    unpack(perm)
                except UnrealizablePermutationError:
                    continue
                realizable.add(perm.values)
            assert from_trees == realizable

    def test_packed_order_and_drawing_match_the_referee(self):
        """The shapes are the referee's, listed in increasing order of their
        packed permutations, each drawn as unpack draws it."""
        for n in range(1, 10):
            trees = enumerate_nlr(n)
            packed = [packed_representation(t) for t in trees]
            expected = sorted(packed_representation(t).values for t in nlr_by_nested_shapes(n))
            assert [p.values for p in packed] == expected
            assert all(tree == unpack(p) for tree, p in zip(trees, packed))

    def test_unpack_packed_identity_on_topologies(self):
        for tree in enumerate_nlr(6):
            rebuilt = unpack(packed_representation(tree))
            assert shape_code(rebuilt) == shape_code(tree)

    def test_ranks_record_merge_structure(self):
        for tree in enumerate_nlr(5):
            sets = member_sets(tree)
            for rank in range(1, 5):
                assert len(sets[rank]) >= 2

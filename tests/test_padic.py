from __future__ import annotations

import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from dendrocode import formats
from dendrocode.errors import DomainError, MalformedEncodingError
from dendrocode.hierarchy import (
    Dendrogram,
    MergeNode,
    internal,
    member_sets,
    swap_children,
    terminal,
)
from dendrocode.padic import (
    PadicCode,
    PadicEncoding,
    cluster_sets,
    code_classes,
    code_cluster_sets,
    decode,
    encode_dendrogram,
    evaluate_code,
    is_prime,
    padic_distance,
    padic_similarity,
    scale_operator,
    valuation_distance,
)

from conftest import caterpillar, random_tree
from oracles import decode_by_sets, lca_rank, trial_division_is_prime
from reference import EIGHT_LEAF_COEFFICIENTS, eight_leaf_example_tree


@pytest.fixture(scope="module")
def example_tree():
    return eight_leaf_example_tree()


@pytest.fixture(scope="module")
def example_encoding(example_tree):
    return encode_dendrogram(example_tree, 3)


class TestEncode:
    def test_coefficient_matrix_matches_reference(self, example_encoding):
        assert example_encoding.C == EIGHT_LEAF_COEFFICIENTS

    def test_x1_row(self, example_encoding):
        assert example_encoding.C[0] == (1, 1, 0, 0, 1, 0, 1)

    def test_x8_row(self, example_encoding):
        assert example_encoding.C[7] == (0, 0, 0, 0, 0, -1, -1)

    def test_two_leaf_tree(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 1.0, terminal(0), terminal(1)),))
        assert encode_dendrogram(tree, 3).C == ((1,), (-1,))

    def test_p2_rejected_citing_uniqueness(self, example_tree):
        with pytest.raises(DomainError, match="unique"):
            encode_dendrogram(example_tree, 2)

    def test_nonprime_rejected(self, example_tree):
        with pytest.raises(DomainError, match="prime"):
            encode_dendrogram(example_tree, 9)

    def test_child_swap_flips_one_column(self, example_tree):
        # swapping the lowest pair exchanges x1 and x2 in the drawing and
        # negates exactly the level-1 coefficients; cophenetic distances
        # are untouched
        from dendrocode.hierarchy import swap_children
        from dendrocode.ultrametric import cophenetic_matrix
        import numpy as np

        swapped = swap_children(example_tree, 1)
        order = example_tree.terminal_order()
        assert swapped.terminal_order() == (order[1], order[0]) + order[2:]
        enc = encode_dendrogram(example_tree, 3)
        enc_swapped = encode_dendrogram(swapped, 3)
        for i in range(8):
            assert enc_swapped.C[i][0] == -enc.C[i][0]
            assert enc_swapped.C[i][1:] == enc.C[i][1:]
        assert np.array_equal(
            cophenetic_matrix(example_tree).values,
            cophenetic_matrix(swapped).values,
        )


class TestEvaluate:
    def test_x1_at_p3(self, example_encoding):
        assert evaluate_code(example_encoding.code(0)) == 2442  # 3+9+243+2187

    def test_x8_at_p3(self, example_encoding):
        assert evaluate_code(example_encoding.code(7)) == -2916  # -729-2187

    def test_null_element(self):
        assert evaluate_code(PadicCode((0, 0, 0), 3)) == 0


class TestDecode:
    def test_reference_clusters(self, example_encoding):
        tree = decode(example_encoding)
        sets = member_sets(tree)
        assert sets[1] == frozenset({0, 1})
        assert sets[2] == frozenset({0, 1, 2})
        assert sets[3] == frozenset({3, 4})
        assert sets[4] == frozenset({3, 4, 5})
        assert sets[5] == frozenset({0, 1, 2, 3, 4, 5})
        assert sets[6] == frozenset({6, 7})
        assert sets[7] == frozenset(range(8))

    def test_round_trip_on_random_trees(self, rng):
        for _ in range(200):
            n = rng.randrange(2, 13)
            tree = random_tree(n, rng, heights="rank")
            enc = encode_dendrogram(tree, 3)
            rebuilt = decode(enc)
            assert rebuilt.labels == tree.labels
            assert [
                (node.rank, node.left, node.right) for node in rebuilt.nodes
            ] == [(node.rank, node.left, node.right) for node in tree.nodes]
            assert encode_dendrogram(rebuilt, 3) == enc

    def test_two_leaf_encoding(self):
        enc = PadicEncoding(3, ("a", "b"), ((1,), (-1,)))
        tree = decode(enc)
        assert tree.n == 2
        assert tree.root.left == terminal(0)

    def test_column_missing_a_sign_rejected(self):
        with pytest.raises(MalformedEncodingError):
            PadicEncoding(3, ("a", "b"), ((1,), (1,)))

    def test_zero_in_root_column_rejected(self):
        with pytest.raises(MalformedEncodingError):
            PadicEncoding(3, ("a", "b", "c"), ((1, 1), (-1, 1), (0, 0)))

    def test_non_nested_columns_rejected(self):
        # column 2 groups {a, c} on the +1 side, which is not a cluster
        bad = PadicEncoding(3, ("a", "b", "c", "d"), (
            (1, 1, 1),
            (-1, 0, 1),
            (0, 1, -1),
            (0, -1, -1),
        ))
        with pytest.raises(MalformedEncodingError):
            decode(bad)


def sweep_trees(rng):
    """Random, caterpillar and child-swapped trees, and the trees with one
    and two terminals."""
    trees = [
        Dendrogram(("solo",), ()),
        Dendrogram(("a", "b"), (MergeNode(1, 1.0, terminal(0), terminal(1)),)),
        caterpillar(9, "left"),
        caterpillar(12, "right"),
    ]
    for _ in range(30):
        tree = random_tree(rng.randrange(2, 14), rng, heights="rank")
        trees += [tree, swap_children(tree, rng.randrange(1, tree.n))]
    return trees


class TestTrustedEncodings:
    """``encode_dendrogram`` and the JSON reader build encodings without the
    constructor's checks; the checks must still pass on what they build."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_pass_the_public_validator(self, p, rng):
        for tree in sweep_trees(rng):
            enc = encode_dendrogram(tree, p)
            assert PadicEncoding(enc.p, enc.labels, enc.C) == enc
            read = formats.encoding_from_json(formats.encoding_to_json(enc))
            assert PadicEncoding(read.p, read.labels, read.C) == read == enc

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_decimal_codes_equal_evaluate_code(self, p, rng):
        for tree in sweep_trees(rng):
            enc = encode_dendrogram(tree, p)
            assert enc.decimal_codes() == tuple(evaluate_code(c) for c in enc.codes())


class TestConstructorChecks:
    @pytest.mark.parametrize("cell", [1.5, 1.0, True, "1", None])
    def test_non_integer_coefficient_rejected(self, cell):
        with pytest.raises(MalformedEncodingError, match=r"must lie in \{-1, 0, \+1\}"):
            PadicEncoding(3, ("a", "b", "c"), ((1, 1), (-1, cell), (0, -1)))

    def test_out_of_range_coefficient_rejected(self):
        for cell in (2, -2, 10**30):
            with pytest.raises(MalformedEncodingError, match="must lie in"):
                PadicEncoding(3, ("a", "b", "c"), ((1, 1), (-1, 1), (0, cell)))

    def test_first_failing_row_decides(self):
        # a bad cell above a short row is reported, a short row above a bad
        # cell is reported
        with pytest.raises(MalformedEncodingError, match="must lie in"):
            PadicEncoding(3, ("a", "b", "c"), ((1, 2), (-1,), (0, -1)))
        with pytest.raises(MalformedEncodingError, match="row for b has 1 levels, expected 2"):
            PadicEncoding(3, ("a", "b", "c"), ((1, 1), (-1,), (0, 2)))

    def test_zero_anywhere_in_root_column_rejected(self):
        for rows in (((0, 0), (1, 1), (-1, -1)), ((1, 1), (-1, -1), (0, 0))):
            with pytest.raises(MalformedEncodingError, match="root column must have no zero entries"):
                PadicEncoding(3, ("a", "b", "c"), rows)

    def test_first_one_sided_column_named(self):
        with pytest.raises(MalformedEncodingError, match="column 2 must contain"):
            PadicEncoding(3, ("a", "b", "c", "d"), ((1, 1, 1), (-1, 1, 1), (0, 0, -1), (0, 0, -1)))


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


class TestDecodeAgainstSets:
    def test_equals_set_oracle_on_corrupted_encodings(self, rng):
        seen = Counter()
        for _ in range(1500):
            n = rng.randrange(3, 12)
            tree = caterpillar(n, rng.choice(("left", "right"))) if rng.random() < 0.2 else (
                random_tree(n, rng, heights="rank"))
            enc = encode_dendrogram(tree, 3)
            try:
                bad = PadicEncoding(3, enc.labels, corrupt(enc, rng))
            except MalformedEncodingError:
                seen["constructor"] += 1
                continue
            try:
                expected = decode_by_sets(bad)
            except MalformedEncodingError as exc:
                with pytest.raises(MalformedEncodingError) as got:
                    decode(bad)
                assert str(got.value) == str(exc)
                seen["rejected"] += 1
            else:
                assert decode(bad) == expected
                seen["decoded"] += 1
        assert seen["rejected"] >= 300 and seen["decoded"] >= 300, seen


class TestSimilarityAndDistance:
    def test_reference_similarities(self, example_encoding):
        codes = example_encoding.codes()
        p = example_encoding.p
        assert padic_similarity(codes[0], codes[1]) == Fraction(1, p)
        assert padic_similarity(codes[0], codes[4]) == Fraction(1, p**5)
        assert padic_similarity(codes[4], codes[7]) == Fraction(1, p**7)

    def test_self_similarity_is_one(self, example_encoding):
        code = example_encoding.code(0)
        assert padic_similarity(code, code) == 1

    def test_distance_examples(self, example_encoding):
        codes = example_encoding.codes()
        assert padic_distance(codes[0], codes[1]) == Fraction(2, 3)
        assert padic_distance(codes[0], codes[0]) == 0

    def test_all_triples_ultrametric_exactly(self, example_encoding):
        codes = example_encoding.codes()
        triples = list(itertools.combinations(range(8), 3))
        assert len(triples) == 56
        for x, y, z in triples:
            for i, j, k in ((x, y, z), (y, x, z), (x, z, y)):
                lhs = padic_distance(codes[i], codes[k])
                rhs = max(
                    padic_distance(codes[i], codes[j]),
                    padic_distance(codes[j], codes[k]),
                )
                assert lhs <= rhs

    def test_lca_law_on_random_trees(self, rng):
        for _ in range(20):
            n = rng.randrange(2, 11)
            tree = random_tree(n, rng, heights="rank")
            enc = encode_dendrogram(tree, 5)
            codes = enc.codes()
            for i, j in itertools.combinations(range(n), 2):
                r = lca_rank(tree, i, j)
                assert padic_similarity(codes[i], codes[j]) == Fraction(1, 5**r)

    def test_strong_triangle_exact_on_random_trees(self, rng):
        for _ in range(10):
            n = rng.randrange(3, 11)
            enc = encode_dendrogram(random_tree(n, rng, heights="rank"), 3)
            codes = enc.codes()
            for x, y, z in itertools.combinations(range(n), 3):
                assert padic_distance(codes[x], codes[z]) <= max(
                    padic_distance(codes[x], codes[y]),
                    padic_distance(codes[y], codes[z]),
                )

    def test_mismatched_codes_rejected(self):
        with pytest.raises(DomainError):
            padic_similarity(PadicCode((1,), 3), PadicCode((1,), 5))
        with pytest.raises(DomainError):
            padic_similarity(PadicCode((1,), 3), PadicCode((1, 1), 3))


class TestScaleOperator:
    def test_reference_dilation_at_p2(self):
        # x1's coefficients evaluated at p=2: 2+4+32+128 = 166
        x1 = PadicCode((1, 1, 0, 0, 1, 0, 1), 2)
        assert evaluate_code(x1) == 166
        lifted = scale_operator(x1)
        assert evaluate_code(lifted) == 82  # 2+16+64
        assert lifted.coefficients == (1, 0, 0, 1, 0, 1, 0)

    def test_null_element_is_fixed_point(self):
        null = PadicCode((0, 0, 0), 5)
        assert scale_operator(null) == null

    def test_repeated_application_reaches_null(self, example_encoding):
        for i in range(8):
            code = PadicCode(example_encoding.C[i], 2)
            for _ in range(7):
                code = scale_operator(code)
            assert all(c == 0 for c in code.coefficients)

    def test_cluster_refinement(self, example_encoding):
        codes = [PadicCode(row, 3) for row in example_encoding.C]
        scaled = [scale_operator(c) for c in codes]
        originals = set(cluster_sets(example_encoding)) | {
            frozenset((i,)) for i in range(8)
        }
        lifted = set(code_cluster_sets(scaled)) | code_classes(scaled)
        # every original cluster is contained in some post-dilation cluster
        for cluster in originals:
            assert any(cluster <= target for target in lifted)
        # and the post-dilation clusters arise by merge-or-keep
        for target in lifted:
            assert any(target == c or target > c for c in originals)


class TestUniqueness:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_decimal_codes_distinct_for_p_at_least_3(self, p, rng):
        for _ in range(30):
            n = rng.randrange(2, 13)
            enc = encode_dendrogram(random_tree(n, rng, heights="rank"), p)
            values = [evaluate_code(c) for c in enc.codes()]
            assert len(set(values)) == n

    def test_p2_cross_tree_ambiguity_counterexample(self):
        # Two 5-terminal trees: in the first, a terminal's path contributes
        # +1*p^1 (+ shared tail); in the second, -1*p^1 +1*p^2 (+ same
        # tail).  At p=2 both partial sums equal 2, so the decimal codes
        # collide and the tree cannot be recovered; at p=3 they differ.
        a = PadicCode((1, 0, 0, 1), 2)   # enters at level 1 as left, then root-left
        b = PadicCode((-1, 1, 0, 1), 2)  # right at level 1, left at level 2, root-left
        assert evaluate_code(a) == evaluate_code(b) == 18
        a3 = PadicCode(a.coefficients, 3)
        b3 = PadicCode(b.coefficients, 3)
        assert evaluate_code(a3) != evaluate_code(b3)

    def test_p2_rows_realizable_in_actual_trees(self):
        # the colliding rows above are genuine encoding rows of these trees
        t1 = Dendrogram(
            ("a", "b", "c", "d", "e"),
            (
                MergeNode(1, 1.0, terminal(0), terminal(1)),
                MergeNode(2, 2.0, terminal(2), terminal(3)),
                MergeNode(3, 3.0, internal(2), terminal(4)),
                MergeNode(4, 4.0, internal(1), internal(3)),
            ),
        )
        t2 = Dendrogram(
            ("a", "b", "c", "d", "e"),
            (
                MergeNode(1, 1.0, terminal(1), terminal(0)),
                MergeNode(2, 2.0, internal(1), terminal(2)),
                MergeNode(3, 3.0, terminal(3), terminal(4)),
                MergeNode(4, 4.0, internal(2), internal(3)),
            ),
        )
        assert encode_dendrogram(t1, 3).C[0] == (1, 0, 0, 1)
        assert encode_dendrogram(t2, 3).C[0] == (-1, 1, 0, 1)


class TestValuationDistance:
    def test_factor_of_eight(self):
        assert valuation_distance(12, 4, 2) == 0.125

    def test_identical_points(self):
        assert valuation_distance(7, 7, 13) == 0.0

    def test_single_factor_of_seven(self):
        assert valuation_distance(10, 3, 7) == 0.5

    def test_nonprime_rejected(self):
        with pytest.raises(DomainError):
            valuation_distance(5, 1, 6)


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [p for p in range(-3, 10**5) if is_prime(p)] == [
            p for p in range(-3, 10**5) if trial_division_is_prime(p)
        ]

    def test_strong_pseudoprime_to_bases_2_3_5_7_rejected(self):
        assert trial_division_is_prime(3215031751) is False
        assert is_prime(3215031751) is False

    def test_large_primes_answered_at_once(self):
        start = time.perf_counter()
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**13 - 1))
        assert is_prime(3317044064679887385961813)  # the largest prime below the bound
        assert time.perf_counter() - start < 1.0

    def test_bound_named(self):
        with pytest.raises(DomainError, match="3317044064679887385961981"):
            is_prime(3317044064679887385961981)

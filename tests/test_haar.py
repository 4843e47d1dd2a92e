from __future__ import annotations

import random

import numpy as np
import pytest

from dendrocode import formats
from dendrocode.errors import AlignmentError, DomainError
from dendrocode.haar import HaarTransform, haar_forward, haar_inverse, haar_threshold
from dendrocode.hierarchy import (
    Dendrogram,
    MergeNode,
    agglomerate,
    pairwise_distances,
    swap_children,
    swap_orbit,
    terminal,
)

from conftest import caterpillar, random_tree
from oracles import csv_table, float_text, haar_forward_by_dict, haar_inverse_by_walk
from reference import IRIS8, IRIS_LABELS8, REFERENCE_WAVELET_8


@pytest.fixture(scope="module")
def iris_tree():
    return agglomerate(pairwise_distances(IRIS8, labels=IRIS_LABELS8), "median")


@pytest.fixture(scope="module")
def iris_transform(iris_tree):
    return haar_forward(iris_tree, IRIS8)


class TestForward:
    def test_reference_wavelet_table(self, iris_transform):
        ref = REFERENCE_WAVELET_8
        assert iris_transform.root_smooth == pytest.approx(ref["s7"], abs=1e-9)
        for rank in range(1, 8):
            assert iris_transform.detail(rank) == pytest.approx(
                ref[f"d{rank}"], abs=1e-9
            ), f"detail d{rank}"

    def test_root_plus_top_detail_is_a_terminal(self, iris_transform):
        # the largest flower sits alone under the root
        reconstructed = iris_transform.root_smooth + iris_transform.detail(7)
        assert reconstructed == pytest.approx((5.4, 3.9, 1.7, 0.4), abs=1e-12)

    def test_two_terminals(self):
        tree = Dendrogram(("u", "v"), (MergeNode(1, 1.0, terminal(0), terminal(1)),))
        data = np.array([[4.0, 8.0], [2.0, 2.0]])
        t = haar_forward(tree, data)
        assert np.allclose(t.root_smooth, [3.0, 5.0])
        assert np.allclose(t.detail(1), [1.0, 3.0])

    def test_constant_data_all_details_zero(self, rng):
        tree = random_tree(9, rng)
        data = np.tile([2.5, -1.0, 7.0], (9, 1))
        t = haar_forward(tree, data)
        for rank in range(1, 9):
            assert np.all(t.detail(rank) == 0.0)

    def test_row_count_mismatch_rejected(self, iris_tree):
        with pytest.raises(AlignmentError):
            haar_forward(iris_tree, IRIS8[:5])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[np.nan, 0.0], [1.0, 1.0], [2.0, 0.0]], "missing or infinite"),
            ([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]], "overflow"),  # a detail overflows
            ([[1e308, 1e308]] * 3, "overflow"),  # the smooths overflow
        ],
    )
    def test_non_finite_rejected(self, rows, message):
        tree = agglomerate(pairwise_distances([[0.0], [1.0], [3.0]]), "single")
        with pytest.raises(DomainError, match=message):
            haar_forward(tree, np.array(rows))

    def test_zero_mean_by_construction(self, iris_transform):
        # the signed contributions on the two child supports cancel exactly
        for rank in range(1, 8):
            d = iris_transform.detail(rank)
            assert np.all(d + (-d) == 0.0)


class TestInverse:
    def test_reference_table_inverts_to_the_sample(self, iris_transform):
        assert np.abs(haar_inverse(iris_transform) - IRIS8).max() <= 1e-12

    def test_identity_on_random_trees(self, rng):
        for _ in range(100):
            n = rng.randrange(2, 17)
            tree = random_tree(n, rng)
            data = np.array(
                [[rng.uniform(-1000, 1000) for _ in range(3)] for _ in range(n)]
            )
            err = np.abs(haar_inverse(haar_forward(tree, data)) - data).max()
            assert err <= 1e-12

    def test_zero_details_reconstruct_root_everywhere(self, iris_transform):
        wiped = haar_threshold(iris_transform, np.inf)
        out = haar_inverse(wiped)
        assert np.allclose(out, np.tile(iris_transform.root_smooth, (8, 1)))

    def test_single_terminal(self):
        tree = Dendrogram(("only",), ())
        data = np.array([[1.0, 2.0]])
        assert np.array_equal(haar_inverse(haar_forward(tree, data)), data)


class TestThreshold:
    def test_epsilon_zero_is_identity(self, iris_transform):
        out = haar_threshold(iris_transform, 0.0)
        for rank in range(1, 8):
            assert np.array_equal(out.detail(rank), iris_transform.detail(rank))

    def test_huge_epsilon_leaves_smooth_only(self, iris_transform):
        out = haar_threshold(iris_transform, 1e9)
        assert all(np.all(out.detail(r) == 0.0) for r in range(1, 8))
        assert np.array_equal(out.root_smooth, iris_transform.root_smooth)

    def test_reference_survivors_at_0_06(self, iris_transform):
        out = haar_threshold(iris_transform, 0.06)
        for rank in range(1, 8):
            before = iris_transform.detail(rank)
            after = out.detail(rank)
            for c in range(4):
                if abs(before[c]) >= 0.06:
                    assert after[c] == before[c]
                else:
                    assert after[c] == 0.0
        # the top detail survives wholesale; the small entries are gone
        assert np.array_equal(out.detail(7), iris_transform.detail(7))
        assert out.detail(4)[0] == 0.0  # -0.025 zeroed

    def test_negative_epsilon_rejected(self, iris_transform):
        with pytest.raises(DomainError):
            haar_threshold(iris_transform, -0.1)

    def test_nan_epsilon_rejected(self, iris_transform):
        # every |d| < nan is false, so NaN used to threshold nothing
        with pytest.raises(DomainError, match="^epsilon must be nonnegative$"):
            haar_threshold(iris_transform, float("nan"))

    def test_reconstruction_error_monotone_in_epsilon(self, rng):
        tree = random_tree(10, rng)
        data = np.array([[rng.uniform(0, 5) for _ in range(4)] for _ in range(10)])
        t = haar_forward(tree, data)
        errors = []
        for eps in (0.0, 0.01, 0.05, 0.2, 1.0, 10.0):
            out = haar_inverse(haar_threshold(t, eps))
            errors.append(np.abs(out - data).max())
        assert errors == sorted(errors)


class TestWreathInvariance:
    def test_swap_negates_one_detail_and_keeps_reconstruction(self, rng):
        tree = random_tree(8, rng)
        data = np.array([[rng.uniform(0, 9) for _ in range(3)] for _ in range(8)])
        base = haar_forward(tree, data)
        base_rec = haar_inverse(base)
        for r in range(1, 8):
            swapped = haar_forward(swap_children(tree, r), data)
            assert np.array_equal(swapped.root_smooth, base.root_smooth)
            assert np.array_equal(swapped.detail(r), -base.detail(r))
            for other in range(1, 8):
                if other != r:
                    assert np.array_equal(swapped.detail(other), base.detail(other))
            assert haar_inverse(swapped).tobytes() == base_rec.tobytes()

    def test_detail_magnitudes_constant_on_orbit(self, rng):
        tree = random_tree(6, rng)
        data = np.array([[rng.uniform(-3, 3) for _ in range(2)] for _ in range(6)])
        base = haar_forward(tree, data)
        from dendrocode.hierarchy import swap_orbit

        for t in swap_orbit(tree):
            other = haar_forward(t, data)
            for r in range(1, 6):
                assert np.array_equal(np.abs(other.detail(r)), np.abs(base.detail(r)))


def _referee_trees():
    """Every tree shape the referee test runs on, by name."""
    rng = random.Random(1501)
    trees = {
        "n1": Dendrogram(("x",), ()),
        "n2": Dendrogram(("u", "v"), (MergeNode(1, 1.0, terminal(0), terminal(1)),)),
    }
    for n in (3, 7, 16, 40):
        trees[f"monotone-{n}"] = random_tree(n, rng)
        trees[f"inverted-{n}"] = random_tree(n, rng, heights="jumbled")
        # one height for every node, and a median tree of tied grid data
        flat = random_tree(n, rng)
        trees[f"tied-{n}"] = Dendrogram(flat.labels, tuple(
            MergeNode(node.rank, 1.0, node.left, node.right) for node in flat.nodes))
        grid = [[rng.randrange(3), rng.randrange(3)] for _ in range(n)]
        trees[f"tied-median-{n}"] = agglomerate(pairwise_distances(grid), "median")
    for n in (3, 30):
        for lean in ("left", "right"):
            trees[f"caterpillar-{lean}-{n}"] = caterpillar(n, lean)
    six = random_tree(6, rng)
    for r in range(1, 6):
        trees[f"six-swap-{r}"] = swap_children(six, r)
    for k, tree in enumerate(swap_orbit(six)):
        trees[f"six-orbit-{k}"] = tree
    return trees


REFEREE_TREES = _referee_trees()
# cells whose last bits a reordered sum would change, signed zeros and the
# float extremes that do not overflow a smooth; among subnormals, halving
# before adding loses the last bit
CELLS = [-0.0, 0.0, 1 / 3, -2 / 3, 0.1, 1e300, -1e300, 5e-324, 2.2250738585072014e-308, 7.0]
SUBNORMALS = [5e-324, -5e-324, 1.5e-323, 2.5e-323, -3.5e-323, 0.0]


def _assert_identical(a, b):
    assert np.array_equal(a, b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()  # -0.0 too


class TestAgainstTheReferee:
    """The slot table against the dict forward and the walk inverse of
    ``tests/oracles.py``: the same bits everywhere."""

    @pytest.mark.parametrize("name", sorted(REFEREE_TREES))
    def test_coefficients_and_reconstruction_are_bit_identical(self, name):
        tree = REFEREE_TREES[name]
        rng = random.Random(name)
        for dim in (1, 3, 2):
            data = np.array([[rng.choice(CELLS) if rng.random() < 0.4 else rng.uniform(-1e3, 1e3)
                              for _ in range(dim)] for _ in range(tree.n)])
            if dim == 1:
                data = data[:, 0]  # a 1-D array is one coordinate
            if dim == 2:
                data[:, 1] = [rng.choice(SUBNORMALS) for _ in range(tree.n)]
            t, ref = haar_forward(tree, data), haar_forward_by_dict(tree, data)
            _assert_identical(t.root_smooth, ref.root_smooth)
            assert t.details.shape == (tree.n - 1, dim)
            for rank in range(1, tree.n):
                _assert_identical(t.detail(rank), ref.detail(rank))
            _assert_identical(haar_inverse(t), haar_inverse_by_walk(ref))
            thinned = haar_threshold(t, 1.0)
            _assert_identical(haar_inverse(thinned), haar_inverse_by_walk(thinned))

            header = ["", f"s{tree.n - 1}", *(f"d{r}" for r in range(tree.n - 1, 0, -1))]
            rows = [[float_text(ref.root_smooth[c], True)]
                    + [float_text(ref.detail(r)[c], True) for r in range(tree.n - 1, 0, -1)]
                    for c in range(dim)]
            text = formats.haar_to_csv(t, None, True)
            assert text == csv_table(header, [f"c{c + 1}" for c in range(dim)], rows)
            back, _ = formats.haar_from_csv(text, tree)
            _assert_identical(back.root_smooth, t.root_smooth)
            _assert_identical(back.details, t.details)

    def test_overflow_is_the_same_refusal(self):
        tree = caterpillar(4, "left")
        data = np.array([[1e308], [1e308], [-1e308], [1e308]])
        for forward in (haar_forward, haar_forward_by_dict):
            with pytest.raises(DomainError, match="overflows the float range"):
                forward(tree, data)


class TestConstructor:
    TREE = random_tree(4, random.Random(4))
    ROOT = [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_wrong_detail_count_refused(self, count):
        with pytest.raises(DomainError, match="^need exactly one detail vector per internal node$"):
            HaarTransform(self.TREE, self.ROOT, [self.ROOT] * count)

    @pytest.mark.parametrize("details", [
        [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]],
        [[1.0, 2.0, 3.0]] * 3,
        [[1.0, 2.0, 3.0, 4.0, 5.0]] * 3,
        [1.0, 2.0, 3.0],
        np.zeros((3, 2, 2)),  # the right number of cells in the wrong shape
    ], ids=["ragged", "narrow", "wide", "scalars", "block"])
    def test_wrong_shape_refused(self, details):
        with pytest.raises(DomainError, match="^detail vectors must match the smooth's dimensionality$"):
            HaarTransform(self.TREE, self.ROOT, details)

    def test_any_sequence_of_vectors(self):
        rows = [[float(r), -r / 3, 0.5, -0.0] for r in range(1, 4)]
        forms = (rows, tuple(map(np.array, rows)), np.array(rows), [tuple(row) for row in rows])
        for details in forms:
            t = HaarTransform(self.TREE, self.ROOT, details)
            _assert_identical(t.details, np.array(rows))

    def test_caller_arrays_are_copied(self):
        root, details = np.array(self.ROOT), np.ones((3, 4))
        rows = [row for row in np.ones((3, 4))]
        t = HaarTransform(self.TREE, root, details)
        u = HaarTransform(self.TREE, root, rows)
        root[0] = details[0, 0] = rows[0][0] = 9.0
        assert t.root_smooth[0] == 1.0 and u.root_smooth[0] == 1.0
        assert t.detail(1)[0] == 1.0 and u.detail(1)[0] == 1.0

    def test_coefficients_are_read_only(self):
        t = HaarTransform(self.TREE, self.ROOT, np.ones((3, 4)))
        assert not t.details.flags.writeable and not t.root_smooth.flags.writeable
        with pytest.raises(ValueError):
            t.details[0, 0] = 2.0
        assert not haar_threshold(t, 0.5).details.flags.writeable

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dendrocode import ultrametric
from dendrocode.errors import (DegenerateInputError, DomainError, InputShapeError,
                               NotUltrametricError, ResourceGuardError)
from dendrocode.hierarchy import (
    LINKAGES,
    Dendrogram,
    DissimilarityMatrix,
    MergeNode,
    UltrametricMatrix,
    _distances_finite,
    _pair_distances,
    agglomerate,
    pairwise_distances,
    swap_children,
    terminal,
)
from dendrocode.ultrametric import (
    EQUILATERAL,
    ISOSCELES_SMALL_BASE,
    METRIC_ONLY,
    _certify,
    _data_coefficient,
    _sampled_triples,
    canonical_form,
    check_canonical_form,
    classify_triangle,
    cophenetic_matrix,
    generate_cloud,
    ultrametricity_coefficient,
    verify_ultrametric,
)

from conftest import caterpillar, random_tree
from oracles import (
    brute_ultrametric_ok,
    brute_violating_combinations,
    brute_violations,
    canonical_check_by_loop,
    code_sorted_order,
    cophenetic_by_paths,
    ultrametricity_by_triangle_loop,
)
from reference import IRIS7, IRIS_LABELS7, REFERENCE_ULTRAMETRIC_7


def reference_tree_7() -> Dendrogram:
    """The 7-flower reference hierarchy, recovered from its own ultrametric
    table by single linkage (exact for an ultrametric input)."""
    m = DissimilarityMatrix(REFERENCE_ULTRAMETRIC_7, IRIS_LABELS7)
    return agglomerate(m, "single")


class TestCophenetic:
    def test_reference_table_reproduced_from_its_tree(self):
        coph = cophenetic_matrix(reference_tree_7())
        assert np.allclose(coph.values, REFERENCE_ULTRAMETRIC_7, atol=1e-7)
        labels = list(IRIS_LABELS7)
        i3, i4, i1, i5 = labels.index("iris3"), labels.index("iris4"), 0, 4
        assert coph.values[i3, i4] == pytest.approx(0.2449490, abs=1e-7)
        assert coph.values[i1, i5] == pytest.approx(1.1661904, abs=1e-7)

    def test_two_leaf_tree(self):
        tree = Dendrogram(("a", "b"), (MergeNode(1, 3.5, terminal(0), terminal(1)),))
        assert np.array_equal(cophenetic_matrix(tree).values, [[0.0, 3.5], [3.5, 0.0]])

    def test_matches_pairwise_lca_oracle(self, rng):
        trees = [caterpillar(n, lean) for n in (2, 3, 9, 40) for lean in ("left", "right")]
        for heights in ("monotone", "jumbled"):
            trees += [random_tree(n, rng, heights) for n in (1, 2)]
            trees += [random_tree(rng.randrange(3, 12), rng, heights) for _ in range(5)]
        for tree in trees:
            assert np.array_equal(
                cophenetic_matrix(tree).values, np.array(cophenetic_by_paths(tree))
            )

    def test_monotone_tree_output_is_exactly_ultrametric(self, rng):
        for _ in range(20):
            tree = random_tree(rng.randrange(3, 16), rng, heights="monotone")
            assert verify_ultrametric(cophenetic_matrix(tree), 0.0) == []

    def test_agglomerate_output_is_exactly_ultrametric(self, rng):
        for linkage in ("single", "complete", "ward"):
            data = np.array([[rng.uniform(0, 3) for _ in range(3)] for _ in range(12)])
            tree = agglomerate(pairwise_distances(data), linkage)
            assert verify_ultrametric(cophenetic_matrix(tree), 0.0) == []


class TestVerifyUltrametric:
    def test_reference_table_passes(self):
        m = DissimilarityMatrix(REFERENCE_ULTRAMETRIC_7, IRIS_LABELS7)
        assert verify_ultrametric(m, 0.0) == []

    def test_raw_iris_distances_fail(self):
        m = pairwise_distances(IRIS7)
        violations = verify_ultrametric(m, 1e-9)
        assert violations
        # cross-check the set of violating combinations against brute force
        brute = brute_violating_combinations(m.values.tolist(), 1e-9)
        got = {tuple(sorted((i, j, k))) for i, j, k, _, _ in violations}
        assert got == set(brute)

    def test_small_matrices_trivially_pass(self):
        assert verify_ultrametric(DissimilarityMatrix(np.zeros((1, 1)))) == []
        two = DissimilarityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert verify_ultrametric(two) == []

    def test_violation_reports_lhs_rhs(self):
        values = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        violations = verify_ultrametric(DissimilarityMatrix(values), 0.0)
        assert violations == [(0, 1, 2, 5.0, 1.0)]

    def test_tolerance_suppresses_small_violations(self):
        values = np.array(
            [[0.0, 1.0, 1.0 + 1e-12], [1.0, 0.0, 1.0], [1.0 + 1e-12, 1.0, 0.0]]
        )
        m = DissimilarityMatrix(values)
        assert verify_ultrametric(m, 1e-9) == []
        assert verify_ultrametric(m, 0.0) != []


def violation_sweep_matrices():
    """Tied random tables, true ultrametrics from every linkage (median may
    invert heights) and copies with entries moved by amounts on both sides
    of each swept tolerance."""
    rng = np.random.default_rng(20261018)
    yield np.zeros((1, 1))
    yield np.zeros((2, 2))
    yield np.array([[0.0, 2.0], [2.0, 0.0]])
    # sibling subtrees at height 5 whose codes order one way by their left
    # children (a terminal against a pair) and the other way by their right ones
    siblings = np.full((7, 7), 10.0)
    siblings[:3, :3] = siblings[3:, 3:] = 5.0
    siblings[1, 2] = siblings[2, 1] = 3.0
    siblings[3, 4] = siblings[4, 3] = 1.0
    siblings[5, 6] = siblings[6, 5] = 2.0
    np.fill_diagonal(siblings, 0.0)
    yield siblings
    yield siblings[::-1, ::-1]
    for n in range(3, 15):
        tied = np.triu(rng.integers(0, 4, size=(n, n)).astype(float), 1)
        yield tied + tied.T
        for linkage in LINKAGES:
            data = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
            coph = cophenetic_matrix(agglomerate(pairwise_distances(data), linkage)).values
            yield coph
            perturbed = coph.copy()
            for _ in range(int(rng.integers(1, 4))):
                i, k = rng.choice(n, size=2, replace=False)
                step = rng.choice([1e-12, 0.05, 1.0, -0.05])
                perturbed[i, k] = perturbed[k, i] = max(0.0, perturbed[i, k] + step)
            yield perturbed


class TestViolationList:
    def test_equals_brute_force_list(self):
        for values in violation_sweep_matrices():
            m = DissimilarityMatrix(values)
            for tol in (0.0, 1e-9, 0.1):
                assert verify_ultrametric(m, tol) == brute_violations(values.tolist(), tol)

    def test_scale_only_raised_pairs_violate(self):
        n = 2000
        rng = np.random.default_rng(7)
        data = rng.integers(0, 10, size=(n, 3)).astype(float)
        coph = cophenetic_matrix(agglomerate(pairwise_distances(data), "complete"))
        assert verify_ultrametric(coph, 0.0) == []
        _, canon = canonical_form(coph)
        assert check_canonical_form(canon.values) is None
        raised = coph.values.copy()
        top = raised.max() + 1.0
        picked = rng.choice(n, size=10, replace=False)
        planted = {(int(min(a, b)), int(max(a, b))) for a, b in picked.reshape(5, 2)}
        for i, k in planted:
            raised[i, k] = raised[k, i] = top
        violations = verify_ultrametric(DissimilarityMatrix(raised), 0.0)
        # disjoint pairs raised above every other entry: every j is a witness
        assert {(i, k) for i, _, k, _, _ in violations} == planted
        assert len(violations) == len(planted) * (n - 2)


def tied_tree(n: int, rng: random.Random) -> Dendrogram:
    """A random tree whose sorted heights are cut down to 0, 1 and 2, so
    that most merges tie with others at their height."""
    tree = random_tree(n, rng, heights="monotone")
    return Dendrogram(tree.labels, tuple(
        MergeNode(node.rank, float(node.height // 4), node.left, node.right) for node in tree.nodes))


def exact_ultrametric(n: int, kind: str, rng: random.Random) -> np.ndarray:
    """A writable copy of the cophenetic matrix of a random, caterpillar or
    tied tree on n >= 2 terminals, or the all-equal matrix."""
    if kind == "random":
        tree = random_tree(n, rng, heights="monotone")
    elif kind == "caterpillar":
        tree = caterpillar(n, rng.choice(("left", "right")))
    elif kind == "tied":
        tree = tied_tree(n, rng)
    else:
        return np.ones((n, n)) - np.eye(n)
    return cophenetic_matrix(tree).values.copy()


def screened_matrix(n: int, kind: str, rng: random.Random) -> np.ndarray:
    """A random symmetric table on n >= 2 objects (uniform, or on a grid of
    four values, so many entries tie), the all-equal one, or an exact
    ultrametric with up to three entries moved by amounts on both sides of
    the tolerances the tests sweep."""
    if kind in ("uniform", "grid"):
        cells = [[rng.random() if kind == "uniform" else float(rng.randrange(4))
                  for _ in range(n)] for _ in range(n)]
        upper = np.triu(np.array(cells), 1)
        return upper + upper.T
    if kind == "equal":
        return np.ones((n, n)) - np.eye(n)
    values = exact_ultrametric(n, rng.choice(("random", "caterpillar", "tied")), rng)
    for _ in range(rng.randrange(1, 4)):
        i, k = rng.sample(range(n), 2)
        step = rng.choice((1e-12, 0.05, 1.0, -0.05))
        values[i, k] = values[k, i] = max(0.0, values[i, k] + step)
    return values


SCREENED = st.sampled_from(("uniform", "grid", "equal", "perturbed"))
EXACT = st.sampled_from(("random", "caterpillar", "tied", "equal"))
SEEDS = st.integers(0, 2**32 - 1)


class TestSubdominantScreen:
    """The screen's u comes from a minimum spanning tree, its merges in the
    tie rule from that tree alone; the builder is the referee."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 30), SCREENED, SEEDS)
    def test_u_is_the_single_linkage_cophenetic_matrix(self, n, kind, seed):
        m = DissimilarityMatrix(screened_matrix(n, kind, random.Random(seed)))
        assert np.array_equal(_certify(m, 0.0)[1], cophenetic_matrix(agglomerate(m, "single")).values)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12), SCREENED, SEEDS)
    def test_violations_equal_the_triple_scan(self, n, kind, seed):
        values = screened_matrix(n, kind, random.Random(seed))
        m = DissimilarityMatrix(values)
        for tol in (0.0, 1e-9, 0.1):
            assert verify_ultrametric(m, tol) == brute_violations(values.tolist(), tol)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), EXACT, SEEDS)
    def test_tie_rule_tree_of_an_ultrametric_is_the_builders(self, n, kind, seed):
        m = DissimilarityMatrix(exact_ultrametric(n, kind, random.Random(seed)))
        tree, u, violations = _certify(m, 0.0)
        assert violations == [] and np.array_equal(m.values, u)
        assert tree == agglomerate(m, "single")

    def test_within_tolerance_names_the_failure_of_the_u_tree(self):
        # an entry moved by 1e-12 mostly leaves d unequal to u; canonical_form
        # then orders d by the tie-rule tree of u, which is the builder's tree
        # of u, and no order passes the exact check, so the message shows
        # which order was taken
        rng = random.Random(1721)
        checked = 0
        for _ in range(300):
            n = rng.randrange(3, 12)
            values = exact_ultrametric(n, rng.choice(("random", "tied", "equal")), rng)
            i, k = rng.sample(range(n), 2)
            values[i, k] = values[k, i] = values[i, k] + rng.choice((1e-12, -1e-12 * (values[i, k] > 0)))
            m = DissimilarityMatrix(values)
            _, u, violations = _certify(m, 1e-9)
            assert violations == []
            if np.array_equal(values, u):
                continue
            perm = code_sorted_order(agglomerate(DissimilarityMatrix(u), "single"))
            problem = check_canonical_form(values[np.ix_(perm, perm)])
            assert problem is not None
            with pytest.raises(NotUltrametricError) as raised:
                canonical_form(m, 1e-9)
            assert str(raised.value) == f"canonical ordering failed verification: {problem}"
            checked += 1
        assert checked > 30

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 20), EXACT, SEEDS, st.sampled_from((1e-9, 1e-3, 0.5)))
    def test_within_tolerance_but_not_exact_never_canonicalizes(self, n, kind, seed, tol):
        # entries moved by up to half the tolerance mostly leave no violation
        # beyond it; when d then differs from u it is not an ultrametric, and no
        # order meets both canonical conditions
        rng = random.Random(seed)
        values = exact_ultrametric(n, kind, rng)
        for _ in range(rng.randrange(1, 4)):
            i, k = rng.sample(range(n), 2)
            step = tol * rng.choice((0.5, 0.25, 1e-3, -0.25, -0.5))
            values[i, k] = values[k, i] = max(0.0, values[i, k] + step)
        m = DissimilarityMatrix(values)
        _, u, violations = _certify(m, tol)
        assume(violations == [] and not np.array_equal(values, u))
        with pytest.raises(NotUltrametricError, match=r"^canonical ordering failed verification: "):
            canonical_form(m, tol)


def near_canonical(canon: np.ndarray, rng: random.Random) -> list[np.ndarray]:
    """Copies of a canonical matrix with one cell moved (up, down, to a
    value elsewhere in the matrix, or to zero; sometimes its mirror too),
    one cell NaN, and two neighbouring objects swapped, which reorders
    tied runs."""
    n = len(canon)
    if n == 0:
        return []
    moved, nan, swapped = canon.copy(), canon.copy(), canon.copy()
    i, j = rng.randrange(n), rng.randrange(n)
    value = rng.choice((canon[i, j] + 1.0, canon[i, j] - 1.0,
                        canon[rng.randrange(n), rng.randrange(n)], 0.0))
    moved[i, j] = value
    if rng.random() < 0.5:
        moved[j, i] = value
    nan[rng.randrange(n), rng.randrange(n)] = np.nan
    a = rng.randrange(n)
    b = min(a + 1, n - 1)
    order = list(range(n))
    order[a], order[b] = order[b], order[a]
    swapped = swapped[np.ix_(order, order)]
    return [moved, nan, swapped]


class TestCanonicalCheck:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,)])
    def test_refuses_what_is_not_a_square_table(self, shape):
        with pytest.raises(InputShapeError, match=rf"^matrix must be square, got shape \({shape[0]},"):
            check_canonical_form(np.zeros(shape))

    @settings(max_examples=650, deadline=None)
    @given(st.integers(0, 12), SEEDS)
    def test_equals_the_loop(self, n, seed):
        # five matrices per example: a random one, a canonical one and three
        # near-canonical copies of it
        rng = random.Random(seed)
        cells = np.array([[float(rng.randrange(4)) for _ in range(n)] for _ in range(n)])
        if n:
            tree = (tied_tree if rng.random() < 0.5 else random_tree)(n, rng)
            canon = canonical_form(cophenetic_matrix(tree))[1].values
        else:
            canon = np.zeros((0, 0))
        matrices = [cells.reshape(n, n), canon, *near_canonical(canon, rng)]
        for values in matrices:
            assert check_canonical_form(values) == canonical_check_by_loop(values)

    def test_both_conditions_imply_an_ultrametric(self):
        # every symmetric zero-diagonal table on small grids that passes the
        # check has no violating triple: a table in canonical form is an
        # exact ultrametric, so no order of a non-ultrametric one passes
        accepted = 0
        for n, levels in ((3, 4), (4, 4), (5, 3)):
            upper = np.triu_indices(n, 1)
            for cells in itertools.product(range(levels), repeat=len(upper[0])):
                values = np.zeros((n, n))
                values[upper] = cells
                values.T[upper] = cells
                if check_canonical_form(values) is None:
                    assert brute_violations(values.tolist()) == []
                    accepted += 1
        assert accepted == 161


class TestCanonicalForm:
    def test_reference_table_is_already_canonical(self):
        assert check_canonical_form(REFERENCE_ULTRAMETRIC_7) is None

    def test_shuffle_then_restore(self, rng):
        m = DissimilarityMatrix(REFERENCE_ULTRAMETRIC_7, IRIS_LABELS7)
        _, canon = canonical_form(m)
        assert check_canonical_form(canon.values) is None
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            idx = np.asarray(perm)
            shuffled = DissimilarityMatrix(
                REFERENCE_ULTRAMETRIC_7[np.ix_(idx, idx)],
                tuple(IRIS_LABELS7[i] for i in perm),
            )
            _, restored = canonical_form(shuffled)
            assert check_canonical_form(restored.values) is None
            assert np.array_equal(restored.values, canon.values)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_objects_keep_their_order(self, n):
        m = DissimilarityMatrix(np.zeros((n, n)))
        assert verify_ultrametric(m) == []
        perm, out = canonical_form(m)
        assert perm == tuple(range(n))
        assert isinstance(out, UltrametricMatrix)
        assert out.values.shape == (n, n) and out.labels == m.labels

    def test_two_by_two_identity(self):
        m = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        perm, out = canonical_form(m)
        assert perm == (0, 1)
        assert np.array_equal(out.values, m.values)

    def test_unlabelled_rows_keep_their_names(self):
        # the default names t1..tn belong to the input rows, so they move
        # with them (they were once made up after the reordering)
        m = DissimilarityMatrix(np.array([[0.0, 3, 1], [3, 0, 3], [1, 3, 0]]))
        perm, out = canonical_form(m)
        assert perm == (1, 0, 2)
        assert out.labels == ("t2", "t1", "t3")

    def test_random_cophenetic_matrices_canonicalize(self, rng):
        for _ in range(10):
            tree = random_tree(rng.randrange(3, 14), rng, heights="monotone")
            m = cophenetic_matrix(tree)
            _, canon = canonical_form(m)
            assert check_canonical_form(canon.values) is None

    def test_order_follows_subtree_codes(self):
        checked = 0
        for values in violation_sweep_matrices():
            m = DissimilarityMatrix(values)
            if len(values) < 2 or verify_ultrametric(m, 0.0):
                continue
            perm, _ = canonical_form(m)
            assert list(perm) == code_sorted_order(agglomerate(m, "single"))
            checked += 1
        assert checked > 30

    def test_non_ultrametric_rejected_naming_a_triple(self):
        m = pairwise_distances(IRIS7)
        with pytest.raises(NotUltrametricError, match=r"d\(\d+,\d+\)"):
            canonical_form(m)

    @pytest.mark.parametrize("rows, message", [
        ([[0, 2, 1], [2, 0, 1], [1, 1, 0]], "row 0 decreases between columns 1 and 2"),
        ([[0, 1, 1, 2], [1, 0, 2, 2], [1, 2, 0, 2], [2, 2, 2, 0]],
         "run condition fails at row 0, column 2 (expected <=)"),
        ([[0, 1, 2, 2], [1, 0, 2, 3], [2, 2, 0, 1], [2, 3, 1, 0]],
         "run condition fails at row 0, column 3 (expected equality)"),
    ], ids=["decreasing-row", "run-above-row", "beyond-run-unequal"])
    def test_check_names_the_first_failure(self, rows, message):
        assert check_canonical_form(np.array(rows, dtype=float)) == message


class TestClassifyTriangle:
    def test_reference_isosceles(self):
        assert classify_triangle(3.5, 3.5, 1.0) == ISOSCELES_SMALL_BASE

    def test_equilateral(self):
        assert classify_triangle(2, 2, 2) == EQUILATERAL

    def test_scalene(self):
        assert classify_triangle(3, 4, 5) == METRIC_ONLY

    @pytest.mark.parametrize("sides", [(-1.0, 1.0, 1.0), (float("nan"), 1.0, 1.0),
                                       (1.0, float("nan"), 1.0), (1.0, 1.0, float("nan"))])
    def test_negative_side_rejected(self, sides):
        """A NaN side is refused wherever it sits, as a negative one is."""
        with pytest.raises(DomainError, match="triangle sides must be nonnegative"):
            classify_triangle(*sides)

    @given(
        st.permutations([3.5, 3.5, 1.0]),
    )
    def test_invariant_under_argument_order(self, sides):
        assert classify_triangle(*sides) == ISOSCELES_SMALL_BASE

    @given(
        st.tuples(
            st.floats(0.1, 100.0),
            st.floats(0.1, 100.0),
            st.floats(0.1, 100.0),
        ),
        st.permutations([0, 1, 2]),
    )
    def test_permutation_invariance_random(self, sides, order):
        permuted = tuple(sides[i] for i in order)
        assert classify_triangle(*sides) == classify_triangle(*permuted)


class TestUltrametricityCoefficient:
    def test_cophenetic_matrix_scores_one(self, rng):
        tree = random_tree(10, rng, heights="monotone")
        report = ultrametricity_coefficient(cophenetic_matrix(tree), 500, seed=3, tol=0.0)
        assert report.coefficient == 1.0

    def test_dimension_raises_coefficient(self):
        values = []
        for dim in (2, 200):
            cloud = generate_cloud(50, dim, "uniform", seed=1)
            report = ultrametricity_coefficient(
                pairwise_distances(cloud), 2000, seed=1, tol=0.02
            )
            values.append(report.coefficient)
        assert values[1] > values[0]

    def test_oversampling_covers_all_triples_once(self):
        cloud = generate_cloud(10, 3, "uniform", seed=5)
        m = pairwise_distances(cloud)
        report = ultrametricity_coefficient(m, 10**9, seed=0, tol=0.05)
        total = 10 * 9 * 8 // 6
        assert report.sampled == total
        hits = sum(
            1
            for i, j, k in itertools.combinations(range(10), 3)
            if classify_triangle(m.values[i, j], m.values[i, k], m.values[j, k], 0.05)
            != METRIC_ONLY
        )
        assert report.coefficient == hits / total

    def test_deterministic_given_seed(self):
        m = pairwise_distances(generate_cloud(30, 4, "gaussian", seed=9))
        a = ultrametricity_coefficient(m, 200, seed=17, tol=0.02)
        b = ultrametricity_coefficient(m, 200, seed=17, tol=0.02)
        assert a == b

    def test_monotone_in_tolerance(self):
        m = pairwise_distances(generate_cloud(25, 3, "uniform", seed=2))
        coefficients = [
            ultrametricity_coefficient(m, 300, seed=4, tol=t).coefficient
            for t in (0.0, 0.01, 0.05, 0.2, 1.0)
        ]
        assert coefficients == sorted(coefficients)

    def test_degenerate_rejected(self):
        m = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateInputError):
            ultrametricity_coefficient(m, 10)

    @pytest.mark.parametrize("tol", [0.0, 0.02, 1.0, float("inf")])
    @pytest.mark.parametrize("sample", [40, 300, 10**9])
    def test_hits_equal_the_triangle_loop(self, tol, sample):
        # a tenths grid ties sides; repeated points make zero sides and an
        # all-zero triangle
        rng = np.random.default_rng(1505)
        cloud = np.round(rng.random((16, 2)), 1)
        cloud[[5, 9]] = cloud[3]
        cloud[12] = cloud[7]
        m = pairwise_distances(cloud)
        report = ultrametricity_coefficient(m, sample, seed=8, tol=tol)
        sampled, hits = ultrametricity_by_triangle_loop(m, sample, 8, tol)
        assert report.sampled == sampled
        assert report.coefficient == hits / sampled

    @pytest.mark.parametrize("n", [*range(3, 23), 300, 2**16 + 1])
    def test_triples_replay_random_sample(self, n):
        # n <= 21 takes sample's pool branch, larger n its set branch
        total = n * (n - 1) * (n - 2) // 6
        sample = min(max(1, total - 1), 500)
        for seed in (0, 1, 2021):
            rng = random.Random(seed)
            chosen = set()
            while len(chosen) < sample:
                chosen.add(tuple(sorted(rng.sample(range(n), 3))))
            assert _sampled_triples(n, sample, seed) == sorted(chosen)

    def test_negative_tolerance_rejected(self):
        m = pairwise_distances(generate_cloud(5, 2, "uniform", seed=3))
        with pytest.raises(DomainError, match="^tolerance must be nonnegative$"):
            ultrametricity_coefficient(m, 10, tol=-0.01)

    def test_nan_tolerance_rejected(self):
        # NaN passes a `tol < 0` test; each of the three checks refuses it
        m = pairwise_distances(generate_cloud(5, 2, "uniform", seed=3))
        with pytest.raises(DomainError, match="^tolerance must be nonnegative$"):
            ultrametricity_coefficient(m, 10, tol=float("nan"))
        with pytest.raises(DomainError, match="^tolerance must be nonnegative$"):
            verify_ultrametric(m, float("nan"))
        with pytest.raises(DomainError, match="^tolerance must be nonnegative$"):
            classify_triangle(1.0, 1.0, 1.0, float("nan"))

    @pytest.mark.parametrize("tol", [0.0, 0.02, 1e308, float("inf")])
    def test_every_triple_equals_the_triangle_loop(self, tol):
        # n = 40: 9,880 triples, classified in 38 blocks
        rng = np.random.default_rng(1606)
        cloud = np.round(rng.random((40, 3)), 1)
        cloud[[11, 30]] = cloud[2]
        m = pairwise_distances(cloud)
        report = ultrametricity_coefficient(m, 10**9, tol=tol)
        sampled, hits = ultrametricity_by_triangle_loop(m, 10**9, 0, tol)
        assert report.sampled == sampled == 9880
        assert report.coefficient == hits / sampled

    def test_every_triple_in_bounded_memory(self):
        """All 4,455,100 triples of 300 points under a 512 MiB address-space
        cap.  Listing the triples as tuples needed more and raised
        ``MemoryError``."""
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "import numpy as np\n"
            "from dendrocode.hierarchy import pairwise_distances\n"
            "from dendrocode.ultrametric import ultrametricity_coefficient\n"
            "cloud = np.round(np.random.default_rng(0).random((300, 8)), 1)\n"
            "report = ultrametricity_coefficient(pairwise_distances(cloud), 10**9)\n"
            "assert report.sampled == 300 * 299 * 298 // 6, report\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120, env={**os.environ, "PYTHONPATH": src,
                                                  "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        assert result.returncode == 0, result.stderr[-2000:]


def _cloud(kind: str) -> np.ndarray:
    rng = np.random.default_rng(2903)
    if kind == "random":
        return rng.normal(size=(70, 6)) * 10.0
    if kind == "tied-grid":  # tenths tie sides, and repeated points make zero ones
        cloud = np.round(rng.random((80, 2)), 1)
        cloud[[4, 9, 60]] = cloud[2]
        return cloud
    if kind == "m=1":
        return np.round(rng.random((90, 1)) * 20.0)
    return rng.random((24, 1000))


class TestDataCoefficient:
    """``_data_coefficient`` measures only the sampled sides; its report
    must be that of the full table."""

    @pytest.mark.parametrize("kind", ["random", "tied-grid", "m=1", "m=1000"])
    @pytest.mark.parametrize("sample", [1, 37, 600, 10**9])
    def test_equals_the_table_report(self, kind, sample):
        cloud = _cloud(kind)
        table = pairwise_distances(cloud)
        for seed, tol in ((0, 0.02), (11, 0.0), (-4, 0.3), (7, float("inf"))):
            assert (_data_coefficient(cloud, sample, seed, tol)
                    == ultrametricity_coefficient(table, sample, seed, tol))

    @pytest.mark.parametrize("shape", [(60, 1), (60, 7), (40, 1000), (30, 70000), (3000, 2)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_pair_distances_have_the_table_bits(self, shape):
        # rows of one coordinate to 70,000, blocks of one pair to thousands
        arr = np.random.default_rng(5).normal(size=shape) * 100.0
        n = shape[0]
        i, j = np.triu_indices(n, 1)
        keep = np.random.default_rng(6).random(len(i)) < (0.5 if n < 1000 else 0.0005)
        i, j = i[keep], j[keep]
        expected = pairwise_distances(arr).values[i, j]
        assert np.array_equal(_pair_distances(arr, i, j).view(np.int64), expected.view(np.int64))

    def test_sampling_builds_no_table(self, monkeypatch):
        cloud = _cloud("random")
        expected = ultrametricity_coefficient(pairwise_distances(cloud), 500, 3)
        monkeypatch.setattr(ultrametric, "pairwise_distances", None)
        assert _data_coefficient(cloud, 500, 3, 0.02) == expected

    @pytest.mark.parametrize("rows, bounded, overflows", [
        ([[1e150 * i, 0.0] for i in range(30)], True, False),  # far apart, within the bound
        ([[1.2e154 * (i % 2)] for i in range(30)], False, False),  # past the bound, not the range
        ([[0.0, 0.0]] * 28 + [[1e308, 0.0], [-1e308, 0.0]], False, True),  # one pair past the range
    ])
    def test_column_ranges_guard_overflow(self, rows, bounded, overflows):
        # data the column ranges cannot bound goes through the table, which
        # refuses a pair past the range though the sample of 1 misses it
        arr = np.array(rows)
        assert _distances_finite(arr) == bounded
        if overflows:
            with pytest.raises(DomainError, match="^pairwise distances overflow the float range$"):
                _data_coefficient(arr, 1, 0, 0.02)
        else:
            assert _data_coefficient(arr, 40, 1, 0.02) == ultrametricity_coefficient(pairwise_distances(arr), 40, 1)


class TestGenerateCloud:
    def test_deterministic(self):
        a = generate_cloud(3, 2, "uniform", seed=1)
        b = generate_cloud(3, 2, "uniform", seed=1)
        assert np.array_equal(a, b)

    def test_gaussian_mean_near_zero(self):
        cloud = generate_cloud(10_000, 1, "gaussian", seed=11)
        assert abs(cloud.mean()) < 0.05

    def test_single_point(self):
        cloud = generate_cloud(1, 1, "uniform", seed=0)
        assert cloud.shape == (1, 1)

    def test_past_the_guard_refused_before_allocating(self, monkeypatch):
        # the 8 TB cloud is refused by size, before a generator is made
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ResourceGuardError, match=r"^the point cloud would take 8000000000000 bytes"):
            generate_cloud(10**9, 1000)

    def test_uniform_in_unit_cube(self):
        cloud = generate_cloud(100, 5, "uniform", seed=3)
        assert cloud.min() >= 0.0 and cloud.max() < 1.0

    def test_bad_law_rejected(self):
        with pytest.raises(DomainError):
            generate_cloud(5, 2, "cauchy", seed=0)

    @pytest.mark.parametrize("n, dim, seed, message", [
        (0, 2, 0, "n must be at least 1"),
        (2, 0, 0, "dim must be at least 1"),
        (2, 2, -1, "seed must be nonnegative"),
    ])
    def test_domains(self, n, dim, seed, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            generate_cloud(n, dim, seed=seed)


class TestWreathInvariance:
    def test_cophenetic_constant_on_swaps(self, rng):
        tree = random_tree(9, rng)
        base = cophenetic_matrix(tree).values
        for r in range(1, 9):
            assert np.array_equal(base, cophenetic_matrix(swap_children(tree, r)).values)

    def test_brute_force_agreement(self, rng):
        tree = random_tree(7, rng, heights="monotone")
        assert brute_ultrametric_ok(cophenetic_matrix(tree).values.tolist(), 0.0)

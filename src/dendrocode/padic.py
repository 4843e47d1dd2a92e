"""p-adic codes for dendrograms: the signed coefficient matrix over
{-1, 0, +1}, exact decimal evaluation, reconstruction, similarity and
distance as exact rationals, the one-level dilation operator, and the
valuation distance on integers.

Coefficient convention: level j (1 = lowest merge, n-1 = root) carries +1
when the terminal's path enters node j from the left child, -1 from the
right, and 0 when node j is off the path.  Labels follow the stored tree
orientation, not the canonical drawing, so child swaps exercise the
alternative labelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, MalformedEncodingError
from .hierarchy import Dendrogram, _FromArrays, _joined, _tree, gap_levels


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the bases 2, 3, ..., 41, exact for
    every p below 3,317,044,064,679,887,385,961,981; a larger p cannot be
    decided and is a ``DomainError``."""
    if p < 2:
        return False
    if p >= _PRIME_BOUND:
        raise DomainError(f"primality is decided only for p below {_PRIME_BOUND}")
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # a witnesses that p is composite
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def _require_encoding_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise DomainError(
            "p = 2 is rejected: signed-digit decimal codes are only guaranteed "
            "unique and reversible for p >= 3"
        )


@dataclass(frozen=True)
class PadicCode:
    """One terminal's coefficient vector, lowest level first.

    The all-zero vector is the null element reached by repeated dilation;
    codes taken from an encoding always end in a nonzero root coefficient.
    """

    coefficients: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        _require_prime(self.p)
        coeffs = tuple(int(c) for c in self.coefficients)
        if any(c not in (-1, 0, 1) for c in coeffs):
            raise DomainError("coefficients must lie in {-1, 0, +1}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def levels(self) -> int:
        return len(self.coefficients)


def _code(coefficients: tuple[int, ...], p: int) -> PadicCode:
    """The code of ``coefficients``, a tuple of ints in {-1, 0, +1}, at the
    prime ``p``: a row of an encoding, which its checks made valid, so the
    constructor's checks are not run.  Input from outside the library goes
    through ``PadicCode``."""
    code = object.__new__(PadicCode)
    object.__setattr__(code, "coefficients", coefficients)
    object.__setattr__(code, "p", p)
    return code


@dataclass(frozen=True)
class PadicEncoding:
    """The n x (n-1) coefficient matrix of a dendrogram, one row per terminal.

    The constructor validates its input: a prime p >= 3, one row of n - 1
    Python ints in {-1, 0, +1} per label (bool is not an int here), no zero
    in the root column, and a +1 and a -1 in every column.  It does not
    check that the columns nest; ``decode`` does.

    The matrix is stored once, as the read-only n x (n-1) int8 array that
    the checks build, and every p-adic layer reads that array.  ``C`` reads
    as a tuple of row tuples: the constructor keeps the rows it checked,
    and an encoding built by ``encode_dendrogram`` or read from JSON builds
    them from the array on first access, so the verbs never build them.
    Equality, hash and repr go through ``C``.
    """

    p: int
    labels: tuple[str, ...]
    C: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_encoding_prime(self.p)
        labels = tuple(self.labels)
        rows = tuple(map(tuple, self.C))
        n = len(labels)
        if len(rows) != n:
            raise MalformedEncodingError("one coefficient row per terminal required")
        for label, row in zip(labels, rows):
            if len(row) != n - 1:
                raise MalformedEncodingError(f"row for {label} has {len(row)} levels, expected {n - 1}")
            if not ({int}.issuperset(map(type, row)) and {-1, 0, 1}.issuperset(row)):
                raise MalformedEncodingError("coefficients must lie in {-1, 0, +1}")
        # checked as Python ints, so no value wraps in the int8 array
        cells = _checked_array(np.array(rows, dtype=np.int8).reshape(n, max(n - 1, 0)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "C", rows)
        object.__setattr__(self, "_cells", cells)

    @property
    def n(self) -> int:
        return len(self.labels)

    def code(self, index: int) -> PadicCode:
        return _code(self.C[index], self.p)

    def codes(self) -> tuple[PadicCode, ...]:
        return tuple(map(self.code, range(self.n)))

    def decimal_codes(self) -> tuple[int, ...]:
        """``evaluate_code`` of every row, exact for any encoding.

        The rows are taken in root-first order (``_root_first_order``), and
        each code is its predecessor's plus the differences between the two
        rows, each at level j a multiple of p^j.  Two neighbours differ only
        at levels at or below their cut, and on a decodable encoding each
        node's coefficient changes at most three times along that order (0
        to +1, +1 to -1, -1 to 0), so there are O(n) differences in all:
        one ``accumulate`` of that many big-integer terms, plus O(n^2)
        numpy byte work in row blocks."""
        n, width, p = self.n, self.n - 1, self.p
        if n < 2:
            return (0,) * n
        cells = self._cells
        order, _ = _root_first_order(cells)
        weights = [p]
        for _ in range(width - 1):
            weights.append(weights[-1] * p)
        terms: list[int] = []
        ends = []  # the number of terms up to each sorted row
        previous = np.zeros((1, width), dtype=np.int8)  # the first row differs from no row
        for rows in _row_blocks(cells, order):
            steps = np.diff(np.concatenate((previous, rows)), axis=0)
            at, level = np.divmod(np.flatnonzero(steps != 0), width)
            terms += map(mul, steps[at, level].tolist(), map(weights.__getitem__, level.tolist()))
            ends.append(np.bincount(at, minlength=len(rows)))
            previous = rows[-1:]
        sums = list(accumulate(terms, initial=0))
        codes = [0] * n
        for i, end in zip(order.tolist(), np.cumsum(np.concatenate(ends)).tolist()):
            codes[i] = sums[end]
        return tuple(codes)

    def differing_levels(self) -> np.ndarray:
        """n x n integer matrix of r(i, k), the highest level at which rows
        i and k differ, 0 where they are equal.  ``padic_similarity`` of the
        two rows is p^(-r); for a decodable encoding r is the rank of their
        lowest common ancestor.  Read straight from the coefficients, so it
        is defined on encodings that ``decode`` rejects as well.

        In root-first order r of two rows is the largest cut between their
        sorted positions, so the table is ``gap_levels`` of the cuts:
        O(n^2) in all, in the narrowest unsigned type that holds them."""
        return gap_levels(*self._level_gaps())

    def _level_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's position in root-first order, and the cuts between
        the positions."""
        if self.n < 2:
            return np.arange(self.n), np.zeros(0, dtype=np.intp)
        order, cut = _root_first_order(self._cells)
        return np.argsort(order), cut[1:]


PadicEncoding.C = _FromArrays("C", lambda enc: tuple(map(tuple, enc._cells.tolist())))


def _checked_array(cells: np.ndarray) -> np.ndarray:
    """``cells``, an n x (n-1) int8 array of values in {-1, 0, +1}, made
    read-only after the root-column and column checks of ``PadicEncoding``."""
    if cells.shape[0] >= 2:
        if not cells[:, -1].all():
            raise MalformedEncodingError("root column must have no zero entries")
        one_sided = np.flatnonzero(~((cells == 1).any(axis=0) & (cells == -1).any(axis=0)))
        if one_sided.size:
            raise MalformedEncodingError(
                f"column {one_sided[0] + 1} must contain both a +1 and a -1 entry"
            )
    cells.flags.writeable = False
    return cells


# the most cells of one block of rows that the root-first passes gather at a time
_BLOCK_CELLS = 1 << 18


def _row_blocks(cells: np.ndarray, order: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of ``cells`` in ``order``, gathered a block of rows at a
    time, so that no full reordered copy is held."""
    step = max(1, _BLOCK_CELLS // max(cells.shape[1], 1))
    for a in range(0, len(order), step):
        yield cells[order[a:a + step]]


def _root_first_order(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices sorted by their bytes from the root level down, and
    ``cut``: ``cut[k]`` is the highest level at which sorted rows k - 1 and
    k differ (0 where they are equal), and ``cut[0]`` is n - 1.

    Rows of a decodable encoding first differ at their lowest common
    ancestor, +1 against -1, so any fixed order of the symbols sorts them
    into a drawing order of the tree; bytes put +1 (0x01) before -1 (0xff),
    so it is the stored drawing.  For any n >= 2 rows, as for any sorted
    strings, the highest level at which sorted rows a < b differ is the
    largest of cut[a + 1], ..., cut[b].  The sort keys are dropped once
    sorted, and the cuts are read off blocks of sorted rows."""
    n, width = cells.shape
    keys = [row[::-1].tobytes() for row in cells]
    order = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
    del keys
    cut = np.empty(n, dtype=np.intp)
    cut[0], previous, k = width, cells[order[:1]], 1
    for rows in _row_blocks(cells, order[1:]):
        differs = rows != np.concatenate((previous, rows[:-1]))
        top = width - 1 - differs[:, ::-1].argmax(axis=1)  # the highest column that differs, if any
        cut[k:k + len(rows)] = np.where(differs[np.arange(len(rows)), top], top + 1, 0)
        previous, k = rows[-1:], k + len(rows)
    return order, cut


def _encoding_from_array(p: int, labels: tuple[str, ...], cells: np.ndarray) -> PadicEncoding:
    """The encoding over ``cells``, an n x (n-1) int8 array of values in
    {-1, 0, +1}, after the prime, root-column and column checks of the
    constructor.  Every encoding not built by the constructor is built
    here, without running the constructor's checks on row tuples."""
    _require_encoding_prime(p)
    enc = object.__new__(PadicEncoding)
    object.__setattr__(enc, "p", p)
    object.__setattr__(enc, "labels", labels)
    object.__setattr__(enc, "_cells", _checked_array(cells))
    return enc


def _drawn_cells(gap: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The coefficients of the tree of a drawing of n >= 2 positions, rank r
    joining gap ``gap[r - 1]`` and spanning positions ``lo[r - 1]`` to
    ``hi[r - 1]``, as an n x (n-1) int8 array with one row per position:
    column r - 1 is +1 on the left child's positions, lo up to the gap,
    and -1 on the right child's, the gap up to hi.  Each column is the
    running sum of a +1 at lo, a -2 at the gap and a +1 past hi, summed a
    row at a time: ``np.cumsum`` down the rows of an int8 table was about
    eight times slower at n = 1500."""
    n = len(gap) + 1
    cells = np.zeros((n + 1, n - 1), dtype=np.int8)
    ranks = np.arange(n - 1)
    cells[lo, ranks] = 1
    cells[gap, ranks] = -2
    cells[hi + 1, ranks] = 1
    for above, row in zip(cells, cells[1:n]):
        np.add(row, above, out=row)
    return cells[:n]


def encode_dendrogram(tree: Dendrogram, p: int = 3) -> PadicEncoding:
    """Row i holds the signed branch coefficients of terminal i's
    terminal-to-root traversal; requires a prime p >= 3.  The rows are the
    coefficients of the tree's stored drawing (``_drawn_cells``), put
    into terminal order."""
    _require_encoding_prime(p)
    if tree.n < 2:
        return _encoding_from_array(p, tree.labels, np.zeros((tree.n, 0), dtype=np.int8))
    order, gap, lo, hi = map(np.asarray, tree._drawing)
    return _encoding_from_array(p, tree.labels, _drawn_cells(gap, lo, hi)[np.argsort(order)])


def evaluate_code(code: PadicCode) -> int:
    """Exact integer value sum_j c_j * p^j (level j has weight p^j)."""
    total = 0
    weight = code.p
    for c in code.coefficients:
        total += c * weight
        weight *= code.p
    return total


def decode(enc: PadicEncoding) -> Dendrogram:
    """Unique dendrogram whose encoding is ``enc``.

    Heights are set to the rank values, since the coefficients carry only
    the ranked topology.  The rows sorted root first (``_root_first_order``)
    are the stored drawing of the tree when there is one, and the cut
    between two neighbours is the rank of the node that joins them, so the
    tree is the one that joins the gaps in the order of their cuts
    (``_joined``), and its coefficients (``_drawn_cells``) must equal the
    stored ones.  That costs one sort of the rows and O(n^2) numpy byte
    work.  Only when the check fails are the columns read in order
    (``_decode_by_columns``), to name the first bad one.
    """
    cells, n = enc._cells, enc.n
    if n >= 2:
        order, cut = _root_first_order(cells)
        gaps = np.argsort(cut[1:]) + 1  # the gap of each rank, if the cuts are the ranks
        tree = _joined(enc.labels, [float(rank) for rank in range(n)], np.arange(1, n), order, gaps)
        drawn, at = _drawn_cells(*tree._drawing[1:]), 0
        for rows in _row_blocks(cells, order):
            if not np.array_equal(drawn[at:at + len(rows)], rows):
                break
            at += len(rows)
        else:
            return tree
    return _decode_by_columns(enc)


def _decode_by_columns(enc: PadicEncoding) -> Dendrogram:
    """``decode`` by reading the columns in order over one cluster-id
    array: column j must merge two clusters formed below it, its +1 rows
    exactly one of them (the left child) and its -1 rows exactly another
    (the right child).  Each merge relabels the smaller cluster, so this
    costs O(n * depth + n log n) beyond reading the matrix.  Raises
    ``MalformedEncodingError`` naming the first column whose +1 or -1 rows
    (sorted) are not a cluster formed below it."""
    n = enc.n
    if n == 0:  # the constructor admits an encoding of no terminals; no tree has none
        raise MalformedEncodingError("root column does not cover all terminals")
    cluster = np.arange(n)  # cluster id of each terminal
    members: list[list[int]] = [[i] for i in range(n)]
    child = [~i for i in range(n)]  # the child code of each cluster
    codes = []  # each rank's two child codes in turn
    for j, column in enumerate(np.ascontiguousarray(enc._cells.T)):
        ids = []
        for sign in (1, -1):
            group = np.flatnonzero(column == sign)
            c = int(cluster[group[0]])
            if len(members[c]) != len(group) or (cluster[group] != c).any():
                raise MalformedEncodingError(
                    f"column {j + 1}: {sign:+d} entries {group.tolist()} "
                    "do not form an available cluster"
                )
            ids.append(c)
        a, b = ids
        codes += child[a], child[b]
        small, big = (a, b) if len(members[a]) < len(members[b]) else (b, a)
        cluster[members[small]] = big
        members[big] += members[small]
        members[small] = []
        child[big] = j + 1
    return _tree(enc.labels, [float(rank) for rank in range(n)], range(1, n), codes[0::2], codes[1::2])


def _check_compatible(a: PadicCode, b: PadicCode) -> None:
    if a.p != b.p:
        raise DomainError(f"codes use different primes ({a.p} vs {b.p})")
    if a.levels != b.levels:
        raise DomainError(
            f"codes have different lengths ({a.levels} vs {b.levels})"
        )


def padic_similarity(a: PadicCode, b: PadicCode) -> Fraction:
    """Exact rational p^(-r), where r is the highest level whose
    coefficients differ -- the rank of the lowest common ancestor when the
    codes come from one tree.  Equal codes give 1 (r = 0)."""
    _check_compatible(a, b)
    r = 0
    for level in range(a.levels, 0, -1):
        if a.coefficients[level - 1] != b.coefficients[level - 1]:
            r = level
            break
    return Fraction(1, a.p**r)


def padic_distance(a: PadicCode, b: PadicCode) -> Fraction:
    """1 - p^(-r); a 1-bounded ultrametric, exact in rational arithmetic."""
    return 1 - padic_similarity(a, b)


def scale_operator(code: PadicCode) -> PadicCode:
    """Multiply by 1/p: every coefficient drops one level and the lowest is
    discarded, rising one level in the hierarchy.  Repeated application
    reaches the all-zero null element, a fixed point."""
    coeffs = code.coefficients[1:] + (0,)
    return PadicCode(coeffs, code.p)


def padic_valuation(x: int, p: int) -> int:
    """Exponent of p in the factorization of |x|; infinite for 0 (not represented)."""
    _require_prime(p)
    if x == 0:
        raise DomainError("0 has infinite valuation")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def valuation_distance(x: int, y: int, p: int) -> float:
    """2^(-order_p(x - y)); 0 when x equals y (order infinity)."""
    _require_prime(p)
    if x == y:
        return 0.0
    return 2.0 ** (-padic_valuation(x - y, p))


def code_cluster_sets(codes: Sequence[PadicCode]) -> tuple[frozenset[int], ...]:
    """Cluster read off each level of a code family: the objects whose
    coefficient at that level is nonzero.  Empty levels are dropped."""
    if not codes:
        return ()
    width = codes[0].levels
    out = []
    for j in range(width):
        members = frozenset(i for i, c in enumerate(codes) if c.coefficients[j] != 0)
        if members:
            out.append(members)
    return tuple(out)


def cluster_sets(enc: PadicEncoding) -> tuple[frozenset[int], ...]:
    """Cluster read off each column of the encoding matrix: its nonzero
    rows, read off the stored array.  Every column holds a +1 and a -1, so
    this is ``code_cluster_sets`` of the codes."""
    return tuple(frozenset(np.flatnonzero(column).tolist())
                 for column in np.ascontiguousarray(enc._cells.T))


def code_classes(codes: Sequence[PadicCode]) -> set[frozenset[int]]:
    """Groups of objects sharing identical coefficient vectors; after the
    dilation operator these are the merged-or-kept singleton classes."""
    groups: dict[tuple[int, ...], set[int]] = {}
    for i, code in enumerate(codes):
        groups.setdefault(code.coefficients, set()).add(i)
    return {frozenset(v) for v in groups.values()}

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
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DomainError, MalformedEncodingError
from .hierarchy import Dendrogram, MergeNode, TERMINAL, gap_levels, internal, terminal, walk


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
        # rows are checked in order, so cells above the first row of the
        # wrong length are judged before its length is
        short = next((i for i, row in enumerate(rows) if len(row) != n - 1), n)
        flat = list(chain.from_iterable(rows[:short]))
        if not {int}.issuperset(map(type, flat)):
            raise MalformedEncodingError(_OUTSIDE_COEFFICIENTS)
        if short < n:
            _check_values(flat)
            raise MalformedEncodingError(
                f"row for {labels[short]} has {len(rows[short])} levels, expected {n - 1}"
            )
        cells = _checked_array(_checked_cells(n, flat))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "C", rows)
        object.__setattr__(self, "_cells", cells)

    @property
    def n(self) -> int:
        return len(self.labels)

    def code(self, index: int) -> PadicCode:
        return PadicCode(self.C[index], self.p)

    def codes(self) -> tuple[PadicCode, ...]:
        return tuple(self.code(i) for i in range(self.n))

    def decimal_codes(self) -> tuple[int, ...]:
        """``evaluate_code`` of every row, exact for any encoding.

        The rows are taken in root-first order (``_root_first_order``) in
        one pass, and each code is its predecessor's with the entries at
        and below their cut level swapped out.  On a decodable encoding
        each node is entered and left at most twice along that order, so
        this is O(n) big-integer additions in all, plus O(n^2) numpy byte
        work."""
        n, width, p = self.n, self.n - 1, self.p
        if n < 2:
            return (0,) * n
        cells = self._cells
        order, cut = _root_first_order(cells)
        weights = [p]
        for _ in range(width - 1):
            weights.append(weights[-1] * p)

        def low(row: np.ndarray, c: int) -> int:  # the row's code over levels 1..c
            return sum(weights[j] if row[j] > 0 else -weights[j] for j in np.flatnonzero(row[:c]))

        codes = [0] * n
        code, previous = 0, np.zeros(width, dtype=np.int8)  # cut[0] spans the first row
        for i, c in zip(order.tolist(), cut.tolist()):
            code += low(cells[i], c) - low(previous, c)
            codes[i], previous = code, cells[i]
        return tuple(codes)

    def differing_levels(self) -> np.ndarray:
        """n x n integer matrix of r(i, k), the highest level at which rows
        i and k differ, 0 where they are equal.  ``padic_similarity`` of the
        two rows is p^(-r); for a decodable encoding r is the rank of their
        lowest common ancestor.  Read straight from the coefficients, so it
        is defined on encodings that ``decode`` rejects as well.

        In root-first order r of two rows is the largest cut between their
        sorted positions, so the table is ``gap_levels`` of the cuts:
        O(n^2) in all."""
        if self.n < 2:
            return np.zeros((self.n, self.n), dtype=np.int64)
        order, cut = _root_first_order(self._cells)
        return gap_levels(order, cut[1:])


class _CoefficientRows:
    """The ``C`` field of ``PadicEncoding``: the rows the constructor was
    given, or else row tuples built once from the stored int8 array."""

    def __get__(self, enc, owner=None):
        if enc is None:
            return self
        state = vars(enc)
        if "C" not in state:
            state["C"] = tuple(map(tuple, enc._cells.tolist()))
        return state["C"]

    def __set__(self, enc, rows) -> None:
        vars(enc)["C"] = rows


PadicEncoding.C = _CoefficientRows()

_OUTSIDE_COEFFICIENTS = "coefficients must lie in {-1, 0, +1}"


def _check_values(flat: list[int]) -> None:
    if not {-1, 0, 1}.issuperset(flat):
        raise MalformedEncodingError(_OUTSIDE_COEFFICIENTS)


def _checked_cells(n: int, flat: list[int]) -> np.ndarray:
    """n rows of n - 1 Python ints, concatenated into ``flat``, as an n x
    (n-1) int8 array, after the value check of ``PadicEncoding``.  The
    values are checked on the Python ints, before the conversion: numpy < 2
    wraps 256 to 0 in an int8 array."""
    _check_values(flat)
    return np.fromiter(flat, dtype=np.int8, count=len(flat)).reshape(n, max(n - 1, 0))


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


def _root_first_order(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row indices sorted by their bytes from the root level down, and
    ``cut``: ``cut[k]`` is the highest level at which sorted rows k - 1 and
    k differ (0 where they are equal), and ``cut[0]`` is n - 1.

    Rows of a decodable encoding first differ at their lowest common
    ancestor, +1 against -1, so any fixed order of the symbols sorts them
    into a drawing order of the tree.  For any n >= 2 rows, as for any
    sorted strings, the highest level at which sorted rows a < b differ is
    the largest of cut[a + 1], ..., cut[b]."""
    n, width = cells.shape
    top_first = np.ascontiguousarray(cells[:, ::-1])
    keys = [row.tobytes() for row in top_first]
    order = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
    ranked = top_first[order]
    differs = ranked[1:] != ranked[:-1]
    first = differs.argmax(axis=1)  # counted from the root level down
    cut = np.where(differs[np.arange(n - 1), first], width - first, 0)
    return order, np.concatenate(([width], cut))


def _encoding_from_cells(p: int, labels: tuple[str, ...], flat: list[int]) -> PadicEncoding:
    """The encoding whose rows, concatenated, are ``flat``: Python ints,
    n - 1 per label.  Runs the constructor's checks past its type and
    length checks, which the caller has made: the prime, the values, then
    the array checks of ``_encoding_from_array``."""
    _require_encoding_prime(p)
    return _encoding_from_array(p, labels, _checked_cells(len(labels), flat))


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


def encode_dendrogram(tree: Dendrogram, p: int = 3) -> PadicEncoding:
    """Row i holds the signed branch coefficients of terminal i's
    terminal-to-root traversal; requires a prime p >= 3.  The rows are
    written straight into the stored int8 array."""
    _require_encoding_prime(p)
    width = max(tree.n - 1, 0)
    cells = np.zeros((tree.n, width), dtype=np.int8)
    path = np.zeros(width, dtype=np.int8)  # coefficients of the current root-to-node path
    for (kind, idx), visit in walk(tree):
        if kind == TERMINAL:
            cells[idx] = path
        else:
            path[idx - 1] = (1, -1, 0)[visit]  # in left subtree, in right, done
    return _encoding_from_array(p, tree.labels, cells)


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
    the ranked topology.  Column j merges two clusters formed below it: its
    +1 rows must be exactly one of them (the left child) and its -1 rows
    exactly another (the right child).  The columns are read in order over
    one cluster-id array, and each merge relabels the smaller cluster, so
    decoding costs O(n * depth + n log n) beyond reading the matrix.
    Raises ``MalformedEncodingError`` naming the first column whose +1 or
    -1 rows (sorted) are not a cluster formed below it.
    """
    n = enc.n
    if n == 0:  # the constructor admits an encoding of no terminals; no tree has none
        raise MalformedEncodingError("root column does not cover all terminals")
    cluster = np.arange(n)  # cluster id of each terminal
    members: list[list[int]] = [[i] for i in range(n)]
    child = [terminal(i) for i in range(n)]
    nodes: list[MergeNode] = []
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
        rank = j + 1
        nodes.append(MergeNode(rank, float(rank), child[a], child[b]))
        small, big = (a, b) if len(members[a]) < len(members[b]) else (b, a)
        cluster[members[small]] = big
        members[big] += members[small]
        members[small] = []
        child[big] = internal(rank)
    return Dendrogram(enc.labels, tuple(nodes))


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
    """Cluster read off each column of the encoding matrix."""
    return code_cluster_sets(enc.codes())


def code_classes(codes: Sequence[PadicCode]) -> set[frozenset[int]]:
    """Groups of objects sharing identical coefficient vectors; after the
    dilation operator these are the merged-or-kept singleton classes."""
    groups: dict[tuple[int, ...], set[int]] = {}
    for i, code in enumerate(codes):
        groups.setdefault(code.coefficients, set()).add(i)
    return {frozenset(v) for v in groups.values()}

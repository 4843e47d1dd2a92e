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
from typing import Sequence

from .errors import DomainError, MalformedEncodingError
from .hierarchy import Dendrogram, MergeNode, TERMINAL, internal, terminal, walk


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
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
    """The n x (n-1) coefficient matrix of a dendrogram, one row per terminal."""

    p: int
    labels: tuple[str, ...]
    C: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_encoding_prime(self.p)
        n = len(self.labels)
        if len(self.C) != n:
            raise MalformedEncodingError("one coefficient row per terminal required")
        width = n - 1
        rows = []
        for label, row in zip(self.labels, self.C):
            row = tuple(int(c) for c in row)
            if len(row) != width:
                raise MalformedEncodingError(
                    f"row for {label} has {len(row)} levels, expected {width}"
                )
            if any(c not in (-1, 0, 1) for c in row):
                raise MalformedEncodingError("coefficients must lie in {-1, 0, +1}")
            rows.append(row)
        object.__setattr__(self, "C", tuple(rows))
        object.__setattr__(self, "labels", tuple(self.labels))
        if n >= 2:
            if any(row[-1] == 0 for row in rows):
                raise MalformedEncodingError("root column must have no zero entries")
            for j in range(width):
                signs = {row[j] for row in rows} - {0}
                if signs != {-1, 1}:
                    raise MalformedEncodingError(
                        f"column {j + 1} must contain both a +1 and a -1 entry"
                    )

    @property
    def n(self) -> int:
        return len(self.labels)

    def code(self, index: int) -> PadicCode:
        return PadicCode(self.C[index], self.p)

    def codes(self) -> tuple[PadicCode, ...]:
        return tuple(self.code(i) for i in range(self.n))


def encode_dendrogram(tree: Dendrogram, p: int = 3) -> PadicEncoding:
    """Row i holds the signed branch coefficients of terminal i's
    terminal-to-root traversal; requires a prime p >= 3."""
    _require_encoding_prime(p)
    rows: list[tuple[int, ...]] = [()] * tree.n
    path = [0] * (tree.n - 1)  # coefficients of the current root-to-node path
    for (kind, idx), visit in walk(tree):
        if kind == TERMINAL:
            rows[idx] = tuple(path)
        else:
            path[idx - 1] = (1, -1, 0)[visit]  # in left subtree, in right, done
    return PadicEncoding(p, tree.labels, tuple(rows))


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
    the ranked topology.  Raises when the columns do not describe nested
    left/right splits.
    """
    n = enc.n
    if n == 1:
        return Dendrogram(enc.labels, ())
    available: dict[frozenset[int], tuple[str, int]] = {
        frozenset((i,)): terminal(i) for i in range(n)
    }
    nodes: list[MergeNode] = []
    for j in range(n - 1):
        left = frozenset(i for i in range(n) if enc.C[i][j] == 1)
        right = frozenset(i for i in range(n) if enc.C[i][j] == -1)
        if left not in available:
            raise MalformedEncodingError(
                f"column {j + 1}: +1 entries {sorted(left)} do not form an available cluster"
            )
        if right not in available:
            raise MalformedEncodingError(
                f"column {j + 1}: -1 entries {sorted(right)} do not form an available cluster"
            )
        rank = j + 1
        nodes.append(MergeNode(rank, float(rank), available.pop(left), available.pop(right)))
        available[left | right] = internal(rank)
    if frozenset(range(n)) not in available:
        raise MalformedEncodingError("root column does not cover all terminals")
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

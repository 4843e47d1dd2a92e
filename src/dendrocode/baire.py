"""Longest-common-prefix (Baire) distance on digit strings, digitization
front-ends for reals and DNA alphabets, and one-pass prefix-tree clustering
that reads a hierarchy directly off the strings, bypassing pairwise
distances.

The distance between two base-b digit strings with longest common prefix of
length r is b^(-r), an ultrametric bounded above by 1 whose infimum over
ever-longer agreement is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .errors import DegenerateInputError, DomainError, ParseError
from .hierarchy import Child, Dendrogram, MergeNode, internal, terminal


@dataclass(frozen=True)
class BaireString:
    """A finite digit sequence in a fixed base, optionally labeled."""

    base: int
    digits: tuple[int, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        if self.base < 2:
            raise DomainError("base must be at least 2")
        digits = tuple(int(d) for d in self.digits)
        if len(digits) < 1:
            raise DomainError("need at least one digit")
        if any(not 0 <= d < self.base for d in digits):
            raise DomainError(f"digits must lie in 0..{self.base - 1}")
        object.__setattr__(self, "digits", digits)

    def text(self) -> str:
        if self.base <= len(_DIGIT_CHARS):
            return "".join(_DIGIT_CHARS[d] for d in self.digits)
        return ",".join(str(d) for d in self.digits)


_DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def parse_digits(text: str, base: int, label: str | None = None) -> BaireString:
    digits = []
    for pos, ch in enumerate(text.strip().upper(), start=1):
        value = _DIGIT_CHARS.find(ch)
        if value < 0 or value >= base:
            raise ParseError(f"invalid base-{base} digit {ch!r} at position {pos}")
        digits.append(value)
    if not digits:
        raise ParseError("empty digit string")
    return BaireString(base, tuple(digits), label)


def _check_bases(s: BaireString, t: BaireString) -> None:
    if s.base != t.base:
        raise DomainError(f"strings use different bases ({s.base} vs {t.base})")


def lcp_radius(s: BaireString, t: BaireString) -> int:
    """Length of the longest common prefix; min(len) if one is a prefix of
    the other."""
    _check_bases(s, t)
    r = 0
    for a, b in zip(s.digits, t.digits):
        if a != b:
            break
        r += 1
    return r


def baire_distance(s: BaireString, t: BaireString) -> Fraction:
    """base^(-lcp) as an exact rational.

    Identical strings (equal digits and equal labels) short-circuit to 0,
    keeping the identity axiom; equal digit content under distinct labels
    keeps the finite-precision value base^(-len), matching the cophenetic
    distance in a prefix-tree clustering of the same strings.
    """
    _check_bases(s, t)
    if s.digits == t.digits and s.label == t.label:
        return Fraction(0)
    return Fraction(1, s.base ** lcp_radius(s, t))


def _to_fraction(value) -> Fraction:
    if isinstance(value, str):
        try:
            return Fraction(Decimal(value))
        except InvalidOperation as exc:
            raise ParseError(f"cannot parse {value!r} as a number") from exc
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise ParseError(f"cannot digitize values of type {type(value).__name__}")


def digitize_reals(
    values: Iterable, precision: int, base: int = 10
) -> list[BaireString]:
    """First ``precision`` fractional base digits of each value, truncated.

    Values must lie in [0, 1); callers normalize first.  Decimal strings
    and fractions are expanded exactly; floats are expanded at their exact
    binary value.  Truncation (never rounding) keeps successive precisions
    refining the same prefix.
    """
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if base < 2:
        raise DomainError("base must be at least 2")
    out = []
    for i, value in enumerate(values):
        f = _to_fraction(value)
        if not 0 <= f < 1:
            raise DomainError(
                f"value #{i + 1} ({value!r}) outside [0, 1); normalize inputs first"
            )
        shifted = f * base**precision
        scaled = shifted.numerator // shifted.denominator
        digits = []
        for _ in range(precision):
            scaled, d = divmod(scaled, base)
            digits.append(d)
        out.append(BaireString(base, tuple(reversed(digits)), label=f"v{i + 1}"))
    return out


_DNA_SCHEMES = {
    # alphabet tables are fixed and documented: T and U encode alike
    "5-adic": (5, {"A": (1,), "C": (2,), "G": (3,), "T": (4,), "U": (4,)}),
    "4-adic": (4, {"A": (0,), "C": (1,), "G": (2,), "T": (3,), "U": (3,)}),
    "2-adic-pairs": (
        2,
        {"A": (0, 0), "C": (0, 1), "G": (1, 0), "T": (1, 1), "U": (1, 1)},
    ),
}


def encode_dna(sequence: str, scheme: str = "5-adic", label: str | None = None) -> BaireString:
    """Digit encoding of a nucleotide sequence over {A, C, G, T, U}."""
    if scheme not in _DNA_SCHEMES:
        raise DomainError(f"scheme must be one of {sorted(_DNA_SCHEMES)}, got {scheme!r}")
    base, table = _DNA_SCHEMES[scheme]
    seq = sequence.strip().upper()
    if not seq:
        raise DomainError("empty sequence")
    digits: list[int] = []
    for pos, ch in enumerate(seq, start=1):
        if ch not in table:
            raise ParseError(f"invalid nucleotide {ch!r} at position {pos}")
        digits.extend(table[ch])
    return BaireString(base, tuple(digits), label)


@dataclass
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    members: list[int] = field(default_factory=list)  # string indices ending here
    size: int = 0  # strings passing through or ending here


@dataclass(frozen=True)
class PrefixHierarchy:
    """A digit trie over a set of strings plus the induced hierarchy."""

    base: int
    depth: int
    root: TrieNode
    labels: tuple[str, ...]
    node_count: int

    def member_count(self) -> int:
        return self.root.size

    def dump_text(self) -> str:
        """Indented one-node-per-line rendering for inspection."""
        lines: list[str] = []
        stack = [(self.root, "")]
        while stack:
            node, prefix = stack.pop()
            tag = ""
            if node.members:
                tag = "  <- " + ", ".join(self.labels[i] for i in node.members)
            lines.append("  " * len(prefix) + f"{prefix or '(root)'} [{node.size}]{tag}")
            for digit in sorted(node.children, reverse=True):
                stack.append((node.children[digit], prefix + _DIGIT_CHARS[digit]))
        return "\n".join(lines) + "\n"


def _build_trie(strings: Sequence[BaireString]) -> tuple[TrieNode, int, int]:
    root = TrieNode()
    count = 1
    depth = 0
    for index, s in enumerate(strings):
        node = root
        node.size += 1
        for d in s.digits:
            nxt = node.children.get(d)
            if nxt is None:
                nxt = TrieNode()
                node.children[d] = nxt
                count += 1
            node = nxt
            node.size += 1
        node.members.append(index)
        depth = max(depth, len(s.digits))
    return root, count, depth


def baire_cluster(
    strings: Sequence[BaireString],
) -> tuple[PrefixHierarchy, Dendrogram]:
    """One-pass prefix-tree clustering.

    Builds the trie in time linear in the total digit count, then exports a
    binary dendrogram: items under a trie node of depth r merge at height
    base^(-r); multiway splits are binarized left-to-right by digit order,
    all binarization nodes sharing that height, which preserves cophenetic
    distance = Baire distance for every pair.
    """
    if not strings:
        raise DegenerateInputError("need at least one string")
    base = strings[0].base
    for s in strings[1:]:
        if s.base != base:
            raise DomainError("all strings must share one base")
    labels = tuple(
        s.label if s.label is not None else f"s{i + 1}" for i, s in enumerate(strings)
    )
    root, node_count, depth = _build_trie(strings)
    hierarchy = PrefixHierarchy(base, depth, root, labels, node_count)

    if len(strings) == 1:
        return hierarchy, Dendrogram((labels[0],), ())

    # Trie nodes level by level, left to right; the children of one node sit
    # side by side, in digit order, in the level below.
    levels = [[root]]
    while True:
        children = [node.children[d] for node in levels[-1] for d in sorted(node.children)]
        if not children:
            break
        levels.append(children)

    # Merge the deepest level first, so heights are monotone in rank.
    nodes: list[MergeNode] = []
    below: list[Child] = []  # subtree of each node of the level below
    for level in range(len(levels) - 1, -1, -1):
        height = float(Fraction(1, base**level))
        subtrees: list[Child] = []
        taken = 0
        for trie_node in levels[level]:
            end = taken + len(trie_node.children)
            if trie_node.members or end - taken > 1:
                items = [terminal(i) for i in sorted(trie_node.members)] + below[taken:end]
                current = items[0]
                for item in items[1:]:
                    rank = len(nodes) + 1
                    nodes.append(MergeNode(rank, height, current, item))
                    current = internal(rank)
                subtrees.append(current)
            else:  # a node with one child and no members passes that subtree up
                subtrees.append(below[taken])
            taken = end
        below = subtrees

    assert below == [internal(len(nodes))]
    return hierarchy, Dendrogram(labels, tuple(nodes))

"""Longest-common-prefix (Baire) distance on digit strings, digitization
front-ends for reals and DNA alphabets, and one-pass prefix-tree clustering
that reads a hierarchy directly off the strings, bypassing pairwise
distances.

The distance between two base-b digit strings with longest common prefix of
length r is b^(-r), an ultrametric bounded above by 1 whose infimum over
ever-longer agreement is 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, ParseError, _require_at_least
from .hierarchy import Dendrogram, MergeNode, _tree, gap_levels, internal, join_gaps, terminal


@dataclass(frozen=True)
class BaireString:
    """A finite digit sequence in a fixed base, optionally labeled."""

    base: int
    digits: tuple[int, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        _require_at_least(self.base, 2, "base")
        digits = tuple(int(d) for d in self.digits)
        if len(digits) < 1:
            raise DomainError("need at least one digit")
        if any(not 0 <= d < self.base for d in digits):
            raise DomainError(f"digits must lie in 0..{self.base - 1}")
        object.__setattr__(self, "digits", digits)

    def text(self) -> str:
        return _digit_text(self.base, self.digits)


def _baire_strings(
    base: int, labels: Sequence[str | None], digits: np.ndarray, lengths: np.ndarray
) -> list[BaireString]:
    """The strings whose digits, concatenated, are ``digits``: ``lengths[i]``
    of them under ``labels[i]``.  Every string not built by the constructor
    is built here, without its checks: the caller has checked ``base`` and
    made every length at least 1 and every digit below ``base``."""
    values, out, start = digits.tolist(), [], 0
    for label, end in zip(labels, np.cumsum(lengths).tolist()):
        s = object.__new__(BaireString)
        object.__setattr__(s, "base", base)
        object.__setattr__(s, "digits", tuple(values[start:end]))
        object.__setattr__(s, "label", label)
        out.append(s)
        start = end
    return out


_DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _digit_text(base: int, digits: Sequence[int]) -> str:
    """Digits as characters up to base 36, else comma-separated numbers."""
    if base <= len(_DIGIT_CHARS):
        return "".join(map(_DIGIT_CHARS.__getitem__, digits))
    return ",".join(map(str, digits))


def parse_digits(text: str, base: int, label: str | None = None) -> BaireString:
    _require_at_least(base, 2, "base")
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


def _scaled(i: int, value, scale: int, cut: int) -> int:
    """``floor(value * scale)`` for ``value``, the ``i``-th (from 0), or 0
    for a Decimal below ``10**-cut``.  It is checked to be a finite number
    in [0, 1) first: converting an infinity fails, and a huge exponent takes
    unbounded time.  A float is its exact ratio m / 2^k, so
    ``m * scale // 2^k``, with no ``Fraction``."""
    number = value
    if isinstance(value, str):
        try:
            number = Decimal(value)
        except InvalidOperation as exc:
            raise ParseError(f"cannot parse {value!r} as a number") from exc
    if not isinstance(number, (Decimal, Rational, float)):
        raise ParseError(f"cannot digitize values of type {type(value).__name__}")
    # ordering a Decimal NaN raises; a float NaN fails both comparisons
    if (isinstance(number, Decimal) and not number.is_finite()) or not 0 <= number < 1:
        raise DomainError(f"value #{i + 1} ({value!r}) outside [0, 1); normalize inputs first")
    if isinstance(number, float):
        m, d = number.as_integer_ratio()
        return m * scale // d
    if isinstance(number, Decimal) and number.adjusted() < -cut:
        return 0  # converting 1e-999999999999 would build 10**999999999999
    shifted = Fraction(number) * scale
    return shifted.numerator // shifted.denominator


def digitize_reals(
    values: Iterable, precision: int, base: int = 10
) -> list[BaireString]:
    """First ``precision`` fractional base digits of each value, truncated.

    Values must lie in [0, 1); callers normalize first.  Decimal strings
    and fractions are expanded exactly; floats are expanded at their exact
    binary value.  Truncation (never rounding) keeps successive precisions
    refining the same prefix.  The digits of all values are taken at once,
    one column per pass, in int64 while ``base**precision`` fits.
    """
    _require_at_least(precision, 1, "precision")
    _require_at_least(base, 2, "base")
    scale = base**precision
    cut = scale.bit_length() // 3 + 1  # 10**cut > scale: below 10**-cut all digits are 0
    scaled = [_scaled(i, value, scale, cut) for i, value in enumerate(values)]
    rest = np.array(scaled, dtype=np.int64 if scale < 2**63 else object)
    digits = np.empty((len(scaled), precision), dtype=rest.dtype)
    for j in range(precision - 1, -1, -1):
        digits[:, j] = rest % base
        rest //= base
    labels = [f"v{i + 1}" for i in range(len(scaled))]
    return _baire_strings(base, labels, digits.ravel(), np.full(len(scaled), precision))


_DNA_SCHEMES = {
    # alphabet tables are fixed and documented: T and U encode alike
    "5-adic": (5, {"A": (1,), "C": (2,), "G": (3,), "T": (4,), "U": (4,)}),
    "4-adic": (4, {"A": (0,), "C": (1,), "G": (2,), "T": (3,), "U": (3,)}),
    "2-adic-pairs": (
        2,
        {"A": (0, 0), "C": (0, 1), "G": (1, 0), "T": (1, 1), "U": (1, 1)},
    ),
}


# each scheme's digit text per letter, in either case; an ASCII digit maps
# to "?", so a translated text holds only ASCII digits if every character
# was a letter of the alphabet
_DNA_TEXT = {
    scheme: str.maketrans({
        **dict.fromkeys("0123456789", "?"),
        **{c: "".join(map(str, d)) for letter, d in table.items() for c in (letter, letter.lower())},
    })
    for scheme, (_, table) in _DNA_SCHEMES.items()
}


def _dna_digit_texts(sequences: Sequence[str], scheme: str) -> list[str] | None:
    """The digit text ``encode_dna(seq, scheme).text()`` of each nonempty,
    stripped sequence, one ``str.translate`` each; None if any character
    lies outside the alphabet, so that ``encode_dna`` names it."""
    table = _DNA_TEXT[scheme]
    texts = [seq.translate(table) for seq in sequences]
    joined = "".join(texts)
    return texts if joined.isascii() and joined.isdigit() else None


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


@dataclass(frozen=True)
class PrefixHierarchy:
    """The prefix tree of a set of strings, held as the strings sorted by
    digits: ``order`` lists the string indices in that stable order and
    ``lcp[k]`` is the common-prefix length of sorted neighbours k-1 and k
    (0 at k=0).  Each trie node is a prefix, first met where d > lcp[k]."""

    base: int
    labels: tuple[str, ...]
    strings: tuple[BaireString, ...]
    order: tuple[int, ...]
    lcp: tuple[int, ...]

    @property
    def depth(self) -> int:
        return max(len(s.digits) for s in self.strings)

    @property
    def node_count(self) -> int:
        """Trie nodes: the root plus every distinct nonempty prefix."""
        return 1 + sum(len(s.digits) for s in self.strings) - sum(self.lcp)

    def member_count(self) -> int:
        return len(self.strings)

    def levels(self) -> np.ndarray:
        """n x n integer table, in string order, of the common-prefix length
        of each two strings, so base^(-level) is their ``baire_distance``;
        -1 where that distance is 0: on the diagonal and between equal
        digits under one label.  Two sorted strings share the least ``lcp``
        between their positions, which is depth minus the largest gap of
        depth - lcp (``gap_levels``)."""
        depth = self.depth
        levels = gap_levels(self.order, depth - np.array(self.lcp[1:], dtype=np.intp))
        np.subtract(depth, levels, out=levels)
        ids: dict = {}
        same = np.array([ids.setdefault((s.digits, s.label), len(ids)) for s in self.strings])
        levels[same[:, None] == same] = -1
        return levels

    def dump_text(self) -> str:
        """Indented one-node-per-line rendering for inspection, in preorder
        with children in digit order: each node shows its prefix (as
        ``BaireString.text`` writes digits), the number of strings under it
        and the labels of the strings that end there.  Each prefix is its
        parent's text plus one digit."""
        order, lcp, n = self.order, self.lcp, len(self.order)
        digits = [self.strings[i].digits for i in order]
        if self.base <= len(_DIGIT_CHARS):
            digit_text, comma = _DIGIT_CHARS.__getitem__, ""
        else:
            digit_text, comma = str, ","
        # per line: depth, prefix text, first sorted position, end of its sorted run
        depths, prefixes, starts, ends = [0], [""], [0], [n]
        open_lines = [0]  # lines of the nodes on the current root path
        for k in range(n):
            while depths[open_lines[-1]] > lcp[k]:
                ends[open_lines.pop()] = k
            prefix = prefixes[open_lines[-1]]  # the text of digits[k][:lcp[k]]
            for d in range(lcp[k] + 1, len(digits[k]) + 1):
                digit = digit_text(digits[k][d - 1])
                prefix = f"{prefix}{comma}{digit}" if prefix else digit
                open_lines.append(len(depths))
                depths.append(d)
                prefixes.append(prefix)
                starts.append(k)
                ends.append(n)
        lines = [f"(root) [{n}]"]
        for d, prefix, k, end in zip(depths[1:], prefixes[1:], starts[1:], ends[1:]):
            j = k  # the strings that end here come first in the run
            while j < end and len(digits[j]) == d:
                j += 1
            tag = "  <- " + ", ".join(self.labels[i] for i in order[k:j]) if j > k else ""
            lines.append(f"{'  ' * d}{prefix} [{end - k}]{tag}")
        return "\n".join(lines) + "\n"


def _prefix_order(digits: Sequence[tuple[int, ...]], base: int) -> tuple[np.ndarray, np.ndarray]:
    """``order``, the indices of the digit strings ``digits`` in stable
    digit order (a prefix before its extensions), and ``lcp``: ``lcp[k]``
    is the common-prefix length of sorted strings k-1 and k, and 0 at k=0.

    One stable sort orders the strings by a key that compares as the digits
    do: their bytes up to base 256, else the digit tuple.  Each sorted
    neighbour pair is then compared digit by digit over the shorter length,
    all pairs in one numpy comparison; ``lcp`` is the first mismatch, or
    that length when there is none."""
    n = len(digits)
    if base <= 256:
        keys = [bytes(d) for d in digits]
        codes = np.frombuffer(b"".join(keys), dtype=np.uint8)
    else:  # object dtype past 2**64: numpy holds no wider integers
        keys = digits
        codes = np.array(list(itertools.chain.from_iterable(digits)), np.min_scalar_type(base - 1))
    order = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
    lengths = np.fromiter(map(len, digits), dtype=np.intp, count=n)
    starts = np.cumsum(lengths) - lengths
    left, right = order[:-1], order[1:]
    shared = np.minimum(lengths[left], lengths[right])
    ends = np.cumsum(shared)
    begins = ends - shared  # sorted pair k compares its digits at positions begins[k]..ends[k]-1
    at = np.repeat(starts[left] - begins, shared)  # where each pair's left digits lie
    at += np.arange(at.size)
    differs = codes[at] != codes[at + np.repeat(starts[right] - starts[left], shared)]
    mismatches = np.flatnonzero(np.append(differs, True))  # ends past every pair's digits
    first = mismatches[np.searchsorted(mismatches, begins)]
    return order, np.concatenate(([0], np.minimum(first, ends) - begins))


def baire_cluster(
    strings: Sequence[BaireString],
) -> tuple[PrefixHierarchy, Dendrogram]:
    """One-pass prefix-tree clustering.

    Sorts the strings by digits (``_prefix_order``); two sorted neighbours
    meet at the depth r of their common prefix, so the gap between them
    closes at height base^(-r).  Gaps join deepest first, then left to
    right, which binarizes every multiway split left-to-right in digit
    order with all its merges at one height and keeps cophenetic distance =
    Baire distance for every pair.
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
    order, lcp = _prefix_order([s.digits for s in strings], base)
    hierarchy = PrefixHierarchy(base, labels, tuple(strings), tuple(order.tolist()), tuple(lcp.tolist()))

    heights = {r: float(Fraction(1, base**r)) for r in set(hierarchy.lcp)}
    # a stable sort of -lcp: deepest lcp first, equal lcps left to right
    gaps = (np.argsort(-lcp[1:], kind="stable") + 1).tolist()
    refs = [terminal(i) for i in hierarchy.order]  # subtree of the run starting at each position
    nodes = []
    for rank, (lo, k) in enumerate(join_gaps(len(order), gaps), start=1):
        nodes.append(MergeNode(rank, heights[hierarchy.lcp[k]], refs[lo], refs[k]))
        refs[lo] = internal(rank)
    return hierarchy, _tree(labels, tuple(nodes))

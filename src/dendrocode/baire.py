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
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import errors
from .errors import DegenerateInputError, DomainError, ParseError, _require_at_least
from .hierarchy import Dendrogram, _FromArrays, _joined, gap_levels


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
    return BaireString(base, tuple(_parse_digit_list(text, base)), label)


def _parse_digit_list(text: str, base: int) -> list[int]:
    """The digits of ``text``, stripped, read as ``0-9A-Z`` in either
    case; the first one not below ``base``, or no digit at all, is a
    ``ParseError``.  The caller has checked ``base``."""
    digits = []
    for pos, ch in enumerate(text.strip().upper(), start=1):
        value = _DIGIT_CHARS.find(ch)
        if value < 0 or value >= base:
            raise ParseError(f"invalid base-{base} digit {ch!r} at position {pos}")
        digits.append(value)
    if not digits:
        raise ParseError("empty digit string")
    return digits


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


def _digit_array(digits: Sequence[Sequence[int]], base: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit sequences ``digits`` as one digit array: their digits
    concatenated, in the narrowest unsigned type that holds ``base - 1``
    (Python ints past 2**64), and the length of each."""
    lengths = np.fromiter(map(len, digits), dtype=np.intp, count=len(digits))
    codes = np.fromiter(itertools.chain.from_iterable(digits), dtype=np.min_scalar_type(base - 1),
                        count=int(lengths.sum()))
    return codes, lengths


@dataclass(frozen=True)
class PrefixHierarchy:
    """The prefix tree of a set of strings, held as the strings sorted by
    digits: ``order`` lists the string indices in that stable order and
    ``lcp[k]`` is the common-prefix length of sorted neighbours k-1 and k
    (0 at k=0).  Each trie node is a prefix, first met where d > lcp[k].

    Every method reads one digit array: the strings' digits concatenated,
    the length and label of each, and ``order`` and ``lcp`` as arrays.
    The clustering core, ``_prefix_tree``, makes only that array; a field
    it was not handed (``strings``, ``order``, ``lcp``) is made from the
    array on first access, so the verbs never make them.  Equality, hash
    and repr go through the fields."""

    base: int
    labels: tuple[str, ...]
    strings: tuple[BaireString, ...]
    order: tuple[int, ...]
    lcp: tuple[int, ...]

    def __post_init__(self) -> None:
        # the public constructor: the digit array of the fields it was
        # given, which must be the strings' own labels, order and lcp, all
        # kept as tuples
        vars(self).update(labels=tuple(self.labels), strings=tuple(self.strings))
        _require_one_base(self.strings, self.base)
        if len(self.labels) != len(self.strings):
            raise DomainError(f"expected {len(self.strings)} labels, got {len(self.labels)}")
        codes, lengths = _digit_array([s.digits for s in self.strings], self.base)
        order, lcp = _prefix_order(codes, lengths)
        if list(self.order) != order.tolist() or list(self.lcp) != lcp.tolist():
            raise DomainError("order and lcp must be the strings' digit order and its "
                              "common-prefix lengths")
        vars(self).update(order=tuple(order.tolist()), lcp=tuple(lcp.tolist()))
        self._hold([s.label for s in self.strings], codes, lengths, order, lcp)

    def _hold(self, tags: Sequence[str | None], codes: np.ndarray, lengths: np.ndarray,
              order: np.ndarray, lcp: np.ndarray) -> PrefixHierarchy:
        """Keep the digit array: ``tags`` are the strings' own labels, None
        where a string has none."""
        vars(self).update(_tags=tags, _codes=codes, _lengths=lengths, _order=order, _lcp=lcp)
        return self

    @property
    def depth(self) -> int:
        return int(self._lengths.max())

    @property
    def node_count(self) -> int:
        """Trie nodes: the root plus every distinct nonempty prefix."""
        return 1 + int(self._lengths.sum()) - int(self._lcp.sum())

    def member_count(self) -> int:
        return len(self._lengths)

    def levels(self) -> np.ndarray:
        """n x n integer table, in string order, of the common-prefix length
        of each two strings, so base^(-level) is their ``baire_distance``;
        -1 where that distance is 0: on the diagonal and between equal
        digits under one label.  Each gap g of ``_level_gaps`` stands for
        level depth + 1 - g, and gap 0 for -1.  The table takes the
        narrowest signed integer type that holds -1 and the depth."""
        depth = self.depth
        level = np.arange(depth + 1, -1, -1, dtype=np.result_type(np.int8, np.min_scalar_type(depth)))
        level[0] = -1
        return level[gap_levels(*self._level_gaps())]

    def _level_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Each string's drawing position, and the gaps between positions.

        The positions are the sorted strings, where equal digits under one
        label share one position: their distance is 0.  Equal digits are
        sorted neighbours, a run of strings whose ``lcp`` is their whole
        length, so only the labels within such a run are compared; each
        label's first string there takes a position of its own.  Two
        strings share the least ``lcp`` between their sorted positions, so
        the gap before a position is depth + 1 - ``lcp`` at the first
        string there, at least 1."""
        order, lcp = self._order, self._lcp
        fresh = lcp != self._lengths[order]  # the sorted strings that start a position
        first = np.arange(len(order))  # the sorted string whose position each takes
        repeats = np.flatnonzero(~fresh).tolist()
        if repeats:
            tags, ids, seen, previous = self._tags, order.tolist(), {}, -2
            for k in repeats:
                if k != previous + 1:  # a run of equal digits from k - 1
                    seen = {tags[ids[k - 1]]: k - 1}
                first[k] = seen.setdefault(tags[ids[k]], k)
                fresh[k] = first[k] == k
                previous = k
        pos = np.empty(len(order), dtype=np.intp)
        pos[order] = (np.cumsum(fresh) - 1)[first]
        return pos, self.depth + 1 - lcp[np.flatnonzero(fresh)[1:]]

    def _tree_columns(self) -> Dendrogram:
        """The tree of ``baire_cluster``, built as columns.  Two sorted neighbours
        meet at the depth r of their common prefix, so the gap between them
        closes at height base^(-r), level r.  Gaps join deepest first, then
        left to right (``join_gaps``), which binarizes every multiway split
        left-to-right in digit order with all its merges at one height and
        keeps cophenetic distance = Baire distance for every pair."""
        order, lcp = self._order, self._lcp
        # a stable sort of -lcp: deepest lcp first, equal lcps left to right
        gaps = np.argsort(-lcp[1:], kind="stable") + 1
        level = lcp[gaps]
        heights = [1 / self.base**r for r in range(int(level.max(initial=0)) + 1)]
        return _joined(self.labels, heights, level, order, gaps)

    def dump_text(self) -> str:
        """Indented one-node-per-line rendering for inspection, in preorder
        with children in digit order: each node shows its prefix (as
        ``BaireString.text`` writes digits), the number of strings under it
        and the labels of the strings that end there.  The text of
        ``_dump_chunks``."""
        return "".join(self._dump_chunks())

    def _dump_chunks(self) -> Iterator[str]:
        """``dump_text`` text: the root's line, then the lines of one run of
        sorted strings at a time, each run cut at about ``errors._CHUNK``
        characters and made as bytes by numpy.

        The trie's nodes in preorder are the pairs (k, d) in order, for each
        sorted position k and each depth d past ``lcp[k]`` up to the length
        of string k: the prefix of length d of string k.  Its strings run
        from k to the first later position whose ``lcp`` is below d.  A
        string that repeats the digits before it has no node; the labels of
        a run of equal strings follow the line of the first one's last node,
        "  <- " before the first label and ", " before each other.

        Each run's lines are laid out as items, a node's line, or a string's
        label with what leads it, and every part of an item (indent, prefix,
        ``[count]``, tag text and line end) is placed by one fancy-index
        pass, every base through the same code: a prefix is cut from its
        string's text (``_digits_text``)."""
        order, lcp, n = self._order, self._lcp, len(self._order)
        lens = self._lengths[order]
        starts = np.cumsum(self._lengths) - self._lengths
        nodes = lens - lcp
        repeat = nodes == 0  # the sorted strings equal to the one before
        small = self.base <= len(_DIGIT_CHARS)
        yield f"(root) [{n}]\n"
        # the runs: their prefixes and indents take at least 3d characters
        # per node of depth d
        size = np.cumsum(3 * (lens * (lens + 1) - lcp * (lcp + 1)) // 2 + 8 * nodes + 4)
        cuts = np.searchsorted(size, np.arange(errors._CHUNK, size[-1], errors._CHUNK)) + 1
        bounds = sorted({0, *cuts.tolist(), n})
        # after[d]: the first position from a run's end on whose lcp is
        # below d, or n; found for each run from the last back
        depth = int(lens.max())
        after = np.full(depth + 1, n)
        afters = []
        for a, b in zip(bounds[-2::-1], bounds[:0:-1]):
            afters.append(after)
            low = np.minimum.accumulate(lcp[a:b])
            at = np.searchsorted(-low, -np.arange(depth + 1), side="right")
            after = np.where(at < b - a, a + at, after)
        for (a, b), after in zip(zip(bounds[:-1], bounds[1:]), reversed(afters)):
            ids, run_lcp, run_lens, count = order[a:b], lcp[a:b], lens[a:b], nodes[a:b]
            # the nodes of the run, in preorder: position, depth and run end
            before = np.cumsum(count) - count
            node_at = np.repeat(np.arange(b - a), count)
            node_depth = np.repeat(run_lcp + 1 - before, count) + np.arange(node_at.size)
            end = np.empty(node_at.size, dtype=np.intp)
            for d in range(1, int(run_lens.max()) + 1):
                below = np.flatnonzero(run_lcp < d)  # where a run of depth d can end
                at = below[run_lens[below] >= d]  # the positions with a node at depth d
                end[before[at] + d - 1 - run_lcp[at]] = np.append(below + a, after[d])[
                    np.searchsorted(below, at, "right")]
            members = end - a - node_at
            del end
            # the text of the run's strings: each node's prefix starts where
            # its string's text does and ends with its last digit's text
            text, digit_end = _digits_text(self._codes[_ragged(starts[ids], run_lens)], run_lens, small)
            first_digit = np.cumsum(run_lens) - run_lens
            source = np.append(0, digit_end)[first_digit][node_at]
            prefix = digit_end[first_digit[node_at] + node_depth - 1] - source
            del digit_end
            digits = 1 + np.searchsorted(10 ** np.arange(1, len(str(n)) + 1), members, "right")
            newline = node_depth < run_lens[node_at]  # the line of a string's last node goes on
            # the labels: a string's own with "  <- " or ", " before it, and
            # a line end after the last of equal strings
            names = [self.labels[i] for i in ids.tolist()]
            joined = "".join(names)
            if not joined.isascii():
                names = [name.encode("utf-8", "surrogatepass") for name in names]
                joined = b"".join(names)
            label_len = np.fromiter(map(len, names), dtype=np.intp, count=len(names))
            opens = ~repeat[a:b]
            closes = ~np.append(repeat, False)[a + 1 : b + 1]
            lead = np.where(opens, 5, 2)
            # the items: each position's nodes, then its label
            node_item = np.arange(node_at.size) + node_at
            label_item = before + count + np.arange(b - a)
            item_len = np.empty(node_at.size + b - a, dtype=np.intp)
            item_len[node_item] = 2 * node_depth + prefix + 3 + digits + newline
            item_len[label_item] = lead + label_len + closes
            item_start = np.cumsum(item_len) - item_len
            out = np.full(int(item_len.sum()), ord(" "), dtype=np.uint8)
            line = item_start[node_item] + 2 * node_depth
            tag = item_start[label_item]
            del node_at, node_depth, node_item, item_len, item_start
            out[_ragged(line, prefix)] = text[_ragged(source, prefix)]
            line += prefix + 1
            out[line] = ord("[")
            for place in range(int(digits.max(initial=0))):
                has = digits > place
                out[(line + digits - place)[has]] = ord("0") + members[has] // 10**place % 10
            line += digits
            out[line + 1] = ord("]")
            out[line[newline] + 2] = ord("\n")
            out[tag[opens] + 2] = ord("<")
            out[tag[opens] + 3] = ord("-")
            out[tag[~opens]] = ord(",")
            out[_ragged(tag + lead, label_len)] = np.frombuffer(
                joined if isinstance(joined, bytes) else joined.encode(), dtype=np.uint8)
            out[(tag + lead + label_len)[closes]] = ord("\n")
            yield out.tobytes().decode("utf-8", "surrogatepass")


def _digits_text(codes: np.ndarray, lengths: np.ndarray, small: bool) -> tuple[np.ndarray, np.ndarray]:
    """The text of the strings whose digits, concatenated, are ``codes``,
    ``lengths[i]`` of them in string i, as ``BaireString.text`` writes
    each (one character a digit when ``small``, else decimal numbers with a
    comma before each but a string's first), concatenated as bytes; and
    where each digit's text ends in it.  Each distinct digit's text is made
    once, and all of them are placed by one fancy-index pass."""
    values, token = np.unique(codes, return_inverse=True)
    texts = [_DIGIT_CHARS[v] if small else str(v) for v in values.tolist()]
    token_len = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    token_start = np.cumsum(token_len) - token_len
    comma = 0 if small else 1
    text_len = token_len[token]
    cell = text_len + comma  # each digit's text and the comma before it
    cell[np.cumsum(lengths) - lengths] -= comma
    digit_end = np.cumsum(cell)
    text = np.full(digit_end[-1], ord(","), dtype=np.uint8)
    text[_ragged(digit_end - text_len, text_len)] = np.frombuffer("".join(texts).encode(), dtype=np.uint8)[
        _ragged(token_start[token], text_len)]
    return text, digit_end


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]``, ..., ``starts[i] + lengths[i] - 1`` of
    every i in turn, as one array."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(int(lengths.sum()))


def _strings_of(hierarchy: PrefixHierarchy) -> tuple[BaireString, ...]:
    return tuple(_baire_strings(hierarchy.base, hierarchy._tags, hierarchy._codes, hierarchy._lengths))


PrefixHierarchy.strings = _FromArrays("strings", _strings_of)
PrefixHierarchy.order = _FromArrays("order", lambda hierarchy: tuple(hierarchy._order.tolist()))
PrefixHierarchy.lcp = _FromArrays("lcp", lambda hierarchy: tuple(hierarchy._lcp.tolist()))


def _prefix_order(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order``, the indices of the strings of a digit array (``codes``
    and ``lengths``, as ``_digit_array`` makes them) in stable digit order
    (a prefix before its extensions), and ``lcp``: ``lcp[k]`` is the
    common-prefix length of sorted strings k-1 and k, and 0 at k=0.

    One stable sort orders the strings by a key cut from one buffer of
    the codes, each a fixed number of big-endian bytes, so that the keys
    compare as the digits do.  Each sorted neighbour pair is then compared
    digit by digit over the shorter length, all pairs in one numpy
    comparison; ``lcp`` is the first mismatch, or that length when there
    is none."""
    n = len(lengths)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if codes.dtype == object:  # numpy holds no integers past 2**64
        width = max(1, (max(codes.tolist()).bit_length() + 7) // 8)
        buffer = b"".join(d.to_bytes(width, "big") for d in codes.tolist())
    else:
        width = codes.itemsize
        buffer = codes.astype(codes.dtype.newbyteorder(">")).tobytes()
    keys = [buffer[a:b] for a, b in zip((starts * width).tolist(), (ends * width).tolist())]
    order = np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp)
    del keys, buffer
    left, right = order[:-1], order[1:]
    shared = np.minimum(lengths[left], lengths[right])
    ends = np.cumsum(shared)
    begins = ends - shared  # sorted pair k compares its digits at positions begins[k]..ends[k]-1
    # the digit indices, in 32 bits where they fit
    index = np.int32 if max(codes.size, int(ends[-1:].sum())) < 2**31 else np.intp
    at = np.repeat((starts[left] - begins).astype(index), shared)  # where each pair's left digits lie
    at += np.arange(at.size, dtype=index)
    digits = codes[at]
    at += np.repeat((starts[right] - starts[left]).astype(index), shared)
    differs = digits != codes[at]
    del at, digits
    mismatches = np.flatnonzero(np.append(differs, True))  # ends past every pair's digits
    first = mismatches[np.searchsorted(mismatches, begins)]
    return order, np.concatenate(([0], np.minimum(first, ends) - begins))


def _prefix_tree(base: int, tags: Sequence[str | None], codes: np.ndarray, lengths: np.ndarray,
                 strings: tuple[BaireString, ...] | None = None) -> PrefixHierarchy:
    """The one clustering core: the prefix hierarchy of the strings of a
    digit array, string i labelled ``tags[i]``, or s<i+1> when that is
    None.  Only the sort (``_prefix_order``) runs here; the tree is
    ``_tree_columns`` of the result.  ``strings``, when the caller holds
    them, become the hierarchy's field as they are."""
    order, lcp = _prefix_order(codes, lengths)
    hierarchy = object.__new__(PrefixHierarchy)
    vars(hierarchy).update(base=base, labels=tuple(
        f"s{i + 1}" if tag is None else tag for i, tag in enumerate(tags)))
    if strings is not None:
        vars(hierarchy)["strings"] = strings
    return hierarchy._hold(tags, codes, lengths, order, lcp)


def _require_one_base(strings: Sequence[BaireString], base: int | None) -> int:
    """``base``, when ``strings`` are at least one and all in it; else one
    ``DendrocodeError``."""
    if not strings:
        raise DegenerateInputError("need at least one string")
    if any(s.base != base for s in strings):
        raise DomainError("all strings must share one base")
    return base


def baire_cluster(
    strings: Sequence[BaireString],
) -> tuple[PrefixHierarchy, Dendrogram]:
    """One-pass prefix-tree clustering.

    Sorts the strings by digits (``_prefix_order``); two sorted neighbours
    meet at the depth r of their common prefix, so the gap between them
    closes at height base^(-r).  Gaps join deepest first, then left to
    right, which binarizes every multiway split left-to-right in digit
    order with all its merges at one height and keeps cophenetic distance =
    Baire distance for every pair.  The verbs run the same core on the
    digit array they read, without ``BaireString`` or ``MergeNode``
    objects.
    """
    base = _require_one_base(strings, strings[0].base if strings else None)
    codes, lengths = _digit_array([s.digits for s in strings], base)
    hierarchy = _prefix_tree(base, [s.label for s in strings], codes, lengths, tuple(strings))
    return hierarchy, hierarchy._tree_columns()

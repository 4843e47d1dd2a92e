from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dendrocode import baire, formats
from dendrocode.baire import (
    BaireString,
    baire_cluster,
    baire_distance,
    digitize_reals,
    encode_dna,
    lcp_radius,
    parse_digits,
)
from dendrocode.errors import DegenerateInputError, DendrocodeError, DomainError, ParseError
from dendrocode.hierarchy import Dendrogram
from dendrocode.formats import read_strings
from dendrocode.ultrametric import cophenetic_matrix, verify_ultrametric

from oracles import (cluster_by_tuple_sort, decimal_radix_digits, digitize_floats_by_fractions,
                     dump_by_prefix_slices, read_strings_by_lines, trie_cluster)

DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def bs(text: str, base: int = 10, label: str | None = None) -> BaireString:
    return parse_digits(text, base, label)


class TestParseDigits:
    @pytest.mark.parametrize("base", [0, 1, -1])
    def test_base_checked_before_the_digits(self, base):
        # it used to read as "invalid base-0 digit '1' at position 1"
        with pytest.raises(DomainError, match=r"^base must be at least 2$"):
            parse_digits("1", base)


class TestLcpRadius:
    def test_two_shared_digits(self):
        assert lcp_radius(bs("248"), bs("241")) == 2

    def test_identical_strings(self):
        assert lcp_radius(bs("12345"), bs("12345")) == 5

    def test_no_shared_prefix(self):
        assert lcp_radius(bs("90"), bs("10")) == 0

    def test_prefix_of_the_other(self):
        assert lcp_radius(bs("241"), bs("24159")) == 3

    def test_base_mismatch_rejected(self):
        with pytest.raises(DomainError):
            lcp_radius(bs("12"), bs("01", base=2))


class TestBaireDistance:
    def test_two_shared_digits(self):
        assert baire_distance(bs("248"), bs("241")) == Fraction(1, 100)

    def test_self_distance_zero(self):
        s = bs("248", label="s")
        assert baire_distance(s, s) == 0

    def test_equal_digits_same_label_zero(self):
        assert baire_distance(bs("77", label="a"), bs("77", label="a")) == 0

    def test_equal_digits_distinct_labels_positive(self):
        d = baire_distance(bs("77", label="a"), bs("77", label="b"))
        assert d == Fraction(1, 100)

    def test_bounded_by_one(self):
        assert baire_distance(bs("90"), bs("10")) == 1

    def test_strong_triangle_exact_on_random_triples(self):
        rng = random.Random(99)
        for _ in range(2000):
            base = rng.choice([2, 3, 10])
            strings = [
                BaireString(
                    base,
                    tuple(rng.randrange(base) for _ in range(rng.randrange(1, 7))),
                    label=f"s{k}",
                )
                for k in range(3)
            ]
            for i, j, k in itertools.permutations(range(3)):
                assert baire_distance(strings[i], strings[k]) <= max(
                    baire_distance(strings[i], strings[j]),
                    baire_distance(strings[j], strings[k]),
                )

    @given(st.data())
    def test_strong_triangle_hypothesis(self, data):
        base = data.draw(st.sampled_from([2, 5, 10]))
        digit = st.integers(0, base - 1)
        make = st.lists(digit, min_size=1, max_size=6).map(tuple)
        x = BaireString(base, data.draw(make), "x")
        y = BaireString(base, data.draw(make), "y")
        z = BaireString(base, data.draw(make), "z")
        assert baire_distance(x, z) <= max(baire_distance(x, y), baire_distance(y, z))

    def test_distance_decreases_with_precision(self):
        # successive digitizations of one real agree ever longer
        previous = None
        for k in range(1, 10):
            a = digitize_reals(["0.7219452861"], k)[0]
            b = digitize_reals(["0.7219452861"], k + 1)[0]
            d = baire_distance(a, b)
            assert d == Fraction(1, 10**k)
            if previous is not None:
                assert d < previous
            previous = d


class TestDigitizeReals:
    def test_decimal_string(self):
        assert digitize_reals(["0.241"], 3)[0].digits == (2, 4, 1)

    def test_zero(self):
        assert digitize_reals([0], 4)[0].digits == (0, 0, 0, 0)

    def test_one_third_base_three(self):
        s = digitize_reals([Fraction(1, 3)], 5, base=3)[0]
        assert s.digits == (1, 0, 0, 0, 0)

    def test_truncates_never_rounds(self):
        assert digitize_reals(["0.199999"], 2)[0].digits == (1, 9)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="normalize"):
            digitize_reals([1.5], 3)
        with pytest.raises(DomainError, match="normalize"):
            digitize_reals([-0.1], 3)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), "nan", Decimal("NaN"), float("inf"), "inf", "-Infinity"],
        ids=["float-nan", "text-nan", "decimal-nan", "float-inf", "text-inf", "text-minus-infinity"],
    )
    def test_non_finite_rejected(self, value):
        # checked before the exact conversion, which fails on these
        message = rf"^value #2 \({re.escape(repr(value))}\) outside \[0, 1\); normalize inputs first$"
        with pytest.raises(DomainError, match=message):
            digitize_reals(["0.5", value], 3)

    def test_tiny_exponents_return_at_once(self):
        """A value such as 1e-999999999999 used to hang building
        10**999999999999 for the exact conversion; each call here must
        finish well inside the time bound."""
        code = (
            "from dendrocode.baire import digitize_reals\n"
            "for base in (2, 10, 36):\n"
            "    for precision in (3, 50):\n"
            "        for value in ('1e-999999999999', '0E-999999999999', '7.5e-100000000000'):\n"
            "            s = digitize_reals([value], precision, base)[0]\n"
            "            assert s.digits == (0,) * precision, (base, precision, value)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=30,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("base", [2, 10, 36])
    @pytest.mark.parametrize("precision", [3, 50])
    def test_small_values_equal_the_exact_path(self, base, precision):
        """Around the cut below which digits are all 0 without conversion,
        every decimal value digitizes as its exact fraction does."""
        exponents = range(-1, -(3 * precision * 6 // 5 + 12), -1)  # past log10(36) * precision
        for exponent in exponents:
            for mantissa in ("1", "9.99", "5"):
                value = f"{mantissa}e{exponent}"
                exact = digitize_reals([Fraction(Decimal(value))], precision, base)[0]
                assert digitize_reals([value], precision, base)[0] == exact, value
                assert digitize_reals([Decimal(value)], precision, base)[0] == exact, value

    @pytest.mark.parametrize(
        "literal,k,base",
        [("0.241", 3, 10), ("0.5", 8, 2), ("0.12345678", 6, 10), ("0.9", 4, 7)],
    )
    def test_matches_decimal_oracle(self, literal, k, base):
        got = digitize_reals([literal], k, base)[0].digits
        assert got == decimal_radix_digits(literal, k, base)

    def test_successive_precisions_share_prefix(self):
        rng = random.Random(5)
        for _ in range(50):
            value = f"0.{rng.randrange(10**8):08d}"
            short = digitize_reals([value], 4)[0]
            long = digitize_reals([value], 9)[0]
            assert long.digits[:4] == short.digits


_FLOAT_EDGES = [0.0, -0.0, 5e-324, 2.0**-1022, 2.0**-1022 - 5e-324, 1 - 2**-53, 0.1, 0.5]
_FLOATS = st.one_of(
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(_FLOAT_EDGES),
    st.floats(0, 1, exclude_max=True).map(np.float64),
)
_OUTSIDE = [float("nan"), float("inf"), float("-inf"), 1.0, -0.5, np.float64("nan"), np.float64(1.0)]


def _digitized(digitize, values, precision, base):
    try:
        return digitize(values, precision, base)
    except DendrocodeError as exc:
        return f"{exc.code}: {exc}"


class TestDigitizeFloats:
    """Floats are expanded from ``as_integer_ratio`` and their digits taken
    as one array; the referee expands each through ``Fraction``."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_FLOATS, min_size=1, max_size=20), precision=st.integers(1, 20),
           base=st.sampled_from([2, 10, 36]))
    def test_equals_the_fraction_path(self, values, precision, base):
        got = digitize_reals(values, precision, base)
        assert got == digitize_floats_by_fractions(values, precision, base)
        assert all(type(d) is int for s in got for d in s.digits)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(_FLOATS, st.sampled_from(_OUTSIDE)), min_size=1, max_size=8),
           precision=st.integers(1, 20), base=st.sampled_from([2, 10, 36]))
    def test_refusals_equal_the_fraction_path(self, values, precision, base):
        expected = _digitized(digitize_floats_by_fractions, values, precision, base)
        assert _digitized(digitize_reals, values, precision, base) == expected

    @pytest.mark.parametrize("value", _OUTSIDE, ids=repr)
    def test_each_refusal_is_one_line(self, value):
        message = f"E_DOMAIN: value #2 ({value!r}) outside [0, 1); normalize inputs first"
        assert _digitized(digitize_reals, [0.25, value, float("nan")], 3, 10) == message


class TestEncodeDna:
    def test_four_adic_alphabet(self):
        assert encode_dna("ACGT", "4-adic").digits == (0, 1, 2, 3)

    def test_two_adic_pairs(self):
        s = encode_dna("AA", "2-adic-pairs")
        assert s.base == 2
        assert s.text() == "0000"

    def test_invalid_character_position(self):
        with pytest.raises(ParseError, match="position 2"):
            encode_dna("AXG", "4-adic")

    def test_five_adic_prime_base(self):
        s = encode_dna("ACGTU", "5-adic")
        assert s.base == 5
        assert s.digits == (1, 2, 3, 4, 4)

    def test_uracil_encodes_like_thymine(self):
        assert encode_dna("GAU", "4-adic").digits == encode_dna("GAT", "4-adic").digits

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            encode_dna("", "5-adic")


class TestBaireCluster:
    def test_three_string_example(self):
        strings = [bs("241", label="a"), bs("248", label="b"), bs("311", label="c")]
        hierarchy, tree = baire_cluster(strings)
        coph = cophenetic_matrix(tree).values
        order = {label: i for i, label in enumerate(tree.labels)}
        # a and b share two digits; c splits off at the first digit
        assert coph[order["a"], order["b"]] == float(Fraction(1, 100))
        assert coph[order["a"], order["c"]] == 1.0
        assert coph[order["b"], order["c"]] == 1.0

    def test_single_string(self):
        hierarchy, tree = baire_cluster([bs("42", label="only")])
        assert tree.n == 1
        assert hierarchy.member_count() == 1

    def test_cophenetic_equals_pairwise_distance(self):
        rng = random.Random(31)
        strings = [
            BaireString(
                4,
                tuple(rng.randrange(4) for _ in range(rng.randrange(1, 9))),
                label=f"s{k}",
            )
            for k in range(60)
        ]
        _, tree = baire_cluster(strings)
        coph = cophenetic_matrix(tree).values
        order = {label: i for i, label in enumerate(tree.labels)}
        for i, j in itertools.combinations(range(60), 2):
            a, b = strings[i], strings[j]
            expected = float(baire_distance(a, b))
            assert coph[order[a.label], order[b.label]] == expected

    def test_tree_is_exactly_ultrametric(self):
        rng = random.Random(8)
        strings = [
            BaireString(3, tuple(rng.randrange(3) for _ in range(5)), label=f"s{k}")
            for k in range(40)
        ]
        _, tree = baire_cluster(strings)
        assert verify_ultrametric(cophenetic_matrix(tree), 0.0) == []

    def test_prefix_string_merges_at_its_full_length(self):
        strings = [bs("24", label="short"), bs("2413", label="long")]
        _, tree = baire_cluster(strings)
        assert tree.root.height == float(Fraction(1, 100))

    def test_base_mismatch_rejected(self):
        with pytest.raises(DomainError):
            baire_cluster([bs("12"), bs("01", base=2)])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            baire_cluster([])

    def test_trie_nodes_linear_in_total_digits(self):
        rng = random.Random(12)

        def batch(count):
            return [
                BaireString(5, tuple(rng.randrange(5) for _ in range(8)), label=f"n{k}")
                for k in range(count)
            ]

        first = batch(50)
        second = batch(50)
        h_first, _ = baire_cluster(first)
        h_second, _ = baire_cluster(second)
        h_both, _ = baire_cluster(first + second)
        total_digits = sum(len(s.digits) for s in first + second)
        assert h_both.node_count <= 1 + total_digits
        # merging two batches shares at most the root: no superlinear blowup
        assert h_both.node_count <= h_first.node_count + h_second.node_count

    def test_trie_dump_mentions_members(self):
        hierarchy, _ = baire_cluster([bs("12", label="a"), bs("13", label="b")])
        dump = hierarchy.dump_text()
        assert "(root)" in dump and "a" in dump and "b" in dump

    def test_trie_dump_past_base_36_writes_numbers(self):
        hierarchy, _ = baire_cluster([BaireString(40, (37, 2)), BaireString(40, (1,))])
        assert hierarchy.dump_text() == (
            "(root) [2]\n  1 [1]  <- s2\n  37 [1]\n    37,2 [1]  <- s1\n"
        )

    @pytest.mark.parametrize("base", [2, 10, 36, 40])
    def test_dump_equals_prefixes_formatted_from_scratch(self, base):
        rng = random.Random(base)
        for _ in range(40):
            # a few stems and their cuts, so prefixes are shared and repeated;
            # base 40 draws digits 36..39 as well
            stems = [tuple(rng.randrange(base) for _ in range(rng.randint(1, 9)))
                     for _ in range(rng.randint(1, 5))]
            strings = []
            for k in range(rng.randint(1, 30)):
                stem = rng.choice(stems)
                label = rng.choice([None, "", f"x{k}"])
                strings.append(BaireString(base, stem[: rng.randint(1, len(stem))], label))
            hierarchy, _ = baire_cluster(strings)
            assert hierarchy.dump_text() == dump_by_prefix_slices(hierarchy)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_trie_referee(self, data):
        base = data.draw(st.integers(2, 36))
        stems = data.draw(st.lists(
            st.lists(st.integers(0, base - 1), min_size=1, max_size=8).map(tuple),
            min_size=1, max_size=4,
        ))
        # strings cut from a few stems: duplicates and prefixes of one another
        cut = st.sampled_from(stems).flatmap(
            lambda d: st.integers(1, len(d)).map(lambda r: d[:r])
        )
        label = st.one_of(st.none(), st.sampled_from(["a", "b", ""]))
        drawn = data.draw(st.lists(st.tuples(cut, label), min_size=1, max_size=12))
        strings = [BaireString(base, digits, name) for digits, name in drawn]
        hierarchy, tree = baire_cluster(strings)
        ref_tree, dump, node_count, depth = trie_cluster(strings)
        assert "".join(formats._tree_json_chunks(tree)) == "".join(formats._tree_json_chunks(ref_tree))
        assert hierarchy.dump_text() == dump
        assert (hierarchy.node_count, hierarchy.depth) == (node_count, depth)
        assert hierarchy.member_count() == len(strings)
        # the level table, pair by pair: -1 where the distance is 0
        levels = hierarchy.levels()
        assert levels.dtype == np.result_type(np.int8, np.min_scalar_type(depth))
        assert levels.tolist() == [[-1 if baire_distance(s, t) == 0 else lcp_radius(s, t) for t in strings]
                                   for s in strings]


def _clustered(read, cluster, text, base):
    """What reading and clustering ``text`` gives: the strings, then the
    hierarchy's order, lcp, tree JSON, trie dump and level table; or the
    one error line."""
    try:
        strings = read(text, base)
        hierarchy, tree = cluster(strings)
    except DendrocodeError as exc:
        return f"{exc.code}: {exc}"
    return (strings, hierarchy.order, hierarchy.lcp, "".join(formats._tree_json_chunks(tree)),
            hierarchy.dump_text(), hierarchy.levels().tolist())


@st.composite
def string_files(draw):
    """A strings file and its base: ragged strings cut from a few stems, so
    that digits repeat under one label and under two, with some lines
    unlabelled; then at most one change to the plain text: CRLF, blank
    lines, surrounding spaces or control characters (a vertical tab or a
    file separator ends a line too), lowercase digits, or a one-character
    mutation: an invalid digit, an empty body or a non-ASCII character."""
    base = draw(st.sampled_from([2, 10, 36, 40]))
    alphabet = DIGIT_CHARS[:base]
    stems = draw(st.lists(st.text(alphabet, min_size=1, max_size=9), min_size=1, max_size=4))
    cut = st.sampled_from(stems).flatmap(lambda d: st.integers(1, len(d)).map(lambda r: d[:r]))
    names = ["", "a", "b", "x1"] + ([None] if draw(st.booleans()) else [])
    lines = draw(st.lists(st.tuples(st.sampled_from(names), cut), min_size=1, max_size=12))
    rows = [digits if name is None else f"{name},{digits}" for name, digits in lines]
    change = draw(st.sampled_from(
        [None, None, None, "crlf", "blank", "space", "control", "lower", "no-final-newline",
         "invalid-digit", "empty-body", "non-ascii"]))
    k = draw(st.integers(0, len(rows) - 1))
    row = rows[k]
    body = row.index(",") + 1 if "," in row else 0
    at = draw(st.integers(body, len(row) - 1))
    if change == "invalid-digit":
        bad = draw(st.sampled_from(["!", "_", ".", "-", " "] + ([DIGIT_CHARS[base]] if base < 36 else [])))
        rows[k] = row[:at] + bad + row[at + 1:]
    elif change == "empty-body":
        rows[k] = row[:body]
    elif change == "non-ascii":
        rows[k] = row[:at] + draw(st.sampled_from(["\u00e9", "\u00a0", "\u2028", "\x85"])) + row[at:]
    elif change in ("space", "control"):
        pad = st.sampled_from(["", " ", "  "] if change == "space" else ["\t", "\r", "\x0b", "\x1c"])
        rows[k] = f"{draw(pad)}{row.replace(',', draw(pad) + ',' + draw(pad))}{draw(pad)}"
    elif change == "lower":
        rows = [r.lower() for r in rows]
    elif change == "blank":
        rows.insert(k, draw(st.sampled_from(["", "  ", "\t"])))
    text = ("\r\n" if change == "crlf" else "\n").join(rows)
    return (text if change == "no-final-newline" else text + "\n"), base


@st.composite
def digit_strings(draw):
    """Digit strings and their base: ragged cuts of a few stems with short
    random tails, so that strings share stems, repeat and extend one
    another, and at times one string of about a thousand digits among them."""
    base = draw(st.sampled_from([2, 4, 10, 36, 256, 257, 2**64, 10**30]))
    digit = st.sampled_from([0, 1, base // 2, base - 1]) | st.integers(0, base - 1)
    stems = draw(st.lists(st.lists(digit, min_size=1, max_size=12), min_size=1, max_size=4))
    parts = st.tuples(st.sampled_from(stems), st.integers(1, 12), st.lists(digit, max_size=3))
    digits = [tuple(stem[:cut] + tail) for stem, cut, tail in
              draw(st.lists(parts, min_size=1, max_size=20))]
    if draw(st.booleans()):
        stem = draw(st.sampled_from(stems))
        long = tuple(itertools.islice(itertools.cycle(stem), draw(st.integers(900, 1100))))
        digits.insert(draw(st.integers(0, len(digits))), long)
    return digits, base


def assert_sorts_as_tuples(digits, base):
    """``_prefix_order`` of the digit array of ``digits`` against a Python
    sort of the digit tuples and ``lcp_radius`` of sorted neighbours."""
    order, lcp = baire._prefix_order(*baire._digit_array(digits, base))
    expected = sorted(range(len(digits)), key=digits.__getitem__)
    assert order.tolist() == expected
    strings = [BaireString(base, d) for d in digits]
    assert lcp.tolist() == [0] + [lcp_radius(strings[a], strings[b])
                                  for a, b in zip(expected, expected[1:])]


class TestDigitArray:
    """Reading plain text in bulk and sorting the strings by byte keys
    against the line-by-line reader and the tuple sort."""

    @settings(max_examples=500, deadline=None)
    @given(string_files())
    def test_equals_the_line_reader_and_tuple_sort(self, file):
        text, base = file
        expected = _clustered(read_strings_by_lines, cluster_by_tuple_sort, text, base)
        assert _clustered(read_strings, baire_cluster, text, base) == expected

    @pytest.mark.parametrize("base", [2, 10, 36, 40])
    def test_plain_text_is_read_in_bulk(self, base, monkeypatch):
        rng = random.Random(base)
        alphabet = DIGIT_CHARS[:base]
        text = "".join(f"s{k},{''.join(rng.choices(alphabet, k=rng.randint(1, 12)))}\n"
                       for k in range(200))
        expected = read_strings_by_lines(text, base)
        monkeypatch.setattr(formats, "_labelled_lines", None)  # the line-by-line reader
        assert read_strings(text, base) == expected

    @settings(max_examples=300, deadline=None)
    @given(digit_strings())
    def test_order_and_lcp_equal_the_tuple_sort(self, case):
        assert_sorts_as_tuples(*case)

    @pytest.mark.parametrize("n, length", [
        (3, 5000),  # three long strings equal but for the last digit of one
        (20_000, 8),  # the shapes of the benchmark's strings
        (5_000, 60),
    ])
    def test_order_and_lcp_on_the_benchmark_shapes(self, n, length):
        rng = random.Random(length)
        digits = [tuple(rng.choices(range(10), k=length - 1)) for _ in range(n)]
        if n == 3:
            digits = [digits[0]] * 3
        assert_sorts_as_tuples([d + (int(k == 1),) for k, d in enumerate(digits)], 10)

    def test_bases_past_int64(self):
        base = 10**30
        strings = [BaireString(base, digits, f"s{k}") for k, digits in enumerate(
            [(10**29, 5), (10**29,), (3, 10**30 - 1), (10**29, 5), (2**64, 1), (2**63,)])]
        expected = _clustered(lambda s, _: s, cluster_by_tuple_sort, strings, base)
        assert _clustered(lambda s, _: s, baire_cluster, strings, base) == expected


# Labels that the strings file holds as written: the plain ones go through
# the bulk reader, and those with a space or a non-ASCII character through
# the line reader; Newick writes its reserved characters as "_"
CLI_LABELS = ["a", "b", "x(1)", "q:r;", "[t]", "it's", "é", "a b", "Ω-1", ""]


@st.composite
def strings_files(draw):
    """A strings file of ragged strings cut from a few stems, so that digits
    repeat under one label and under several, and its base; at times every
    string is equal, or one string has about a thousand digits.  A line
    with no label is bare digits."""
    base = draw(st.sampled_from([2, 4, 10, 36, 40, 256, 257, 2**70]))
    digit = st.integers(0, min(base, 36) - 1)  # the file holds digits 0-9A-Z
    stems = draw(st.lists(st.lists(digit, min_size=1, max_size=10), min_size=1, max_size=3))
    parts = st.tuples(st.sampled_from(stems), st.integers(1, 10), st.lists(digit, max_size=2))
    rows = [stem[:cut] + tail for stem, cut, tail in draw(st.lists(parts, min_size=1, max_size=14))]
    if draw(st.integers(0, 5)) == 0:
        rows = [rows[0]] * len(rows)
    if draw(st.integers(0, 5)) == 0:
        long = itertools.islice(itertools.cycle(draw(st.sampled_from(stems))), draw(st.integers(990, 1010)))
        rows.insert(draw(st.integers(0, len(rows))), list(long))
    labels = draw(st.lists(st.sampled_from([*CLI_LABELS, None]), min_size=len(rows), max_size=len(rows)))
    lines = ["".join(DIGIT_CHARS[d] for d in row) for row in rows]
    return "".join(f"{d}\n" if label is None else f"{label},{d}\n" for label, d in zip(labels, lines)), base


def _run_baire_verbs(text: str, base: int, full_precision: bool, tmp: Path) -> dict[str, str]:
    """The outputs of ``baire-cluster`` (tree JSON, trie dump, Newick) and of
    ``baire-dist``, exact and in floats, on the strings file ``text``."""
    from dendrocode.cli import main

    source = tmp / "strings.txt"
    source.write_text(text, encoding="utf-8")
    precision = ["--full-precision"] if full_precision else []
    out = {name: tmp / name for name in ("tree.json", "trie.txt", "tree.nwk", "exact.csv", "float.csv")}
    common = [str(source), "--base", str(base)]
    assert main(["baire-cluster", *common, "-o", str(out["tree.json"]), "--trie-out", str(out["trie.txt"]),
                 "--newick", str(out["tree.nwk"]), *precision]) == 0
    assert main(["baire-dist", *common, "--exact", "-o", str(out["exact.csv"])]) == 0
    assert main(["baire-dist", *common, "-o", str(out["float.csv"]), *precision]) == 0
    return {name: path.read_text(encoding="utf-8") for name, path in out.items()}


def _oracle_outputs(text: str, base: int, full_precision: bool) -> dict[str, str]:
    """What the verbs of ``_run_baire_verbs`` write, by the oracles: the
    node-object trie, the whole-string writers and the pairwise table."""
    from oracles import baire_dist_by_pairs, dump_whole, newick_whole, tree_json_whole

    strings = read_strings_by_lines(text, base)
    tree, dump, _, _ = trie_cluster(strings)
    if base > len(DIGIT_CHARS):  # the trie oracle prints digits as characters
        dump = dump_whole(cluster_by_tuple_sort(strings)[0])
    return {"tree.json": tree_json_whole(tree), "trie.txt": dump,
            "tree.nwk": newick_whole(tree, full_precision),
            "exact.csv": baire_dist_by_pairs(strings, True),
            "float.csv": baire_dist_by_pairs(strings, False, full_precision)}


STEMS = (bs("12"), bs("13"), bs("2"))


class TestPrefixHierarchyConstructor:
    """The public constructor takes only the fields that ``baire_cluster``
    makes of the strings; it used to take any, and the tree and the level
    table then broke."""

    def test_takes_the_strings_own_fields(self):
        hierarchy = baire.PrefixHierarchy(10, ("s1", "s2", "s3"), STEMS, (0, 1, 2), (0, 1, 0))
        assert hierarchy == baire_cluster(STEMS)[0]
        tree = hierarchy._tree_columns()
        assert Dendrogram(tree.labels, tree.nodes) == tree
        assert hierarchy.levels().tolist() == [[-1, 1, 0], [1, -1, 0], [0, 0, -1]]

    @pytest.mark.parametrize("fields, error, message", [
        ((10, ("a", "b", "c"), STEMS, (0, 0, 0), (0, 2, 7)), DomainError, "^order and lcp must be"),
        ((10, ("a", "b", "c"), STEMS, (1, 0, 2), (0, 1, 0)), DomainError, "^order and lcp must be"),
        ((10, ("a", "b", "c"), STEMS, (0, 1, 2), (0, 2, 0)), DomainError, "^order and lcp must be"),
        ((10, ("a", "b", "c"), STEMS, (0, 1), (0, 1)), DomainError, "^order and lcp must be"),
        ((10, ("a",), STEMS[:2], (0, 1), (0, 1)), DomainError, "^expected 2 labels, got 1$"),
        ((10, (), (), (), ()), DegenerateInputError, "^need at least one string$"),
        ((10, ("a", "b"), (bs("1"), bs("1", 3)), (0, 1), (0, 1)), DomainError,
         "^all strings must share one base$"),
        ((3, ("a",), (bs("1"),), (0,), (0,)), DomainError, "^all strings must share one base$"),
    ], ids=["repeated-order", "unsorted-order", "wrong-lcp", "short-order", "one-label-for-two",
            "no-string", "two-bases", "other-base"])
    def test_refuses_fields_the_strings_do_not_give(self, fields, error, message):
        with pytest.raises(error, match=message):
            baire.PrefixHierarchy(*fields)

    def test_keeps_its_fields_as_tuples(self):
        hierarchy = baire.PrefixHierarchy(10, ["s1", "s2", "s3"], list(STEMS), [0, 1, 2], [0, 1, 0])
        assert hierarchy == baire_cluster(STEMS)[0]
        assert hash(hierarchy) == hash(baire_cluster(STEMS)[0])
        assert {type(field) for field in (hierarchy.labels, hierarchy.strings, hierarchy.order,
                                          hierarchy.lcp)} == {tuple}



    """The verbs cluster one digit array and write the tree from its
    columns; the oracles refer them, and the library's objects stay as the
    public constructors make them."""

    @settings(max_examples=150, deadline=None)
    @given(strings_files(), st.booleans())
    def test_verbs_equal_the_oracles(self, tmp_path_factory, file, full_precision):
        text, base = file
        got = _run_baire_verbs(text, base, full_precision, tmp_path_factory.mktemp("verbs"))
        assert got == _oracle_outputs(text, base, full_precision)

    @pytest.mark.parametrize("text", [
        "only,7\n",  # n = 1
        "a,55\nb,55\nc,55\n",  # all equal
        "a,123\nb,123\na,123\nc,12\na,124\nb,123\n",  # equal digits under labels a, b, a
        "a,123\né,123\na b,1\nx(1),123\n",  # the line reader, equal digits under a label
    ])
    @pytest.mark.parametrize("base", [10, 40, 2**70])
    def test_fixed_files(self, text, base, tmp_path):
        for full_precision in (False, True):
            got = _run_baire_verbs(text, base, full_precision, tmp_path)
            assert got == _oracle_outputs(text, base, full_precision)

    @settings(max_examples=150, deadline=None)
    @given(strings_files())
    def test_hierarchy_equals_hashes_and_reprs_as_the_constructor_makes_it(self, file):
        text, base = file
        strings = read_strings_by_lines(text, base)
        expected = cluster_by_tuple_sort(strings)[0]  # through the public constructor
        hierarchy = baire_cluster(strings)[0]
        arrays = baire._prefix_tree(base, *formats._read_digits(text, base))
        for got in (hierarchy, arrays):
            assert got == expected and hash(got) == hash(expected) and repr(got) == repr(expected)
            assert type(got.order) is tuple and type(got.lcp) is tuple
            assert {int} >= set(map(type, got.order + got.lcp))
        assert all(a is b for a, b in zip(hierarchy.strings, strings, strict=True))

    @pytest.mark.parametrize("text", ["a,0123\nb,01\nc,3\nd,01\n", "é,0123\nb,01\n3\n"])
    def test_verbs_make_no_string_or_node_object(self, text, tmp_path, monkeypatch):
        """Plain text, and text for the line reader."""
        from dendrocode.hierarchy import MergeNode

        expected = _oracle_outputs(text, 4, False)

        def refuse(*args, **kwargs):
            raise AssertionError("the verbs made a BaireString or a MergeNode")

        monkeypatch.setattr(BaireString, "__post_init__", refuse)
        monkeypatch.setattr(MergeNode, "__init__", refuse)
        for module in (baire, formats):
            monkeypatch.setattr(module, "_baire_strings", refuse)
        assert _run_baire_verbs(text, 4, False, tmp_path) == expected

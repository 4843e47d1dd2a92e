"""Independent oracles: slow, from-first-principles implementations used to
pin expected values.  These deliberately avoid the package's own code paths
(a node-object trie in place of sorted strings, no vectorized triple
checks).  Agglomeration has two: criteria from members
(``naive_linkage_heights``) and the Lance-Williams recurrence written out in
plain Python (``lance_williams_linkage``).  For ward and median the two
differ in the last bits, and the package follows the recurrence, so exact
ward and median heights come from the second."""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext


def naive_linkage_heights(data, linkage):
    """O(n^3) repeated-minimum agglomeration computing every cluster-pair
    criterion directly from member lists (no recurrences).

    single/complete: min/max pairwise Euclidean distance between members.
    ward: sqrt of 2*|A||B|/(|A|+|B|) * ||centroid_A - centroid_B||^2.
    median: sqrt of squared distance between midpoint representatives.
    Ties: merge the pair whose sorted (min member, other min member) is
    lexicographically least.  Returns (heights, merged_member_sets).
    """
    n = len(data)
    dim = len(data[0])

    def dist2(u, v):
        return sum((a - b) ** 2 for a, b in zip(u, v))

    def centroid(members):
        return [sum(data[i][c] for i in members) / len(members) for c in range(dim)]

    clusters = [frozenset((i,)) for i in range(n)]
    midpoints = {frozenset((i,)): list(data[i]) for i in range(n)}
    heights = []
    merged_sets = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(clusters, 2):
            if linkage == "single":
                crit = min(math.dist(data[i], data[j]) for i in a for j in b)
            elif linkage == "complete":
                crit = max(math.dist(data[i], data[j]) for i in a for j in b)
            elif linkage == "ward":
                crit = (
                    2.0 * len(a) * len(b) / (len(a) + len(b))
                    * dist2(centroid(a), centroid(b))
                )
            elif linkage == "median":
                crit = dist2(midpoints[a], midpoints[b])
            else:
                raise ValueError(linkage)
            key = (crit, min(min(a), min(b)), max(min(a), min(b)))
            if best is None or key < best[0]:
                best = (key, a, b)
        (crit, _, _), a, b = best
        union = a | b
        if linkage == "median":
            midpoints[union] = [
                (x + y) / 2.0 for x, y in zip(midpoints[a], midpoints[b])
            ]
        heights.append(math.sqrt(crit) if linkage in ("ward", "median") else crit)
        merged_sets.append(union)
        clusters = [c for c in clusters if c not in (a, b)] + [union]
    return heights, merged_sets


def lance_williams_linkage(data, linkage):
    """O(n^3) plain-Python agglomeration by row-major search of the live
    upper triangle of the criterion table, updated with the Lance-Williams
    formulas.  Ward and median work on squared distances and report the
    square root.  Slots keep their least member index, and the first least
    (criterion, slot_i, slot_j) wins -- the documented tie rule.  Returns
    (heights, merged_member_sets) like ``naive_linkage_heights``.
    """
    n = len(data)
    squared = linkage in ("ward", "median")
    work = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(data[i], data[j])))
            work[i][j] = d * d if squared else d
    members = {i: frozenset((i,)) for i in range(n)}
    heights = []
    merged_sets = []
    while len(members) > 1:
        live = sorted(members)
        best = None
        for x, i in enumerate(live):
            for j in live[x + 1:]:
                if best is None or work[i][j] < best[0]:
                    best = (work[i][j], i, j)
        crit, i, j = best
        ni, nj = len(members[i]), len(members[j])
        for k in live:
            if k in (i, j):
                continue
            di, dj, nk = work[i][k], work[j][k], len(members[k])
            if linkage == "single":
                new = min(di, dj)
            elif linkage == "complete":
                new = max(di, dj)
            elif linkage == "ward":
                new = ((ni + nk) * di + (nj + nk) * dj - nk * crit) / (ni + nj + nk)
            elif linkage == "median":
                new = di / 2.0 + dj / 2.0 - crit / 4.0
            else:
                raise ValueError(linkage)
            work[i][k] = work[k][i] = new
        members[i] = members[i] | members.pop(j)
        heights.append(math.sqrt(crit) if squared else crit)
        merged_sets.append(members[i])
    return heights, merged_sets


def brute_ultrametric_ok(matrix, tol=0.0):
    """Triple loop over all combinations; every rotation checked."""
    n = len(matrix)
    for x, y, z in itertools.combinations(range(n), 3):
        for i, j, k in ((x, y, z), (y, x, z), (x, z, y)):
            if matrix[i][k] > max(matrix[i][j], matrix[j][k]) + tol:
                return False
    return True


def brute_violating_combinations(matrix, tol=0.0):
    """Combinations {x,y,z} where some rotation breaks the strong triangle."""
    n = len(matrix)
    bad = []
    for x, y, z in itertools.combinations(range(n), 3):
        for i, j, k in ((x, y, z), (y, x, z), (x, z, y)):
            if matrix[i][k] > max(matrix[i][j], matrix[j][k]) + tol:
                bad.append((x, y, z))
                break
    return bad


def brute_violations(matrix, tol=0.0):
    """Every (i, j, k, lhs, rhs) with i < k, j any other index and
    lhs = d(i,k) > rhs + tol for rhs = max(d(i,j), d(j,k)), sorted."""
    n = len(matrix)
    found = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j in (i, k):
                    continue
                rhs = max(matrix[i][j], matrix[j][k])
                if matrix[i][k] > rhs + tol:
                    found.append((i, j, k, matrix[i][k], rhs))
    return sorted(found)


def canonical_check_by_loop(matrix):
    """``check_canonical_form`` on a square array as a literal double loop
    over Python floats: condition 1 row by row, then condition 2 row by row
    with each row's run end found by walking it.  The package's check
    before it became array code."""
    rows = matrix.tolist()
    n = len(rows)
    for k in range(n):
        row = rows[k]
        for j in range(k + 1, n - 1):
            if row[j] > row[j + 1]:
                return f"row {k} decreases between columns {j} and {j + 1}"
    for k in range(n - 1):
        row, below = rows[k], rows[k + 1]
        run_end = k + 1
        while run_end + 1 < n and row[run_end + 1] == row[k + 1]:
            run_end += 1
        for j in range(k + 2, run_end + 1):
            if below[j] > row[j]:
                return f"run condition fails at row {k}, column {j} (expected <=)"
        for j in range(run_end + 1, n):
            if below[j] != row[j]:
                return f"run condition fails at row {k}, column {j} (expected equality)"
    return None


def code_sorted_order(tree):
    """Terminal order of ``tree`` redrawn with the child of smaller subtree
    code on the left, codes being nested tuples (height, left code, right
    code) and () for a terminal, compared by Python's recursive tuple order;
    for small trees only."""

    def code_and_order(child):
        kind, idx = child
        if kind == "t":
            return (), [idx]
        node = tree.node(idx)
        a, b = code_and_order(node.left), code_and_order(node.right)
        if b[0] < a[0]:
            a, b = b, a
        return (node.height, a[0], b[0]), a[1] + b[1]

    return code_and_order(("q", tree.n - 1))[1]


def alternating_count(m, start_down=True):
    """Count alternating permutations of 1..m by brute filtering."""
    if m == 0:
        return 1
    count = 0
    for perm in itertools.permutations(range(1, m + 1)):
        ok = True
        for i in range(m - 1):
            descending = perm[i] > perm[i + 1]
            if descending != (i % 2 == 0 if start_down else i % 2 == 1):
                ok = False
                break
        if ok:
            count += 1
    return count


def decimal_radix_digits(text_value, k, base):
    """First k fractional base digits of a decimal literal, truncated,
    computed with high-precision Decimal arithmetic."""
    getcontext().prec = 80
    v = Decimal(text_value)
    digits = []
    for _ in range(k):
        v = v * base
        d = int(v)  # truncates toward zero
        digits.append(d)
        v = v - d
    return tuple(digits)


def lca_rank(tree, i, j):
    """Rank of the lowest common ancestor by walking member sets."""
    from dendrocode.hierarchy import member_sets

    sets = member_sets(tree)
    best = None
    for rank in sorted(sets):
        if i in sets[rank] and j in sets[rank]:
            best = rank
            break
    return best


def cophenetic_by_paths(tree):
    """Pairwise LCA heights computed pair by pair (independent of the
    package's single-sweep construction)."""
    n = tree.n
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rank = lca_rank(tree, i, j)
            h = tree.node(rank).height
            out[i][j] = out[j][i] = h
    return out


def decode_by_sets(enc):
    """Tree of an encoding by frozenset lookups: column j must pair two
    available clusters, its +1 rows on the left and its -1 rows on the
    right.  O(n^2) set scans; raises the package's MalformedEncodingError
    with the package's messages."""
    from dendrocode.errors import MalformedEncodingError
    from dendrocode.hierarchy import Dendrogram, MergeNode, internal, terminal

    n = enc.n
    if n == 1:
        return Dendrogram(enc.labels, ())
    available = {frozenset((i,)): terminal(i) for i in range(n)}
    nodes = []
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


def padic_table(enc, similarity=False):
    """n x n table of exact Fractions, one padic_similarity (or
    padic_distance) call per pair of rows."""
    from dendrocode.padic import padic_distance, padic_similarity

    fn = padic_similarity if similarity else padic_distance
    codes = enc.codes()
    return [[fn(a, b) for b in codes] for a in codes]


def decimal_codes_by_nonzero_sums(enc):
    """``evaluate_code`` of every row, summing +-p^j over the row's nonzero
    entries only: O(n * depth) big-integer additions, the package's method
    before the root-first order."""
    import numpy as np

    n, width, p = enc.n, enc.n - 1, enc.p
    cells = np.array(enc.C, dtype=np.int8).reshape(n, max(width, 0))
    rows, cols = np.nonzero(cells)
    weights = [p]
    for _ in range(width - 1):
        weights.append(weights[-1] * p)
    signed = weights + [-w for w in weights]  # entry width + j is -p^(j+1)
    slots = cols + width * (cells[rows, cols] < 0)
    terms = list(map(signed.__getitem__, slots.tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    return tuple(sum(terms[a:b]) for a, b in zip([0] + ends, ends))


def differing_levels_by_rows(enc):
    """n x n int64 matrix of the highest level at which two rows differ (0
    where equal), one row against all others at a time over every level:
    O(n^3) byte comparisons, the package's method before the root-first
    order."""
    import numpy as np

    n = enc.n
    levels = np.zeros((n, n), dtype=np.int64)
    if n < 2:
        return levels
    top_first = np.array(enc.C, dtype=np.int8)[:, ::-1]
    every = np.arange(n)
    for i in range(n):
        differs = top_first != top_first[i]
        first = differs.argmax(axis=1)  # counted from the root level down
        levels[i] = np.where(differs[every, first], n - 1 - first, 0)
    return levels


def csv_table(header, labels, rows):
    """A CSV table with every cell written through ``csv.writer``: the
    ``header`` row unless it is None, then each row of ``rows`` led by its
    label unless ``labels`` is None.  Cells are text (anything else is
    written as ``str`` of it, as ``csv.writer`` does).  Each row is written
    with the line end ``\r\n``, so that a ``\r`` in a cell is quoted, and
    ends in ``\n``."""
    import csv
    import io

    def line(cells):
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(cells)
        return out.getvalue()[:-2] + "\n"

    lines = [] if header is None else [line(header)]
    for i, row in enumerate(rows):
        lines.append(line(([labels[i]] if labels is not None else []) + list(row)))
    return "".join(lines)


def exact_text(value):
    """Decimal text of an int or Fraction (``num/den``), splitting large ints
    in halves by division by a power of ten; ``str`` is taken only below
    10**18, so Python's int-to-str digit limit does not apply."""

    def digits(v):  # v >= 0
        if v < 10**18:
            return str(v)
        k = v.bit_length() * 3 // 20  # about half of v's decimal digits
        high, low = divmod(v, 10**k)
        return digits(high) + digits(low).rjust(k, "0")

    def signed(v):
        return "-" + digits(-v) if v < 0 else digits(v)

    numerator, denominator = value.as_integer_ratio()
    if denominator == 1:
        return signed(numerator)
    return f"{signed(numerator)}/{digits(denominator)}"


def float_text(value, full_precision):
    """A float cell: its shortest round-trip repr, or 7 significant digits."""
    return repr(float(value)) if full_precision else format(float(value), ".7g")


def baire_dist_by_pairs(strings, exact, full_precision=False):
    """The ``baire-dist`` table of ``strings`` with every cell computed by
    ``baire_distance``, one pair at a time: exact fractions, or floats at
    7 significant digits or at full precision.  The verb's method before
    it read one level table off the sorted strings."""
    from dendrocode.baire import baire_distance

    labels = [s.label for s in strings]
    if exact:
        rows = [[exact_text(baire_distance(a, b)) for b in strings] for a in strings]
    else:
        rows = [[float_text(baire_distance(a, b), full_precision) for b in strings] for a in strings]
    return csv_table(["", *labels], labels, rows)


def trial_division_is_prime(p):
    """Primality by trial division up to sqrt(p)."""
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


class _TrieNode:
    def __init__(self):
        self.children = {}  # digit -> _TrieNode
        self.members = []  # string indices ending here
        self.size = 0  # strings passing through or ending here


def trie_cluster(strings):
    """Prefix-tree clustering through a node-object trie, exported level by
    level: items under a trie node of depth r merge at height base^(-r),
    members (by index) first, then the child subtrees in digit order, folded
    left to right, deepest level first.  Returns ``(tree, dump, node_count,
    depth)``, ``dump`` as the indented preorder listing of ``dump_text``.
    Digits print as ``0-9A-Z``, so bases up to 36."""
    from fractions import Fraction

    from dendrocode.hierarchy import Dendrogram, MergeNode, internal, terminal

    chars = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    base = strings[0].base
    labels = tuple(s.label if s.label is not None else f"s{i + 1}" for i, s in enumerate(strings))
    root = _TrieNode()
    count, depth = 1, 0
    for index, s in enumerate(strings):
        node = root
        node.size += 1
        for d in s.digits:
            if d not in node.children:
                node.children[d] = _TrieNode()
                count += 1
            node = node.children[d]
            node.size += 1
        node.members.append(index)
        depth = max(depth, len(s.digits))

    lines = []
    stack = [(root, "")]
    while stack:
        node, prefix = stack.pop()
        tag = "  <- " + ", ".join(labels[i] for i in node.members) if node.members else ""
        lines.append("  " * len(prefix) + f"{prefix or '(root)'} [{node.size}]{tag}")
        for digit in sorted(node.children, reverse=True):
            stack.append((node.children[digit], prefix + chars[digit]))
    dump = "\n".join(lines) + "\n"

    if len(strings) == 1:
        return Dendrogram(labels, ()), dump, count, depth
    levels = [[root]]
    while True:
        children = [node.children[d] for node in levels[-1] for d in sorted(node.children)]
        if not children:
            break
        levels.append(children)
    nodes = []
    below = []  # subtree of each node of the level below
    for level in range(len(levels) - 1, -1, -1):
        height = float(Fraction(1, base**level))
        subtrees = []
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
            else:  # one child and no members: pass that subtree up
                subtrees.append(below[taken])
            taken = end
        below = subtrees
    return Dendrogram(labels, tuple(nodes)), dump, count, depth


def read_strings_by_lines(text, base):
    """``formats.read_strings`` one line at a time: each nonblank line,
    stripped, is ``label,digits`` split at its first comma, or bare digits
    named s<k>; ``parse_digits`` reads the digits and an error is led by its
    line number.  The reader's method before plain text was read in bulk."""
    from dendrocode.baire import parse_digits
    from dendrocode.errors import DendrocodeError, DomainError, ParseError

    if not base >= 2:
        raise DomainError("base must be at least 2")
    strings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        label, comma, body = line.partition(",")
        try:
            if comma:
                strings.append(parse_digits(body.strip(), base, label.strip()))
            else:
                strings.append(parse_digits(line, base, f"s{len(strings) + 1}"))
        except DendrocodeError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    if not strings:
        raise ParseError("no strings in input")
    return strings


def cluster_by_tuple_sort(strings):
    """``baire.baire_cluster`` with the order from a Python sort of the
    digit tuples and each ``lcp`` from ``lcp_radius`` of sorted neighbours,
    one pair at a time in Python; the package sorts by byte keys and
    compares all neighbours in one numpy pass.  Returns
    ``(hierarchy, tree)``."""
    from fractions import Fraction

    from dendrocode.baire import PrefixHierarchy, lcp_radius
    from dendrocode.hierarchy import Dendrogram, MergeNode, internal, join_gaps, terminal

    base = strings[0].base
    labels = tuple(s.label if s.label is not None else f"s{i + 1}" for i, s in enumerate(strings))
    order = sorted(range(len(strings)), key=lambda i: strings[i].digits)
    lcp = [0] + [lcp_radius(strings[a], strings[b]) for a, b in zip(order, order[1:])]
    hierarchy = PrefixHierarchy(base, labels, tuple(strings), tuple(order), tuple(lcp))
    gaps = sorted(range(1, len(order)), key=lcp.__getitem__, reverse=True)
    refs = [terminal(i) for i in order]
    nodes = []
    for rank, (lo, k) in enumerate(join_gaps(len(order), gaps), start=1):
        nodes.append(MergeNode(rank, float(Fraction(1, base ** lcp[k])), refs[lo], refs[k]))
        refs[lo] = internal(rank)
    return hierarchy, Dendrogram(labels, tuple(nodes))


def digitize_floats_by_fractions(values, precision, base):
    """``baire.digitize_reals`` of floats through ``Fraction``: each value
    is checked to lie in [0, 1), scaled exactly by base^precision, floored
    and split into digits one ``divmod`` at a time."""
    from fractions import Fraction

    from dendrocode.baire import BaireString
    from dendrocode.errors import DomainError

    out = []
    for i, value in enumerate(values):
        if not 0 <= value < 1:
            raise DomainError(f"value #{i + 1} ({value!r}) outside [0, 1); normalize inputs first")
        scaled = math.floor(Fraction(value) * base**precision)
        digits = []
        for _ in range(precision):
            scaled, d = divmod(scaled, base)
            digits.append(d)
        out.append(BaireString(base, tuple(reversed(digits)), f"v{i + 1}"))
    return out


def dna_encode_by_lines(text, scheme):
    """The ``dna-encode`` output of ``text``, or its one error line: each
    nonblank line, stripped, is ``label,sequence`` split at its first comma
    or a bare sequence, encoded by ``encode_dna`` and led by its line number
    on an error."""
    from dendrocode.baire import encode_dna
    from dendrocode.errors import DendrocodeError

    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        label, comma, body = line.partition(",")
        try:
            digits = encode_dna(body.strip() if comma else line, scheme).text()
        except DendrocodeError as exc:
            return f"{exc.code}: line {lineno}: {exc}\n"
        lines.append(f"{label.strip()},{digits}" if comma else digits)
    if not lines:
        return "E_PARSE: no sequences in input\n"
    return "\n".join(lines) + "\n"


def dump_by_prefix_slices(hierarchy):
    """``PrefixHierarchy.dump_text`` with every prefix formatted from scratch
    by ``BaireString.text`` of a slice of the digits: the package's method
    before prefixes were built from their parent's text.  Digits past base
    36 print as comma-separated numbers."""
    from dendrocode.baire import BaireString

    order, lcp, n = hierarchy.order, hierarchy.lcp, len(hierarchy.order)
    digits = [hierarchy.strings[i].digits for i in order]
    depths, starts, ends = [0], [0], [n]
    open_lines = [0]
    for k in range(n):
        while depths[open_lines[-1]] > lcp[k]:
            ends[open_lines.pop()] = k
        for d in range(lcp[k] + 1, len(digits[k]) + 1):
            open_lines.append(len(depths))
            depths.append(d)
            starts.append(k)
            ends.append(n)
    lines = [f"(root) [{n}]"]
    for d, k, end in zip(depths[1:], starts[1:], ends[1:]):
        j = k
        while j < end and len(digits[j]) == d:
            j += 1
        tag = "  <- " + ", ".join(hierarchy.labels[i] for i in order[k:j]) if j > k else ""
        prefix = BaireString(hierarchy.base, digits[k][:d]).text()
        lines.append(f"{'  ' * d}{prefix} [{end - k}]{tag}")
    return "\n".join(lines) + "\n"


def unpack_by_spans(perm):
    """Tree of a packed permutation by cluster-span dicts: rank k merges the
    clusters flanking the boundary i with p(i) = k, checking that the left
    flank merged first (bare terminals count as latest).  Raises the
    package's UnrealizablePermutationError with the package's messages."""
    from dendrocode.errors import UnrealizablePermutationError
    from dendrocode.hierarchy import Dendrogram, MergeNode, internal, terminal

    n = perm.n
    if n == 1:
        return Dendrogram(("x1",), ())
    boundary_of_rank = {perm.values[i]: i for i in range(n - 1)}
    ref = {i: terminal(i) for i in range(n)}
    first_rank = {i: n for i in range(n)}  # n: never merged
    span_end = {i: i for i in range(n)}
    start_at = {i: i for i in range(n)}  # position -> cluster id
    end_at = {i: i for i in range(n)}
    nodes = []
    for rank in range(1, n):
        i = boundary_of_rank[rank]
        left_id, right_id = end_at.get(i), start_at.get(i + 1)
        if left_id is None or right_id is None:
            raise UnrealizablePermutationError(
                f"prefix through rank {rank} is inconsistent: boundary {i + 1} is "
                "interior to an existing cluster"
            )
        lf, rf = first_rank[left_id], first_rank[right_id]
        if not (lf == n and rf == n) and not lf < rf:
            raise UnrealizablePermutationError(
                f"prefix through rank {rank} is inconsistent: left cluster first "
                f"merged at {lf if lf < n else 'never'}, right at {rf if rf < n else 'never'}"
            )
        nodes.append(MergeNode(rank, float(rank), ref[left_id], ref[right_id]))
        ref[left_id] = internal(rank)
        first_rank[left_id] = min(lf, rf, rank)
        span_end[left_id] = span_end[right_id]
        end_at[span_end[right_id]] = left_id
        del start_at[i + 1], end_at[i]
    return Dendrogram(tuple(f"x{i + 1}" for i in range(n)), tuple(nodes))


def nlr_by_nested_shapes(n):
    """Every ranked tree shape on n terminals, by merging pairs of a forest
    of nested-tuple shapes (0 for a terminal, (rank, a, b) with the smaller
    shape key left), skipping pairs already tried at each step."""
    from dendrocode.hierarchy import Dendrogram, MergeNode, internal, terminal

    if n == 1:
        return [Dendrogram(("x1",), ())]

    def shape_key(shape):
        return (0,) if shape == 0 else (shape[0],) + shape_key(shape[1]) + shape_key(shape[2])

    def make(rank, a, b):
        if shape_key(a) > shape_key(b):
            a, b = b, a
        return (rank, a, b)

    found = []

    def rec(forest, next_rank):
        if len(forest) == 1:
            found.append(forest[0])
            return
        seen = set()
        for i in range(len(forest)):
            for j in range(i + 1, len(forest)):
                pair = tuple(sorted((shape_key(forest[i]), shape_key(forest[j]))))
                if pair in seen:
                    continue
                seen.add(pair)
                rest = [forest[k] for k in range(len(forest)) if k not in (i, j)]
                rec(rest + [make(next_rank, forest[i], forest[j])], next_rank + 1)

    rec([0] * n, 1)

    trees = []
    for shape in found:
        nodes = {}
        counter = [0]

        def build(sub):
            if sub == 0:
                counter[0] += 1
                return terminal(counter[0] - 1)
            rank, a, b = sub
            left, right = build(a), build(b)
            nodes[rank] = MergeNode(rank, float(rank), left, right)
            return internal(rank)

        build(shape)
        labels = tuple(f"x{i + 1}" for i in range(n))
        trees.append(Dendrogram(labels, tuple(nodes[r] for r in range(1, n))))
    return trees


def semilattice_by_pairs(table):
    """The semilattice of a BooleanTable by frozensets: union every two
    members of the family until no new subset appears, then test each
    ordered pair of vertices against every vertex for a cover."""
    from dendrocode.lattice import (
        Semilattice,
        SemilatticeVertex,
        set_dissimilarity,
    )

    realized = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(table.objects), 2):
        subset = set_dissimilarity(table.cells[i], table.cells[j])
        realized.setdefault(subset, []).append((a, b))
    closed = set(realized)
    grew = True
    while grew:
        grew = False
        for u, v in itertools.combinations(sorted(closed, key=sorted), 2):
            w = u | v
            if w not in closed:
                closed.add(w)
                grew = True

    def sort_key(s):
        return (len(s), sorted(s))

    vertices = tuple(
        SemilatticeVertex(s, len(s), tuple(realized.get(s, ())))
        for s in sorted(closed, key=sort_key)
    )
    covers = []
    for low, high in itertools.permutations(closed, 2):
        if low < high and not any(low < mid < high for mid in closed):
            covers.append((low, high))
    covers.sort(key=lambda e: (sort_key(e[0]), sort_key(e[1])))
    return Semilattice(table, vertices, tuple(covers))


def render_by_grid(tree, full_precision=False):
    """``render_tree`` by a character grid: each row a list of characters,
    written cell by cell as the walk finishes each node, with a node's
    vertical line filled in over its whole span only where the grid still
    holds a space.  The package's method before rows were written in walk
    order."""
    from dendrocode.formats import fmt_float
    from dendrocode.hierarchy import TERMINAL, canonicalize, walk

    tree = canonicalize(tree)
    if not tree.nodes:
        return f"{tree.labels[0]}\n"

    label_width = max(len(label) for label in tree.labels)

    def column(rank: int) -> int:
        return label_width + 1 + 3 * rank

    margin = column(len(tree.nodes)) + 4
    lines: list[list[str]] = []

    def put(row: int, col: int, text: str, keep: bool = False) -> None:
        line = lines[row]
        if len(line) < col + len(text):
            line.extend(" " * (col + len(text) - len(line)))
        for offset, ch in enumerate(text):
            if not keep or line[col + offset] == " ":
                line[col + offset] = ch

    # attach (row, col) of the last finished subtree, and the (top attach
    # row, junction row) of every node whose right subtree is being drawn
    attach = (0, 0)
    open_nodes: list[tuple[int, int]] = []
    for (kind, idx), visit in walk(tree):
        if kind == TERMINAL:
            attach = (len(lines), label_width + 1)
            lines.append(list(f"{tree.labels[idx]:<{label_width}} "))
            continue
        col = column(idx)
        if visit == 1:
            top_row, top_col = attach
            put(top_row, top_col, "-" * (col - top_col) + "+")
            open_nodes.append((top_row, len(lines)))
            lines.append([])
        elif visit == 2:
            bottom_row, bottom_col = attach
            put(bottom_row, bottom_col, "-" * (col - bottom_col) + "+")
            top_row, junction_row = open_nodes.pop()
            for row in range(top_row + 1, bottom_row):
                put(row, col, "|" if row != junction_row else "+", keep=True)
            height = tree.nodes[idx - 1].height
            put(junction_row, margin, f"q{idx} h={fmt_float(height, full_precision)}")
            attach = (junction_row, col + 1)
    return "\n".join("".join(line).rstrip() for line in lines) + "\n"


def ordinal_sequence_by_windows(stream, d, tau=1, tie_rule="earlier-low"):
    """``ordinal_sequence`` one window at a time: each window's positions
    sorted by (value, index), or (value, -index) for ``later-low``, and each
    window's pattern text filed under its class as it is met.  The package's
    method before the windows were sorted as one array."""
    from dendrocode.errors import DomainError
    from dendrocode.permutations import TIE_RULES, OrdinalPattern

    def ordinal_pattern(window, tie_rule):
        if tie_rule not in TIE_RULES:
            raise DomainError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
        values = list(window)
        if not values:
            raise DomainError("window must not be empty")
        if tie_rule == "earlier-low":
            order = sorted(range(len(values)), key=lambda i: (values[i], i))
        else:
            order = sorted(range(len(values)), key=lambda i: (values[i], -i))
        return OrdinalPattern(tuple(order))

    if d < 1:
        raise DomainError("order d must be at least 1")
    if tau < 1:
        raise DomainError("delay tau must be at least 1")
    values = list(stream)
    minimum = d * tau + 1
    if len(values) < minimum:
        raise DomainError(
            f"stream of length {len(values)} too short: order {d} at delay {tau} "
            f"needs at least {minimum} values"
        )
    patterns = []
    classes = {}
    for t in range(len(values) - d * tau):
        window = values[t : t + d * tau + 1 : tau]
        pat = ordinal_pattern(window, tie_rule)
        patterns.append(pat)
        classes.setdefault(pat.text(), []).append(t)
    return patterns, classes


def rank_permutation_by_sort(stream, tau=1):
    """``rank_permutation`` by sorting (value, label) pairs in Python:
    labels count delay multiples back from the latest value, listed by
    decreasing value, ties smaller label first.  The package's method
    before the stream was sorted as one array."""
    from dendrocode.errors import DomainError

    if tau < 1:
        raise DomainError("delay tau must be at least 1")
    values = list(stream)
    if not values:
        raise DomainError("stream must not be empty")
    m = len(values)
    labels = list(range((m - 1) // tau + 1))
    picked = [(values[m - 1 - k * tau], k) for k in labels]
    picked.sort(key=lambda vk: (-vk[0], vk[1]))
    return tuple(k for _, k in picked)


def haar_forward_by_dict(tree, data):
    """``haar_forward`` with the smooths in a dict keyed by child reference,
    each detail its own array.  The package's method before the
    coefficients were one array."""
    import numpy as np

    from dendrocode.errors import AlignmentError, DomainError
    from dendrocode.haar import HaarTransform
    from dendrocode.hierarchy import INTERNAL, TERMINAL

    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != tree.n:
        raise AlignmentError(
            f"data has {arr.shape[0]} rows but the tree has {tree.n} terminals"
        )
    if arr.shape[1] < 1:
        raise AlignmentError("data needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise DomainError("data contains missing or infinite values")
    smooths = {
        (TERMINAL, i): arr[i, :].astype(float) for i in range(tree.n)
    }
    details = []
    with np.errstate(over="ignore", invalid="ignore"):
        for node in tree.nodes:
            s_left = smooths[node.left]
            s_right = smooths[node.right]
            smooths[(INTERNAL, node.rank)] = (s_left + s_right) / 2.0
            details.append((s_left - s_right) / 2.0)
    if tree.nodes:
        root_smooth = smooths[(INTERNAL, tree.nodes[-1].rank)]
    else:
        root_smooth = smooths[(TERMINAL, 0)]
    return HaarTransform(tree, root_smooth, tuple(details))


def haar_inverse_by_walk(t):
    """``haar_inverse`` along the Euler walk, with a stack of the smooths of
    the open nodes.  The package's method before the inverse filled one
    table in decreasing rank."""
    import numpy as np

    from dendrocode.errors import DomainError
    from dendrocode.hierarchy import TERMINAL, walk

    tree = t.tree
    out = np.empty((tree.n, t.dim), dtype=float)
    # acc[-1]: the root smooth plus the signed details along the current path
    acc = [t.root_smooth]
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, idx), visit in walk(tree):
            if kind == TERMINAL:
                out[idx, :] = acc[-1]
            elif visit == 0:
                acc.append(acc[-1] + t.detail(idx))
            elif visit == 1:
                acc[-1] = acc[-2] - t.detail(idx)
            else:
                acc.pop()
    if not np.isfinite(out).all():
        raise DomainError("Haar reconstruction overflows the float range")
    return out


def ultrametricity_by_triangle_loop(m, sample, seed, tol):
    """``ultrametricity_coefficient`` as (sampled, hits): the same seeded
    draw of triples, each classified by its own ``classify_triangle`` call.
    The package's method before the triples were classified as one array."""
    import random

    from dendrocode.ultrametric import METRIC_ONLY, classify_triangle

    n = m.size
    total = n * (n - 1) * (n - 2) // 6
    if sample >= total:
        triples = list(itertools.combinations(range(n), 3))
    else:
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < sample:
            picked = rng.sample(range(n), 3)
            picked.sort()
            chosen.add(tuple(picked))
        triples = sorted(chosen)
    d = m.values
    hits = 0
    for i, j, k in triples:
        if classify_triangle(d[i, j], d[i, k], d[j, k], tol) != METRIC_ONLY:
            hits += 1
    return len(triples), hits


def tree_json_by_dumps(tree):
    """``tree_to_json`` as one ``json.dumps(doc, indent=2)`` of the whole
    document.  The package's writer before the header alone went through
    ``json`` and each node was written as one string."""
    import json

    def token(child):
        kind, idx = child
        return f"t{idx + 1}" if kind == "t" else f"q{idx}"

    doc = {
        "n": tree.n,
        "labels": list(tree.labels),
        "nodes": [
            {"rank": node.rank, "height": node.height,
             "left": token(node.left), "right": token(node.right)}
            for node in tree.nodes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

"""Independent oracles: slow, from-first-principles implementations used to
pin expected values.  These deliberately avoid the package's own code paths
(no trie, no vectorized triple checks).  Agglomeration has two: criteria
from members (``naive_linkage_heights``) and the Lance-Williams recurrence
written out in plain Python (``lance_williams_linkage``).  For ward and
median the two differ in the last bits, and the package follows the
recurrence, so exact ward and median heights come from the second."""

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


def csv_table(header, labels, rows):
    """A CSV table with every cell written through ``csv.writer``: the
    ``header`` row unless it is None, then each row of ``rows`` led by its
    label unless ``labels`` is None.  Cells are text (anything else is
    written as ``str`` of it, as ``csv.writer`` does)."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    for i, row in enumerate(rows):
        writer.writerow(([labels[i]] if labels is not None else []) + list(row))
    return out.getvalue()


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

"""Reference computations the benchmark checks dendrocode's outputs against.

Each function reimplements one documented behaviour with a different
algorithm from the program's (vectorised argmin instead of sub-matrix
copies, bitmasks instead of frozensets, explicit stacks instead of
recursion), so a defect in one layer of the program cannot hide in the
reference.  Trees here are plain node lists ``[(rank, height, left, right)]``
with children written as in the tree JSON: ``"t<i>"`` (1-based terminal) or
``"q<rank>"``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np


def parse_child(token: str) -> tuple[bool, int]:
    """(is_terminal, 0-based terminal index or rank)."""
    if token[0] == "t":
        return True, int(token[1:]) - 1
    return False, int(token[1:])


def tree_nodes(doc: dict) -> list[tuple[int, float, str, str]]:
    return sorted((d["rank"], d["height"], d["left"], d["right"]) for d in doc["nodes"])


def members(nodes, n: int) -> list[np.ndarray]:
    """Terminal indices under each rank, bottom-up (index 0 unused)."""
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    def of(token: str) -> np.ndarray:
        term, idx = parse_child(token)
        return np.array([idx]) if term else out[idx]

    for _, _, left, right in nodes:
        out.append(np.concatenate([of(left), of(right)]))
    return out


# ---------------------------------------------------------------- matrices


def distances(x: np.ndarray, block: int = 16) -> np.ndarray:
    """Euclidean distances in row blocks: the same per-pair arithmetic as a
    full n x n x m difference, without its memory."""
    n = x.shape[0]
    d = np.empty((n, n))
    for i in range(0, n, block):
        diff = x[i : i + block, None, :] - x[None, :, :]
        d[i : i + block] = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def greedy_linkage(d: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Global-minimum agglomeration by a row-major argmin over the live
    upper triangle, which picks the lexicographically least (i, j) among
    equal values -- the documented tie rule.  Returns (i, j, criterion)."""
    n = d.shape[0]
    work = d * d if linkage in ("ward", "median") else d.copy()
    pick = work.copy()
    pick[np.tril_indices(n)] = np.inf
    alive = np.ones(n, dtype=bool)
    merges = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(pick)), n)
        crit = float(work[i, j])
        merges.append((i, j, crit))
        others = np.flatnonzero(alive)
        others = others[(others != i) & (others != j)]
        di, dj = work[i, others], work[j, others]
        if linkage == "complete":
            new = np.maximum(di, dj)
        elif linkage == "single":
            new = np.minimum(di, dj)
        elif linkage == "median":
            new = di / 2.0 + dj / 2.0 - work[i, j] / 4.0
        else:
            raise ValueError(f"no reference for linkage {linkage!r}")
        work[i, others] = new
        work[others, i] = new
        alive[j] = False
        pick[j, :] = np.inf
        pick[:, j] = np.inf
        below = others < i
        pick[others[below], i] = new[below]
        pick[i, others[~below]] = new[~below]
    return merges


def _drawing_key(token: str) -> tuple[int, int]:
    # canonical drawing: terminals (by index) left of subtrees, and the
    # earlier-formed subtree left of the later one
    term, idx = parse_child(token)
    return (0, idx) if term else (idx, -1)


def linkage_tree(d: np.ndarray, linkage: str) -> list[tuple[int, float, str, str]]:
    ref = {i: f"t{i + 1}" for i in range(d.shape[0])}
    out = []
    for rank, (i, j, crit) in enumerate(greedy_linkage(d, linkage), start=1):
        height = float(np.sqrt(crit)) if linkage == "median" else crit
        out.append((rank, height, *sorted((ref[i], ref[j]), key=_drawing_key)))
        ref[i] = f"q{rank}"
        del ref[j]
    return out


def lca_matrix(nodes, n: int, values) -> np.ndarray:
    """Entry (i, j) is ``values[r - 1]`` for the rank r of the lowest common
    ancestor of terminals i and j; the diagonal is 0."""
    values = np.asarray(values)
    out = np.zeros((n, n), dtype=values.dtype)
    sets = members(nodes, n)
    for rank, _, left, right in nodes:
        lt, li = parse_child(left)
        rt, ri = parse_child(right)
        a = np.array([li]) if lt else sets[li]
        b = np.array([ri]) if rt else sets[ri]
        out[np.ix_(a, b)] = values[rank - 1]
        out[np.ix_(b, a)] = values[rank - 1]
    return out


def cophenetic(nodes, n: int) -> np.ndarray:
    return lca_matrix(nodes, n, [height for _, height, _, _ in nodes])


def violations(d: np.ndarray, pairs, tol: float) -> list[tuple]:
    """Strong-triangle violations of a matrix that is ultrametric except at
    ``pairs``: only a raised d(i,k) can exceed max(d(i,j), d(j,k))."""
    out = []
    for i, k in pairs:
        rhs = np.maximum(d[i, :], d[:, k])
        for j in np.flatnonzero(d[i, k] > rhs + tol):
            if j not in (i, k):
                out.append((i, int(j), k, float(d[i, k]), float(rhs[j])))
    return sorted(out)


def triangle_coefficient(d: np.ndarray, sample: int, seed: int, tol: float) -> float:
    """Fraction of seeded random index triples whose triangle is equilateral
    or isosceles with a small base, at relative tolerance ``tol``."""
    n = d.shape[0]
    rng = random.Random(seed)
    chosen: set[tuple[int, int, int]] = set()
    while len(chosen) < sample:
        chosen.add(tuple(sorted(rng.sample(range(n), 3))))
    hits = 0
    for i, j, k in chosen:
        x, y, z = sorted((d[i, j], d[i, k], d[j, k]))
        if z == 0.0 or z - x <= tol * z or z - y <= tol * z:
            hits += 1
    return hits / len(chosen)


# ------------------------------------------------------------ tree codes


def code_matrix(nodes, n: int) -> np.ndarray:
    """Signed p-adic coefficient matrix: +1 at column rank-1 for terminals
    under the left child, -1 under the right."""
    c = np.zeros((n, n - 1), dtype=np.int8)
    sets = members(nodes, n)
    for rank, _, left, right in nodes:
        for token, sign in ((left, 1), (right, -1)):
            term, idx = parse_child(token)
            c[[idx] if term else sets[idx], rank - 1] = sign
    return c


def encoding_json(p: int, labels, c: np.ndarray) -> str:
    """Text of ``json.dumps(doc, indent=2) + "\\n"`` for an encoding document,
    built as a byte array so that n=1500 takes milliseconds."""
    pad = "\n    "
    label_text = pad.join(f'"{label}",' for label in labels)[:-1]
    # one fixed-width cell ",\n    " + "-1" / "_0" / "_1" per coefficient,
    # then the "_" fillers are dropped
    cells = np.empty((c.size, 8), dtype=np.uint8)
    cells[:, :6] = np.frombuffer(b",\n    ", dtype=np.uint8)
    cells[:, 6] = np.where(c.ravel() < 0, ord("-"), ord("_"))
    cells[:, 7] = ord("0") + np.abs(c.ravel())
    coeff_text = cells.tobytes()[6:].replace(b"_", b"").decode("ascii")
    return (
        f'{{\n  "p": {p},\n  "n": {len(labels)},\n  "labels": [{pad}{label_text}\n  ],'
        f'\n  "C": [{pad}{coeff_text}\n  ]\n}}\n'
    )


def decimal_codes(p: int, labels, c: np.ndarray) -> str:
    """label,code CSV where code = sum_j c_j p^j, j = 1..n-1, computed as
    the difference of two base-p digit strings."""
    lines = ["label,code"]
    for label, row in zip(labels, c):
        pos = "".join("1" if v == 1 else "0" for v in row[::-1].tolist())
        neg = "".join("1" if v == -1 else "0" for v in row[::-1].tolist())
        lines.append(f"{label},{(int(pos, p) - int(neg, p)) * p}")
    return "\n".join(lines) + "\n"


def padic_distance_csv(p: int, labels, nodes) -> str:
    """Exact distances 1 - p^(-r), r = rank of the lowest common ancestor."""
    ranks = lca_matrix(nodes, len(labels), range(1, len(labels)))
    text = {0: "0"}
    for r in np.unique(ranks).tolist():
        if r:
            text[r] = str(1 - Fraction(1, p**r))
    lines = ["," + ",".join(labels)]
    for label, row in zip(labels, ranks.tolist()):
        lines.append(label + "," + ",".join(text[r] for r in row))
    return "\n".join(lines) + "\n"


def packed(nodes, n: int) -> tuple[int, ...]:
    """Packed permutation: orient each node so the subtree with the earliest
    merge goes left (bare terminals last), then list ranks in order, using
    an explicit stack."""
    key: dict[str, tuple[int, int]] = {f"t{i + 1}": (n, i) for i in range(n)}
    kids = {}
    for rank, _, left, right in nodes:
        a, b = sorted((left, right), key=key.__getitem__)
        kids[rank] = (a, b)
        key[f"q{rank}"] = min(key[a], (rank, -1))
    out: list[int] = []
    stack: list[tuple[str, bool]] = [(f"q{n - 1}", False)]
    while stack:
        token, visited = stack.pop()
        if token[0] == "t":
            continue
        rank = int(token[1:])
        if visited:
            out.append(rank)
            continue
        a, b = kids[rank]
        stack += [(b, False), (token, True), (a, False)]
    return tuple(out) + (n,)


def haar_forward(nodes, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    smooth = {f"t{i + 1}": x[i] for i in range(x.shape[0])}
    details = []
    for rank, _, left, right in nodes:
        smooth[f"q{rank}"] = (smooth[left] + smooth[right]) / 2.0
        details.append((smooth[left] - smooth[right]) / 2.0)
    return smooth[f"q{len(nodes)}"], details


def haar_inverse(nodes, root: np.ndarray, details) -> np.ndarray:
    """Top-down reconstruction in decreasing rank order, parents first."""
    acc = {f"q{len(nodes)}": root}
    n = len(nodes) + 1
    out = np.empty((n, root.shape[0]))
    for rank, _, left, right in reversed(nodes):
        here = acc.pop(f"q{rank}")
        for token, value in ((left, here + details[rank - 1]), (right, here - details[rank - 1])):
            term, idx = parse_child(token)
            if term:
                out[idx] = value
            else:
                acc[token] = value
    return out


def haar_csv(root: np.ndarray, details, fmt=repr) -> str:
    n1 = len(details)
    lines = [",".join([""] + [f"s{n1}"] + [f"d{r}" for r in range(n1, 0, -1)])]
    for c in range(root.shape[0]):
        cells = [f"c{c + 1}", fmt(float(root[c]))]
        cells += [fmt(float(details[r - 1][c])) for r in range(n1, 0, -1)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ strings


def digits_of(value: float, precision: int, base: int = 10) -> str:
    """First ``precision`` base digits of the exact binary value, truncated."""
    f = Fraction(value) * base**precision
    scaled = f.numerator // f.denominator
    return np.base_repr(scaled, base).rjust(precision, "0")


def lcp(a: str, b: str) -> int:
    r = 0
    for x, y in zip(a, b):
        if x != y:
            break
        r += 1
    return r


def baire_distance_csv(labels, strings, base: int) -> str:
    lines = ["," + ",".join(labels)]
    for la, a in zip(labels, strings):
        cells = [
            "0" if (a == b and la == lb) else str(Fraction(1, base ** lcp(a, b)))
            for lb, b in zip(labels, strings)
        ]
        lines.append(la + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def lca_height(parent: dict[str, str], height: dict[str, float], a: str, b: str) -> float:
    ancestors = set()
    token = a
    while token in parent:
        token = parent[token]
        ancestors.add(token)
    token = b
    while token in parent:
        token = parent[token]
        if token in ancestors:
            return height[token]
    raise ValueError("terminals share no ancestor")


def ordinal_output(stream: np.ndarray, order: int) -> str:
    windows = np.lib.stride_tricks.sliding_window_view(stream, order + 1)
    ranks = np.argsort(windows, axis=1, kind="stable")
    texts = ["".join(map(str, row)) for row in ranks.tolist()]
    counts: dict[str, int] = {}
    for t in texts:
        counts[t] = counts.get(t, 0) + 1
    classes = " ".join(f"{t}:{counts[t]}" for t in sorted(counts))
    return " ".join(texts) + "\nclasses " + classes + "\n"


def rank_permutation(stream: np.ndarray) -> str:
    labels = np.arange(len(stream))
    values = stream[::-1]
    order = np.lexsort((labels, -values))
    return "(" + ",".join(map(str, order.tolist())) + ")\n"


def zigzag(k: int) -> int:
    """Euler zigzag number E_k by the Seidel boustrophedon; ranked binary
    tree shapes on n terminals number E_(n-1)."""
    row = [1]
    for _ in range(k):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
    return row[-1]


# ------------------------------------------------------------------ lattice


def semilattice(rows: list[int], width: int):
    """Union-closed set of pairwise dissimilarity masks, the object pairs
    realising each, and the covering pairs, all as attribute bitmasks."""
    full = (1 << width) - 1
    realized: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            realized.setdefault(full & ~(rows[i] & rows[j]), []).append((i, j))
    closed = set(realized)
    todo = list(closed)
    while todo:
        u = todo.pop()
        for v in list(closed):
            w = u | v
            if w not in closed:
                closed.add(w)
                todo.append(w)
    covers = set()
    for high in closed:
        below = [x for x in closed if x != high and x & high == x]
        for low in below:
            if not any(m != low and m & low == low for m in below if m & ~low):
                covers.add((low, high))
    return realized, closed, covers


def maximal_cliques(adjacent: list[int]) -> set[frozenset]:
    """Bron-Kerbosch with pivoting on bitmask adjacency."""
    found = set()

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.add(frozenset(i for i in range(len(adjacent)) if r >> i & 1))
            return
        pivot = max(
            (i for i in range(len(adjacent)) if (p | x) >> i & 1),
            key=lambda i: bin(adjacent[i] & p).count("1"),
        )
        for v in range(len(adjacent)):
            if (p & ~adjacent[pivot]) >> v & 1:
                expand(r | 1 << v, p & adjacent[v], x & adjacent[v])
                p &= ~(1 << v)
                x |= 1 << v

    expand(0, (1 << len(adjacent)) - 1, 0)
    return found

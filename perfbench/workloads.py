"""The three workloads: inputs made from the seed, the ops of one pass, and
the check of each op's output against :mod:`oracles`.

Sizes are fixed; only the seed varies the inputs.  Every op is a CLI verb
except ``digitize``, which no verb exposes.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Result:
    code: int | None
    stdout: str
    stderr: str
    files: dict[str, str]


@dataclass
class Op:
    verb: str                    # groups ops into one latency figure
    name: str                    # unique within a pass
    argv: list[str] | None       # CLI arguments; None for a library call
    outputs: tuple[str, ...]     # files, relative to the work directory
    check: Callable[[Result], str | None]
    expect_exit: int = 0
    call: Callable[[], int] | None = None


def _equal(expected: str, got: str, what: str) -> str | None:
    if got == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(expected, got)) if a != b), min(len(expected), len(got)))
    return f"{what} differs from the reference at character {at}: {got[at:at + 40]!r} vs {expected[at:at + 40]!r}"


def _csv_cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _g7(x: float) -> str:
    return f"{x:.7g}"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, dendrocode: dict):
        self.seed = seed
        self.dir = workdir
        self.dc = dendrocode

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def generate(self) -> None:
        """Write the inputs; the same seed writes the same bytes."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------- matrix


class Matrix(Workload):
    """Every O(n^3) n x n-matrix layer on tied data, plus the
    high-dimensional cloud whose n x n x m temporary sets peak memory."""

    name = "matrix"
    N, M = 600, 8
    CLOUD = (300, 1000)
    SAMPLE = 20000
    PLANTED = 20
    TOL = 1e-9

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        tenths = rng.integers(0, 80, size=(self.N, self.M))
        self.x = tenths / 10.0
        lines = (",".join(f"{v // 10}.{v % 10}" for v in row) for row in tenths.tolist())
        Path(self.path("data.csv")).write_text("\n".join(lines) + "\n")

        self.cloud = rng.random(self.CLOUD)
        lines = (",".join(map(repr, row)) for row in self.cloud.tolist())
        Path(self.path("cloud.csv")).write_text("\n".join(lines) + "\n")

        # The perturbed copy starts from the reference tree's cophenetic
        # matrix as the CLI prints it (7 significant digits).
        self.labels = [f"t{i + 1}" for i in range(self.N)]
        self.complete = oracles.linkage_tree(oracles.distances(self.x), "complete")
        um = oracles.cophenetic(self.complete, self.N)
        self.um_text = [[_g7(v) for v in row] for row in um.tolist()]
        cells = [row[:] for row in self.um_text]
        pairs = set()
        while len(pairs) < self.PLANTED:
            i, k = sorted(rng.choice(self.N, size=2, replace=False).tolist())
            pairs.add((i, k))
        self.pairs = sorted(pairs)
        for i, k in self.pairs:
            cells[i][k] = cells[k][i] = repr(float(cells[i][k]) * 1.01)
        self.perturbed = np.array([[float(c) for c in row] for row in cells])
        Path(self.path("um_perturbed.csv")).write_text(self._matrix_csv(cells))

    def _matrix_csv(self, cells) -> str:
        rows = ["," + ",".join(self.labels)]
        rows += [label + "," + ",".join(row) for label, row in zip(self.labels, cells)]
        return "\n".join(rows) + "\n"

    def ops(self) -> list[Op]:
        p = self.path
        return [
            Op("cluster", "cluster", ["cluster", p("data.csv"), "--linkage", "complete", "-o", p("tree.json")],
               ("tree.json",), self.check_cluster),
            Op("render", "render", ["render", p("tree.json"), "-o", p("render.txt")],
               ("render.txt",), self.check_render),
            Op("cophenetic", "cophenetic", ["cophenetic", p("tree.json"), "-o", p("um.csv")],
               ("um.csv",), self.check_cophenetic),
            Op("verify-um", "verify-um", ["verify-um", p("um.csv"), "-o", p("viol0.csv")],
               ("viol0.csv",), lambda r: _equal("i,j,k,lhs,rhs\n", r.files["viol0.csv"], "violations")),
            Op("verify-um", "verify-um:perturbed",
               ["verify-um", p("um_perturbed.csv"), "-o", p("viol1.csv")],
               ("viol1.csv",), self.check_planted, expect_exit=1),
            Op("canonical", "canonical",
               ["canonical", p("um.csv"), "-o", p("canon.csv"), "--perm-out", p("perm.txt")],
               ("canon.csv", "perm.txt"), self.check_canonical),
            Op("haar", "haar", ["haar", p("data.csv"), "--linkage", "median", "-o", p("wt.csv")],
               ("wt.csv", "wt.csv.tree.json"), self.check_haar),
            Op("ultrametricity", "ultrametricity",
               ["ultrametricity", p("cloud.csv"), "--data", "--sample", str(self.SAMPLE),
                "--seed", str(self.seed), "-o", p("report.json")],
               ("report.json",), self.check_ultrametricity),
        ]

    def check_cluster(self, r: Result) -> str | None:
        doc = json.loads(r.files["tree.json"])
        if doc["labels"] != self.labels:
            return "cluster: labels differ"
        if oracles.tree_nodes(doc) != self.complete:
            return "cluster: tree differs from the tie-rule reference"
        return None

    def check_render(self, r: Result) -> str | None:
        lines = r.files["render.txt"].splitlines()
        if len(lines) != 2 * self.N - 1:
            return f"render: {len(lines)} lines, expected {2 * self.N - 1}"
        shown = {line.split()[0] for line in lines if line and not line[0].isspace()}
        if not set(self.labels) <= shown:
            return "render: some terminal labels are missing"
        ranks = [line.split("q")[-1].split()[0] for line in lines if " h=" in line]
        if sorted(map(int, ranks)) != list(range(1, self.N)):
            return "render: junction annotations do not cover q1..q(n-1)"
        return None

    def check_cophenetic(self, r: Result) -> str | None:
        return _equal(self._matrix_csv(self.um_text), r.files["um.csv"], "cophenetic matrix")

    def check_planted(self, r: Result) -> str | None:
        found = oracles.violations(self.perturbed, self.pairs, self.TOL)
        rows = ["i,j,k,lhs,rhs"] + [f"{i + 1},{j + 1},{k + 1},{_g7(a)},{_g7(b)}" for i, j, k, a, b in found]
        message = f"E_ULTRAMETRIC: {len(found)} violating triple(s) at tolerance {self.TOL}\n"
        return (_equal("\n".join(rows) + "\n", r.files["viol1.csv"], "planted violations")
                or _equal(message, r.stderr, "verify-um diagnostic"))

    def check_canonical(self, r: Result) -> str | None:
        perm = [int(v) - 1 for v in r.files["perm.txt"].strip().split(",")]
        if sorted(perm) != list(range(self.N)):
            return "canonical: --perm-out is not a permutation"
        source = _csv_cells(Path(self.path("um.csv")).read_text())
        cells = _csv_cells(r.files["canon.csv"])
        expected = [[""] + [source[0][1 + i] for i in perm]]
        expected += [[source[1 + i][0]] + [source[1 + i][1 + j] for j in perm] for i in perm]
        if cells != expected:
            return "canonical: output is not the input matrix reordered by the permutation"
        values = np.array([[float(c) for c in row[1:]] for row in cells[1:]])
        problem = self.dc["ultrametric"].check_canonical_form(values)
        return None if problem is None else f"canonical: {problem}"

    def check_haar(self, r: Result) -> str | None:
        nodes = oracles.linkage_tree(oracles.distances(self.x), "median")
        if oracles.tree_nodes(json.loads(r.files["wt.csv.tree.json"])) != nodes:
            return "haar: median-linkage tree differs from the tie-rule reference"
        root, details = oracles.haar_forward(nodes, self.x)
        return _equal(oracles.haar_csv(root, details, _g7), r.files["wt.csv"], "wavelet table")

    def check_ultrametricity(self, r: Result) -> str | None:
        report = json.loads(r.files["report.json"])
        d = oracles.distances(self.cloud)
        try:
            from scipy.spatial.distance import pdist, squareform
        except ImportError:  # scipy is an optional cross-check only
            pass
        else:
            if not np.allclose(squareform(pdist(self.cloud)), d, rtol=1e-12, atol=0):
                return "ultrametricity: reference distances disagree with scipy"
        expected = {
            "sampled": self.SAMPLE,
            "coefficient": oracles.triangle_coefficient(d, self.SAMPLE, self.seed, 0.02),
            "seed": self.seed,
            "tolerance": 0.02,
        }
        return None if report == expected else f"ultrametricity: report {report} != {expected}"


# ------------------------------------------------------------------ tree-codes


def random_merge_tree(rng: random.Random, n: int) -> list[tuple[int, float, str, str]]:
    """Merge two uniformly chosen clusters at each step (depth about log n)."""
    active = [f"t{i + 1}" for i in range(n)]
    nodes, height = [], 0.0
    for rank in range(1, n):
        a, b = rng.sample(range(len(active)), 2)
        left, right = active[a], active[b]
        for k in sorted((a, b), reverse=True):
            active.pop(k)
        height += rng.random()
        nodes.append((rank, height, left, right))
        active.append(f"q{rank}")
    return nodes


def caterpillar(rng: random.Random, n: int) -> list[tuple[int, float, str, str]]:
    """Each merge adds one terminal to the growing cluster (depth n-1);
    terminal order and child sides are drawn from the seed."""
    order = [f"t{i + 1}" for i in range(n)]
    rng.shuffle(order)
    nodes, spine, height = [], order[0], 0.0
    for rank, leaf in enumerate(order[1:], start=1):
        height += rng.random()
        pair = (spine, leaf) if rng.random() < 0.5 else (leaf, spine)
        nodes.append((rank, height, *pair))
        spine = f"q{rank}"
    return nodes


def tree_json(labels, nodes) -> str:
    doc = {
        "n": len(labels),
        "labels": list(labels),
        "nodes": [{"rank": r, "height": h, "left": a, "right": b} for r, h, a, b in nodes],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_floats(text: str) -> np.ndarray:
    return np.array([[float(c) for c in row[1:]] for row in _csv_cells(text)[1:]])


class TreeCodes(Workload):
    """Tree-only conversions on two random-merge trees and one caterpillar:
    conversions costing O(n * depth) and the recursion limit both show."""

    name = "tree-codes"
    N = 1500
    SMALL = 300
    DIM = 4
    EPSILON = 0.1
    TREES = ("rand1", "rand2", "cat")

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.labels = [f"t{i + 1}" for i in range(self.N)]
        self.trees = {
            "rand1": random_merge_tree(rng, self.N),
            "rand2": random_merge_tree(rng, self.N),
            "cat": caterpillar(rng, self.N),
        }
        self.codes, self.literals, self.data = {}, {}, {}
        nprng = np.random.default_rng(self.seed)
        for key, nodes in self.trees.items():
            Path(self.path(f"tree_{key}.json")).write_text(tree_json(self.labels, nodes))
            self.codes[key] = oracles.code_matrix(nodes, self.N)
            Path(self.path(f"enc_{key}.json")).write_text(oracles.encoding_json(3, self.labels, self.codes[key]))
            self.literals[key] = oracles.packed(nodes, self.N)
            self.data[key] = nprng.random((self.N, self.DIM))
            root, details = oracles.haar_forward(nodes, self.data[key])
            Path(self.path(f"wt_{key}.csv")).write_text(oracles.haar_csv(root, details))
        if self.literals["cat"] != tuple(range(1, self.N + 1)):
            raise AssertionError("caterpillar packed literal must be (1, 2, ..., n)")
        self.small_labels = [f"t{i + 1}" for i in range(self.SMALL)]
        self.small = random_merge_tree(rng, self.SMALL)
        small_codes = oracles.code_matrix(self.small, self.SMALL)
        Path(self.path("enc_small.json")).write_text(oracles.encoding_json(3, self.small_labels, small_codes))

    def ops(self) -> list[Op]:
        p = self.path
        out: list[Op] = []
        for k in self.TREES:
            literal = "(" + ",".join(map(str, self.literals[k])) + ")"
            out += [
                Op("padic-encode", f"padic-encode:{k}",
                   ["padic-encode", p(f"tree_{k}.json"), "-p", "3", "-o", p(f"out_enc_{k}.json"),
                    "--decimals", p(f"codes_{k}.csv")],
                   (f"out_enc_{k}.json", f"codes_{k}.csv"), self._check_encode(k)),
                Op("padic-decode", f"padic-decode:{k}",
                   ["padic-decode", p(f"enc_{k}.json"), "-o", p(f"dec_{k}.json")],
                   (f"dec_{k}.json",), self._check_decode(k)),
                Op("packed", f"packed:{k}", ["packed", p(f"tree_{k}.json"), "-o", p(f"packed_{k}.txt")],
                   (f"packed_{k}.txt",),
                   lambda r, k=k, lit=literal: _equal(lit + "\n", r.files[f"packed_{k}.txt"], "packed")),
                Op("unpack", f"unpack:{k}", ["unpack", literal, "-o", p(f"unpack_{k}.json")],
                   (f"unpack_{k}.json",), self._check_unpack(k)),
                Op("haar-inverse", f"haar-inverse:{k}",
                   ["haar-inverse", p(f"wt_{k}.csv"), "--tree", p(f"tree_{k}.json"),
                    "--full-precision", "-o", p(f"rec_{k}.csv")],
                   (f"rec_{k}.csv",), self._check_inverse(k)),
                Op("haar-denoise", f"haar-denoise:{k}",
                   ["haar-denoise", p(f"wt_{k}.csv"), "--tree", p(f"tree_{k}.json"),
                    "--epsilon", str(self.EPSILON), "--full-precision", "-o", p(f"den_{k}.csv")],
                   (f"den_{k}.csv",), self._check_denoise(k)),
            ]
        out.append(Op("padic-dist", "padic-dist", ["padic-dist", p("enc_small.json"), "-o", p("dist.csv")],
                      ("dist.csv",), self.check_dist))
        return out

    def _check_encode(self, k):
        def check(r: Result) -> str | None:
            return (_equal(Path(self.path(f"enc_{k}.json")).read_text(), r.files[f"out_enc_{k}.json"], "encoding")
                    or _equal(oracles.decimal_codes(3, self.labels, self.codes[k]),
                              r.files[f"codes_{k}.csv"], "decimal codes"))
        return check

    def _check_decode(self, k):
        def check(r: Result) -> str | None:
            doc = json.loads(r.files[f"dec_{k}.json"])
            nodes = oracles.tree_nodes(doc)
            if doc["labels"] != self.labels or any(h != float(rank) for rank, h, _, _ in nodes):
                return "padic-decode: labels or rank heights differ"
            if not np.array_equal(oracles.code_matrix(nodes, self.N), self.codes[k]):
                return "padic-decode: decoded tree re-encodes to a different code matrix"
            return None
        return check

    def _check_unpack(self, k):
        def check(r: Result) -> str | None:
            nodes = oracles.tree_nodes(json.loads(r.files[f"unpack_{k}.json"]))
            if oracles.packed(nodes, self.N) != self.literals[k]:
                return "unpack: tree re-packs to a different permutation"
            return None
        return check

    def _check_inverse(self, k):
        def check(r: Result) -> str | None:
            got = _parse_floats(r.files[f"rec_{k}.csv"])
            if got.shape != self.data[k].shape or np.abs(got - self.data[k]).max() > 1e-12:
                return "haar-inverse: reconstruction is off by more than 1e-12"
            return None
        return check

    def _check_denoise(self, k):
        def check(r: Result) -> str | None:
            root, details = oracles.haar_forward(self.trees[k], self.data[k])
            thinned = [np.where(np.abs(d) < self.EPSILON, 0.0, d) for d in details]
            expected = oracles.haar_inverse(self.trees[k], root, thinned)
            got = _parse_floats(r.files[f"den_{k}.csv"])
            if got.shape != expected.shape or np.abs(got - expected).max() > 1e-12:
                return "haar-denoise: output is off the thresholded reconstruction by more than 1e-12"
            return None
        return check

    def check_dist(self, r: Result) -> str | None:
        return _equal(oracles.padic_distance_csv(3, self.small_labels, self.small), r.files["dist.csv"],
                      "p-adic distances")


# --------------------------------------------------------------------- strings


class Strings(Workload):
    """Paths that bypass distance matrices: large, shallow prefix trees and
    stream permutations, which load the tree core differently from deep trees."""

    name = "strings"
    REALS, DIGITS = 20000, 8
    DIST = 300
    DNA, DNA_LEN = 5000, 60
    STREAM, ORDER = 100000, 3
    NLR = 9
    OBJECTS, ATTRIBUTES, HELD, LEVEL = 40, 12, 7, 6  # each object holds 7 attributes
    PAIRS = 500  # sampled pairs checked against the Baire distance

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.reals = rng.random(self.REALS).tolist()

        self.dist_labels = [f"s{i + 1}" for i in range(self.DIST)]
        self.dist_strings = [oracles.digits_of(v, self.DIGITS) for v in rng.random(self.DIST).tolist()]
        Path(self.path("dist.txt")).write_text(
            "".join(f"{a},{s}\n" for a, s in zip(self.dist_labels, self.dist_strings)))

        bases = rng.integers(0, 4, size=(self.DNA, self.DNA_LEN))
        self.dna = ["".join("ACGT"[b] for b in row) for row in bases.tolist()]
        self.dna_digits = ["".join(map(str, row)) for row in bases.tolist()]
        Path(self.path("dna.txt")).write_text("".join(f"d{i + 1},{s}\n" for i, s in enumerate(self.dna)))

        self.stream = np.round(rng.normal(size=self.STREAM), 2)
        Path(self.path("stream.csv")).write_text("\n".join(map(repr, self.stream.tolist())) + "\n")

        # a fixed row weight keeps the semilattice size, and so its cost,
        # nearly the same for every seed
        cells = np.zeros((self.OBJECTS, self.ATTRIBUTES), dtype=int)
        for row in cells:
            row[rng.choice(self.ATTRIBUTES, self.HELD, replace=False)] = 1
        self.table = cells
        lines = ["obj," + ",".join(f"a{j + 1}" for j in range(self.ATTRIBUTES))]
        lines += [f"o{i + 1}," + ",".join(map(str, row)) for i, row in enumerate(cells.tolist())]
        Path(self.path("table.csv")).write_text("\n".join(lines) + "\n")

    def _digitize(self) -> int:
        strings = self.dc["baire"].digitize_reals(self.reals, self.DIGITS)
        Path(self.path("reals.txt")).write_text("".join(f"{s.label},{s.text()}\n" for s in strings))
        return 0

    def ops(self) -> list[Op]:
        p = self.path
        return [
            Op("digitize", "digitize", None, ("reals.txt",), self.check_digitize, call=self._digitize),
            Op("baire-cluster", "baire-cluster:reals",
               ["baire-cluster", p("reals.txt"), "--base", "10", "-o", p("reals_tree.json"),
                "--trie-out", p("trie.txt"), "--newick", p("reals_tree.nwk")],
               ("reals_tree.json", "trie.txt", "reals_tree.nwk"), self.check_reals_cluster),
            Op("baire-dist", "baire-dist", ["baire-dist", p("dist.txt"), "--base", "10", "--exact", "-o", p("bd.csv")],
               ("bd.csv",), lambda r: _equal(
                   oracles.baire_distance_csv(self.dist_labels, self.dist_strings, 10), r.files["bd.csv"],
                   "Baire distances")),
            Op("dna-encode", "dna-encode", ["dna-encode", p("dna.txt"), "--scheme", "4-adic", "-o", p("dna4.txt")],
               ("dna4.txt",), lambda r: _equal(
                   "".join(f"d{i + 1},{s}\n" for i, s in enumerate(self.dna_digits)), r.files["dna4.txt"],
                   "DNA digits")),
            Op("baire-cluster", "baire-cluster:dna",
               ["baire-cluster", p("dna4.txt"), "--base", "4", "-o", p("dna_tree.json")],
               ("dna_tree.json",), self.check_dna_cluster),
            Op("ordinal", "ordinal", ["ordinal", p("stream.csv"), "--order", str(self.ORDER), "--counts",
                                      "-o", p("ordinal.txt")],
               ("ordinal.txt",), self.check_ordinal),
            Op("rankperm", "rankperm", ["rankperm", p("stream.csv"), "-o", p("rankperm.txt")],
               ("rankperm.txt",), lambda r: _equal(oracles.rank_permutation(self.stream), r.files["rankperm.txt"],
                                                   "rank permutation")),
            Op("enumerate-nlr", "enumerate-nlr", ["enumerate-nlr", "-n", str(self.NLR)], (),
               lambda r: _equal(f"{oracles.zigzag(self.NLR - 1)}\n", r.stdout, "tree-shape count")),
            Op("lattice", "lattice", ["lattice", p("table.csv"), "-o", p("lattice.json")],
               ("lattice.json",), self.check_lattice),
            Op("lattice", "lattice:level", ["lattice", p("table.csv"), "--level", str(self.LEVEL),
                                            "-o", p("clusters.txt")],
               ("clusters.txt",), self.check_level),
        ]

    @functools.cached_property
    def real_strings(self) -> list[str]:
        return [oracles.digits_of(v, self.DIGITS) for v in self.reals]

    def check_digitize(self, r: Result) -> str | None:
        expected = "".join(f"v{i + 1},{s}\n" for i, s in enumerate(self.real_strings))
        return _equal(expected, r.files["reals.txt"], "digitized reals")

    def _check_prefix_tree(self, doc: dict, strings: list[str], base: int) -> str | None:
        labels = doc["labels"]
        parent, height = {}, {}
        for d in doc["nodes"]:
            token = f"q{d['rank']}"
            height[token] = d["height"]
            parent[d["left"]] = parent[d["right"]] = token
        rng = random.Random(self.seed)
        for _ in range(self.PAIRS):
            a, b = rng.sample(range(len(strings)), 2)
            r = oracles.lcp(strings[a], strings[b])
            expected = float(Fraction(1, base**r))
            got = oracles.lca_height(parent, height, f"t{a + 1}", f"t{b + 1}")
            if got != expected:
                return (f"baire-cluster: cophenetic distance of {labels[a]},{labels[b]} is {got}, "
                        f"Baire distance is {expected}")
        return None

    def check_reals_cluster(self, r: Result) -> str | None:
        problem = self._check_prefix_tree(json.loads(r.files["reals_tree.json"]), self.real_strings, 10)
        if problem:
            return problem
        prefixes = {s[:k] for s in self.real_strings for k in range(1, self.DIGITS + 1)}
        if len(r.files["trie.txt"].splitlines()) != len(prefixes) + 1:
            return "baire-cluster: trie dump does not have one line per prefix"
        newick = r.files["reals_tree.nwk"]
        if not newick.endswith("];\n") or newick.count(":") != 2 * self.REALS - 2:
            return "baire-cluster: Newick text does not have one branch per non-root node"
        return None

    def check_dna_cluster(self, r: Result) -> str | None:
        return self._check_prefix_tree(json.loads(r.files["dna_tree.json"]), self.dna_digits, 4)

    def check_ordinal(self, r: Result) -> str | None:
        text = r.files["ordinal.txt"]
        windows = self.STREAM - self.ORDER
        counts = text.splitlines()[-1].split()[1:]
        if sum(int(c.split(":")[1]) for c in counts) != windows:
            return "ordinal: class counts do not sum to the number of windows"
        return _equal(oracles.ordinal_output(self.stream, self.ORDER), text, "ordinal patterns")

    def check_lattice(self, r: Result) -> str | None:
        rows = [int("".join(map(str, row[::-1])), 2) for row in self.table.tolist()]
        realized, closed, covers = oracles.semilattice(rows, self.ATTRIBUTES)
        names = [f"a{j + 1}" for j in range(self.ATTRIBUTES)]

        def mask(subset) -> int:
            return sum(1 << names.index(a) for a in subset)

        doc = json.loads(r.files["lattice.json"])
        got = {mask(v["subset"]): (v["level"], sorted(map(tuple, v["pairs"]))) for v in doc["vertices"]}
        expected = {
            m: (bin(m).count("1"), sorted((f"o{i + 1}", f"o{j + 1}") for i, j in realized.get(m, ())))
            for m in closed
        }
        if got != expected:
            return "lattice: vertices differ from the union-closed reference"
        if {(mask(a), mask(b)) for a, b in doc["covers"]} != covers:
            return "lattice: covering pairs differ from the reference"
        return None

    def check_level(self, r: Result) -> str | None:
        rows = self.table.tolist()
        n = len(rows)
        adjacent = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and sum(not (a and b) for a, b in zip(rows[i], rows[j])) <= self.LEVEL:
                    adjacent[i] |= 1 << j
        cliques = sorted(tuple(sorted(f"o{i + 1}" for i in c)) for c in oracles.maximal_cliques(adjacent))
        return _equal("".join(",".join(c) + "\n" for c in cliques), r.files["clusters.txt"], "maximal clusters")


WORKLOADS = {w.name: w for w in (Matrix, TreeCodes, Strings)}

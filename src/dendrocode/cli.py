"""Batch command-line surface: one verb per capability, file in / file out.

Exit codes: 0 on success, 1 on a domain error (single-line diagnostic
``<CODE>: <message>`` on stderr), 2 on usage errors.  Every command is
deterministic given identical inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import formats
from .baire import baire_cluster, baire_distance, encode_dna
from .errors import DendrocodeError, DomainError, ParseError, ResourceGuardError
from .haar import haar_forward, haar_inverse, haar_threshold
from .hierarchy import LINKAGES, agglomerate, pairwise_distances
from .lattice import build_semilattice, clusters_at_level, semilattice_text
from .padic import decode, encode_dendrogram
from .permutations import (
    PackedPermutation,
    enumerate_nlr,
    ordinal_sequence,
    packed_representation,
    permutation_text,
    rank_permutation,
    unpack,
)
from .render import render_tree
from .ultrametric import (
    canonical_form,
    cophenetic_matrix,
    generate_cloud,
    ultrametricity_coefficient,
    verify_ultrametric,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_tree(path: str):
    return formats.tree_from_json(_read(path))


def _sidecar(path: str | None) -> str | None:
    if path is None or path == "-":
        return None
    return path + ".tree.json"


def _add_io_flags(p: argparse.ArgumentParser, output: bool = True) -> None:
    if output:
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument(
        "--full-precision",
        action="store_true",
        help="print floats at full precision instead of 7 significant digits",
    )


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--header", action="store_true", default=None,
                   help="treat the first row as a header (default: sniff)")
    p.add_argument("--labels", action="store_true", default=None,
                   help="treat the first column as labels (default: sniff)")


def _cmd_cluster(args) -> int:
    table = formats.read_data_csv(_read(args.input), args.header, args.labels)
    diss = pairwise_distances(table.values, metric=args.metric, labels=table.labels)
    tree = agglomerate(diss, args.linkage)
    _emit(formats.tree_to_json(tree), args.output)
    if args.newick:
        _emit(formats.tree_to_newick(tree, args.full_precision), args.newick)
    return 0


def _cmd_cophenetic(args) -> int:
    tree = _load_tree(args.tree)
    _emit(formats.write_matrix_csv(cophenetic_matrix(tree), args.full_precision), args.output)
    return 0


def _cmd_verify_um(args) -> int:
    matrix = formats.read_matrix_csv(_read(args.matrix))
    violations = verify_ultrametric(matrix, args.tol)
    _emit(formats.violations_csv(violations, args.full_precision), args.output)
    if violations:
        sys.stderr.write(
            f"E_ULTRAMETRIC: {len(violations)} violating triple(s) at tolerance {args.tol}\n"
        )
        return 1
    return 0


def _cmd_canonical(args) -> int:
    matrix = formats.read_matrix_csv(_read(args.matrix))
    perm, reordered = canonical_form(matrix, args.tol)
    _emit(formats.write_matrix_csv(reordered, args.full_precision), args.output)
    perm_text = ",".join(str(i + 1) for i in perm) + "\n"
    if args.perm_out:
        _emit(perm_text, args.perm_out)
    elif args.output not in (None, "-"):
        sys.stdout.write(perm_text)
    return 0


def _cmd_padic_encode(args) -> int:
    enc = encode_dendrogram(_load_tree(args.tree), args.prime)
    _emit(formats.encoding_to_json(enc), args.output)
    if args.decimals:
        _emit(formats.decimal_codes_csv(enc), args.decimals)
    return 0


def _cmd_padic_decode(args) -> int:
    enc = formats.encoding_from_json(_read(args.encoding))
    _emit(formats.tree_to_json(decode(enc)), args.output)
    return 0


# padic-dist builds its whole table in memory; a cell takes about 2 r log10(p)
# bytes at level r, so a deep tree over a large p can ask for gigabytes
_TABLE_GUARD = 2**30


def _cmd_padic_dist(args) -> int:
    enc = formats.encoding_from_json(_read(args.encoding))
    levels = enc.differing_levels()
    distinct, counts = np.unique(levels, return_counts=True)
    text = {}
    size = 0
    for r, count in zip(distinct.tolist(), counts.tolist()):
        similarity = Fraction(1, enc.p**r)
        text[r] = formats._cell(similarity if args.similarity else 1 - similarity)
        size += count * (len(text[r]) + 1)
    if size > _TABLE_GUARD:
        raise ResourceGuardError(
            f"the distance table would take {size} bytes, past the guard ({_TABLE_GUARD})"
        )
    table = [list(map(text.__getitem__, row)) for row in levels.tolist()]
    _emit(formats.fraction_matrix_csv(enc.labels, table), args.output)
    return 0


def _cmd_baire_dist(args) -> int:
    strings = formats.read_strings(_read(args.strings), args.base)
    labels = [s.label or f"s{i + 1}" for i, s in enumerate(strings)]
    if args.exact:
        table = [[baire_distance(a, b) for b in strings] for a in strings]
        _emit(formats.fraction_matrix_csv(labels, table), args.output)
    else:
        values = np.array(
            [[float(baire_distance(a, b)) for b in strings] for a in strings]
        )
        out = formats.write_data_csv(values, labels, labels, args.full_precision)
        _emit(out, args.output)
    return 0


def _cmd_baire_cluster(args) -> int:
    strings = formats.read_strings(_read(args.strings), args.base)
    hierarchy, tree = baire_cluster(strings)
    _emit(formats.tree_to_json(tree), args.output)
    if args.trie_out:
        _emit(hierarchy.dump_text(), args.trie_out)
    if args.newick:
        _emit(formats.tree_to_newick(tree, args.full_precision), args.newick)
    return 0


def _cmd_dna_encode(args) -> int:
    lines = []
    for _, label, sequence in formats._labelled_lines(_read(args.sequences)):
        digits = encode_dna(sequence, args.scheme).text()
        lines.append(digits if label is None else f"{label},{digits}")
    if not lines:
        raise ParseError("no sequences in input")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_haar(args) -> int:
    table = formats.read_data_csv(_read(args.input), args.header, args.labels)
    diss = pairwise_distances(table.values, labels=table.labels)
    tree = agglomerate(diss, args.linkage)
    transform = haar_forward(tree, table.values)
    _emit(formats.haar_to_csv(transform, table.header, args.full_precision), args.output)
    tree_path = args.tree_out or _sidecar(args.output)
    if tree_path is None:
        raise DomainError("writing to stdout requires --tree-out for the tree sidecar")
    _emit(formats.tree_to_json(tree), tree_path)
    return 0


def _cmd_haar_inverse(args) -> int:
    tree_path = args.tree or _sidecar(args.transform)
    if tree_path is None:
        raise DomainError("need --tree when the transform comes from stdin")
    tree = _load_tree(tree_path)
    transform, coord_names = formats.haar_from_csv(_read(args.transform), tree)
    data = haar_inverse(transform)
    _emit(
        formats.write_data_csv(data, tree.labels, coord_names, args.full_precision),
        args.output,
    )
    return 0


def _cmd_haar_denoise(args) -> int:
    tree_path = args.tree or _sidecar(args.transform)
    if tree_path is None:
        raise DomainError("need --tree when the transform comes from stdin")
    tree = _load_tree(tree_path)
    transform, coord_names = formats.haar_from_csv(_read(args.transform), tree)
    thinned = haar_threshold(transform, args.epsilon)
    if args.transform_out:
        _emit(formats.haar_to_csv(thinned, coord_names, args.full_precision), args.transform_out)
    data = haar_inverse(thinned)
    _emit(
        formats.write_data_csv(data, tree.labels, coord_names, args.full_precision),
        args.output,
    )
    return 0


def _cmd_ordinal(args) -> int:
    stream = formats.read_stream_csv(_read(args.stream))
    patterns, classes = ordinal_sequence(stream, args.order, args.delay, args.tie_rule)
    out = " ".join(p.text() for p in patterns) + "\n"
    if args.counts:
        parts = [f"{text}:{len(idx)}" for text, idx in sorted(classes.items())]
        out += "classes " + " ".join(parts) + "\n"
    _emit(out, args.output)
    return 0


def _cmd_rankperm(args) -> int:
    stream = formats.read_stream_csv(_read(args.stream))
    perm = rank_permutation(stream, args.delay)
    _emit("(" + permutation_text(perm) + ")\n", args.output)
    return 0


def _cmd_packed(args) -> int:
    perm = packed_representation(_load_tree(args.tree))
    _emit(perm.text() + "\n", args.output)
    return 0


def _parse_packed_literal(text: str) -> PackedPermutation:
    body = text.strip().strip("()")
    try:
        if "," in body:
            values = [int(v) for v in body.split(",") if v.strip()]
        elif body.isdigit():
            values = [int(ch) for ch in body]
        else:
            raise ValueError
    except ValueError:
        raise ParseError(f"cannot parse permutation literal {text!r}") from None
    return PackedPermutation(tuple(values))


def _cmd_unpack(args) -> int:
    text = _read(args.permutation) if args.file else args.permutation
    tree = unpack(_parse_packed_literal(text))
    _emit(formats.tree_to_json(tree), args.output)
    return 0


def _cmd_enumerate_nlr(args) -> int:
    trees = enumerate_nlr(args.n)
    sys.stdout.write(f"{len(trees)}\n")
    if args.trees_out:
        blob = "".join(formats.tree_to_json(t) for t in trees)
        _emit(blob, args.trees_out)
    return 0


def _cmd_lattice(args) -> int:
    table = formats.read_boolean_table_csv(_read(args.table))
    if args.level is not None:
        clusters = clusters_at_level(table, args.level)
        _emit("\n".join(",".join(c) for c in clusters) + "\n", args.output)
        return 0
    lat = build_semilattice(table)
    if args.text:
        _emit(semilattice_text(lat), args.output)
    else:
        _emit(formats.semilattice_to_json(lat), args.output)
    return 0


def _cmd_ultrametricity(args) -> int:
    text = _read(args.input)
    if args.data:
        table = formats.read_data_csv(text)
        matrix = pairwise_distances(table.values, labels=table.labels)
    else:
        matrix = formats.read_matrix_csv(text)
    report = ultrametricity_coefficient(matrix, args.sample, args.seed, args.tol)
    _emit(formats.report_to_json(report), args.output)
    return 0


def _cmd_gen_cloud(args) -> int:
    cloud = generate_cloud(args.n, args.dim, args.law, args.seed)
    _emit(formats.write_data_csv(cloud, full_precision=args.full_precision), args.output)
    return 0


def _cmd_render(args) -> int:
    _emit(render_tree(_load_tree(args.tree), args.full_precision), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrocode",
        description="Dendrograms and their codes: build, convert, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="agglomerate a data table into a tree")
    p.add_argument("input")
    p.add_argument("--linkage", choices=LINKAGES, default="complete")
    p.add_argument("--metric", choices=["euclidean"], default="euclidean")
    p.add_argument("--newick", default=None, help="also write Newick text here")
    _add_table_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("cophenetic", help="ultrametric matrix of a tree")
    p.add_argument("tree")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_cophenetic)

    p = sub.add_parser("verify-um", help="list strong-triangle violations")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_verify_um)

    p = sub.add_parser("canonical", help="reorder an ultrametric matrix to canonical form")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--perm-out", default=None, help="write the 1-based permutation here")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("padic-encode", help="signed coefficient matrix of a tree")
    p.add_argument("tree")
    p.add_argument("-p", "--prime", type=int, default=3)
    p.add_argument("--decimals", default=None, help="also write label,code CSV here")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_padic_encode)

    p = sub.add_parser("padic-decode", help="rebuild the tree from an encoding")
    p.add_argument("encoding")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_padic_decode)

    p = sub.add_parser("padic-dist", help="exact rational distance matrix of an encoding")
    p.add_argument("encoding")
    p.add_argument("--similarity", action="store_true", help="emit similarities instead")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_padic_dist)

    p = sub.add_parser("baire-dist", help="longest-common-prefix distance matrix")
    p.add_argument("strings")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--exact", action="store_true", help="emit exact fractions")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_baire_dist)

    p = sub.add_parser("baire-cluster", help="prefix-tree clustering of digit strings")
    p.add_argument("strings")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--trie-out", default=None, help="write the indented trie dump here")
    p.add_argument("--newick", default=None)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_baire_cluster)

    p = sub.add_parser("dna-encode", help="digit-encode nucleotide sequences")
    p.add_argument("sequences")
    p.add_argument("--scheme", choices=["5-adic", "4-adic", "2-adic-pairs"], default="5-adic")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_dna_encode)

    p = sub.add_parser("haar", help="wavelet transform of a clustered data table")
    p.add_argument("input")
    p.add_argument("--linkage", choices=LINKAGES, default="median")
    p.add_argument("--tree-out", default=None, help="tree sidecar path (default <output>.tree.json)")
    _add_table_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_haar)

    p = sub.add_parser("haar-inverse", help="reconstruct data from a wavelet table")
    p.add_argument("transform")
    p.add_argument("--tree", default=None, help="tree sidecar path (default <transform>.tree.json)")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_haar_inverse)

    p = sub.add_parser("haar-denoise", help="zero small details, then reconstruct")
    p.add_argument("transform")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tree", default=None)
    p.add_argument("--transform-out", default=None, help="also write the thresholded table")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_haar_denoise)

    p = sub.add_parser("ordinal", help="sliding-window ordinal patterns of a stream")
    p.add_argument("stream")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--delay", type=int, default=1)
    p.add_argument("--tie-rule", choices=["earlier-low", "later-low"], default="earlier-low")
    p.add_argument("--counts", action="store_true", help="also print class counts")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_ordinal)

    p = sub.add_parser("rankperm", help="whole-stream rank permutation")
    p.add_argument("stream")
    p.add_argument("--delay", type=int, default=1)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_rankperm)

    p = sub.add_parser("packed", help="packed permutation of a tree")
    p.add_argument("tree")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_packed)

    p = sub.add_parser("unpack", help="rebuild the tree from a packed permutation")
    p.add_argument("permutation", help="literal like (13625748), or a file with --file")
    p.add_argument("--file", action="store_true")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_unpack)

    p = sub.add_parser("enumerate-nlr", help="count and list ranked tree shapes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--trees-out", default=None, help="write concatenated tree JSON here")
    p.set_defaults(fn=_cmd_enumerate_nlr)

    p = sub.add_parser("lattice", help="set-valued dissimilarity semilattice of a boolean table")
    p.add_argument("table")
    p.add_argument("--level", type=int, default=None, help="print maximal clusters at this level")
    p.add_argument("--text", action="store_true", help="indented text instead of JSON")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("ultrametricity", help="triangle-sampling ultrametricity report")
    p.add_argument("input")
    p.add_argument("--data", action="store_true", help="input is raw data, not a matrix")
    p.add_argument("--sample", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.02)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_ultrametricity)

    p = sub.add_parser("gen-cloud", help="seeded random point cloud")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--law", choices=["uniform", "gaussian"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_gen_cloud)

    p = sub.add_parser("render", help="monospaced text drawing of a tree")
    p.add_argument("tree")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DendrocodeError as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"{exc.code}: {message}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

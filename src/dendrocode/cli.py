"""Batch command-line surface: one verb per capability, file in / file out.

Exit codes: 0 on success, 1 on a domain error (single-line diagnostic
``<CODE>: <message>`` on stderr), 2 on usage errors.  Every command is
deterministic given identical inputs, flags and seed.

Each verb is a generator of ``(target, text)`` outputs and writes nothing
itself; ``main`` collects them all and hands them to ``_write``, so a run
that ends in an error leaves no output behind.  A large text is a
generator of pieces in their natural units (rows, tree nodes, lines), and
``_write`` alone joins them into blocks and writes each to disk as it is
made.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import itertools
import os
import stat
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

from . import errors, formats
from .baire import _prefix_tree
from .errors import _TABLE_GUARD, DendrocodeError, DomainError, ParseError, ResourceGuardError
from .haar import haar_forward, haar_inverse, haar_threshold
from .hierarchy import LINKAGES, agglomerate, gap_counts, gap_levels, pairwise_distances
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
from .render import _render_chunks
from .ultrametric import (
    _data_coefficient,
    canonical_form,
    generate_cloud,
    ultrametricity_coefficient,
    verify_ultrametric,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


Text = str | Iterable[str]


def _write(outputs: list[tuple[str | TextIO | None, Text]]) -> int:
    """The one writer.  A target is a path, None or "-" for stdout, or
    sys.stderr; a text is a str or an iterable of str pieces, which are
    generated as they are written, joined into blocks by ``_blocks``.

    Stdout, stderr, and a path that is the regular file either of them
    writes to (/dev/stdout when stdout goes to a file), each get one spool.
    Every other path is opened before anything is written
    (``_open_target``): a regular file, or a path that does not exist yet,
    gets a temporary file beside it, and any other target, such as
    /dev/null, is opened in place.  Then the texts are written in order,
    each past 1 GiB a ``ResourceGuardError``.  Only when every text is
    complete are the temporary files renamed over their targets, in order,
    so a path given twice keeps the later text; then stdout's spool is
    printed, and stderr's after it.  On any error every temporary file is
    removed, so no file target changes; a target written in place keeps
    what was written to it.  Returns the exit code: 1 when a text went to
    sys.stderr, else 0."""
    renames: list[tuple[str, str]] = []  # (temporary file, the file it replaces)
    sinks: list[tuple[str, Text, BinaryIO]] = []
    spools: dict[TextIO, BinaryIO] = {}
    try:
        for target, text in outputs:
            if target in (None, "-"):
                name, stream = "stdout", sys.stdout
            elif target is sys.stderr:
                name, stream = "stderr", sys.stderr
            else:
                name, stream = target, _std_stream(target)
            if stream is None:
                sinks.append((name, text, _open_target(target, renames)))
            else:
                if stream not in spools:
                    spools[stream] = tempfile.SpooledTemporaryFile(errors._CHUNK)
                sinks.append((name, text, spools[stream]))
        for name, text, sink in sinks:
            written = 0
            for block in _blocks(text):
                data = block.encode()
                written += len(data)
                if written > _TABLE_GUARD:
                    raise ResourceGuardError(
                        f"the output to {name} passed the guard ({_TABLE_GUARD} bytes)")
                _io(name, sink.write, data)
        for name, _, sink in sinks:
            if sink not in spools.values():
                _io(name, sink.close)
        for temp, final in renames:
            _io(final, os.replace, temp, final)
    except BaseException:
        for _, _, sink in sinks:
            with contextlib.suppress(OSError):
                sink.close()
        for temp, _ in renames:
            Path(temp).unlink(missing_ok=True)
        raise
    for stream in (sys.stdout, sys.stderr):
        if (spool := spools.pop(stream, None)) is not None:
            spool.seek(0)
            decode = codecs.getincrementaldecoder("utf-8")().decode
            while block := spool.read(errors._CHUNK):
                stream.write(decode(block))
            spool.close()
    return int(any(target is sys.stderr for target, _ in outputs))


def _blocks(text: Text) -> Iterator[str]:
    """``text`` as blocks to write: its pieces (a str is one piece) joined
    until a block holds at least ``errors._CHUNK`` characters.  A block
    never splits a piece."""
    parts: list[str] = []
    size = 0
    for piece in (text,) if isinstance(text, str) else text:
        parts.append(piece)
        size += len(piece)
        if size >= errors._CHUNK:
            yield "".join(parts)
            parts, size = [], 0
    if parts:
        yield "".join(parts)


def _io(name: str, call, *args):
    """``call(*args)``, an operation on the output to ``name``; an
    ``OSError`` is one ``DomainError`` naming it."""
    try:
        return call(*args)
    except OSError as exc:
        raise DomainError(f"cannot write {name}: {exc.strerror}") from None


def _open_target(target: str, renames: list[tuple[str, str]]) -> BinaryIO:
    """A binary file to write ``target``'s text to.

    A target that exists and is not a regular file (a device, a pipe) is
    opened in place for append, which truncates nothing.  Any other target
    is written through its symlinks to the file they lead to: a temporary
    file is made beside that file and added to ``renames``.  It takes the
    mode of the file it replaces, or, for a new file, the mode the umask
    leaves of 0o666, as a new file opened for writing would.  An existing
    file that cannot be opened for writing is refused here."""
    try:
        found = os.stat(target)
    except FileNotFoundError:
        found = None
    except OSError as exc:
        raise DomainError(f"cannot write {target}: {exc.strerror}") from None
    if found is not None and not stat.S_ISREG(found.st_mode):
        return _io(target, open, target, "ab")
    if found is not None:
        _io(target, open, target, "ab").close()
    final = os.path.realpath(target)
    folder, name = os.path.split(final)
    while True:
        temp = os.path.join(folder, f".{name[:200]}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except OSError as exc:
            raise DomainError(f"cannot write {target}: {exc.strerror}") from None
        break
    renames.append((temp, final))
    file = os.fdopen(fd, "wb")
    if found is not None:
        try:
            _io(target, os.fchmod, fd, stat.S_IMODE(found.st_mode))
        except DomainError:
            file.close()
            raise
    return file


def _std_stream(target: str) -> TextIO | None:
    """sys.stdout or sys.stderr when ``target`` is the regular file that
    fd 1 or fd 2 writes to, else None."""
    with contextlib.suppress(OSError):  # the path or a descriptor may be missing
        found = os.stat(target)
        if stat.S_ISREG(found.st_mode):
            for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
                with contextlib.suppress(OSError):
                    if os.path.samestat(found, os.fstat(fd)):
                        return stream
    return None


def _load_tree(path: str):
    return formats.tree_from_json(_read(path))


def _sidecar(path: str | None) -> str | None:
    if path is None or path == "-":
        return None
    return path + ".tree.json"


def _add_io_flags(p: argparse.ArgumentParser, floats: bool = False) -> None:
    """``-o``, and ``--full-precision`` for a verb that prints floats."""
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    if floats:
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


def _cmd_cluster(args):
    table = formats.read_data_csv(_read(args.input), args.header, args.labels)
    diss = pairwise_distances(table.values, metric=args.metric, labels=table.labels)
    tree = agglomerate(diss, args.linkage)
    yield args.output, formats._tree_json_chunks(tree)
    if args.newick:
        yield args.newick, formats._newick_chunks(tree, args.full_precision)


def _cmd_cophenetic(args):
    tree = _load_tree(args.tree)
    # the cophenetic matrix as the rank table of the drawing, each rank
    # mapped to its node's height and 0 to 0.0, sized from the tree first:
    # the bytes of _matrix_chunks(cophenetic_matrix(tree))
    heights = [0.0, *map(float, tree.heights())]
    yield args.output, _level_table(tree.labels, *tree._level_gaps(), heights.__getitem__,
                                    args.full_precision)


def _level_table(labels, pos, gaps, value, full_precision=False):
    """The pieces of the level table of the drawing ``(pos, gaps)``, each
    level printed as ``value(level)``: sized by ``gap_counts`` before
    ``gap_levels`` builds it."""
    return formats._level_table_chunks(labels, gap_counts(pos, gaps), lambda: gap_levels(pos, gaps),
                                       value, full_precision)


def _cmd_verify_um(args):
    matrix = formats.read_matrix_csv(_read(args.matrix))
    violations = verify_ultrametric(matrix, args.tol)
    yield args.output, formats._violation_chunks(violations, args.full_precision)
    if violations:
        line = f"E_ULTRAMETRIC: {len(violations)} violating triple(s) at tolerance {args.tol}\n"
        yield sys.stderr, line


def _cmd_canonical(args):
    matrix = formats.read_matrix_csv(_read(args.matrix))
    perm, reordered = canonical_form(matrix, args.tol)
    yield args.output, formats._matrix_chunks(reordered, args.full_precision)
    perm_text = ",".join(str(i + 1) for i in perm) + "\n"
    if args.perm_out:
        yield args.perm_out, perm_text
    elif args.output not in (None, "-"):
        yield None, perm_text


def _cmd_padic_encode(args):
    tree = _load_tree(args.tree)
    formats._require_encoding_within_guard(tree, args.prime)
    enc = encode_dendrogram(tree, args.prime)
    yield args.output, formats._encoding_json_chunks(enc)
    if args.decimals:
        yield args.decimals, formats._decimal_code_chunks(enc)


def _cmd_padic_decode(args):
    enc = formats.encoding_from_json(_read(args.encoding))
    yield args.output, formats._tree_json_chunks(decode(enc))


def _cmd_padic_dist(args):
    enc = formats.encoding_from_json(_read(args.encoding))

    def value(r: int) -> Fraction:
        similarity = Fraction(1, enc.p**r)
        return similarity if args.similarity else 1 - similarity

    yield args.output, _level_table(enc.labels, *enc._level_gaps(), value)


def _prefixes(args):
    """The prefix hierarchy of the strings file, read as one digit array."""
    return _prefix_tree(args.base, *formats._read_digits(_read(args.strings), args.base))


def _cmd_baire_dist(args):
    hierarchy = _prefixes(args)
    top = hierarchy.depth + 1

    def value(g: int) -> Fraction | float:
        # gap g is the common-prefix length top - g, and gap 0 distance 0
        distance = Fraction(0) if g == 0 else Fraction(1, args.base ** (top - g))
        return distance if args.exact else float(distance)

    yield args.output, _level_table(hierarchy.labels, *hierarchy._level_gaps(), value, args.full_precision)


def _cmd_baire_cluster(args):
    hierarchy = _prefixes(args)
    tree = hierarchy._tree_columns()
    yield args.output, formats._tree_json_chunks(tree)
    if args.trie_out:
        yield args.trie_out, hierarchy._dump_chunks()
    if args.newick:
        yield args.newick, formats._newick_chunks(tree, args.full_precision)


def _cmd_dna_encode(args):
    lines = formats._dna_lines(_read(args.sequences), args.scheme)
    if not lines:
        raise ParseError("no sequences in input")
    yield args.output, "\n".join(lines) + "\n"


def _cmd_haar(args):
    table = formats.read_data_csv(_read(args.input), args.header, args.labels)
    diss = pairwise_distances(table.values, labels=table.labels)
    tree = agglomerate(diss, args.linkage)
    transform = haar_forward(tree, table.values)
    yield args.output, formats._haar_chunks(transform, table.header, args.full_precision)
    tree_path = args.tree_out or _sidecar(args.output)
    if tree_path is None:
        raise DomainError("writing to stdout requires --tree-out for the tree sidecar")
    yield tree_path, formats._tree_json_chunks(tree)


def _load_transform(args):
    """The wavelet table ``args.transform`` and its coordinate names, read
    against the tree of ``--tree`` or else of the transform's sidecar."""
    tree_path = args.tree or _sidecar(args.transform)
    if tree_path is None:
        raise DomainError("need --tree when the transform comes from stdin")
    return formats.haar_from_csv(_read(args.transform), _load_tree(tree_path))


def _cmd_haar_inverse(args):
    transform, coord_names = _load_transform(args)
    data = haar_inverse(transform)
    yield args.output, formats._data_chunks(data, transform.tree.labels, coord_names, args.full_precision)


def _cmd_haar_denoise(args):
    transform, coord_names = _load_transform(args)
    thinned = haar_threshold(transform, args.epsilon)
    if args.transform_out:
        yield args.transform_out, formats._haar_chunks(thinned, coord_names, args.full_precision)
    data = haar_inverse(thinned)
    yield args.output, formats._data_chunks(data, transform.tree.labels, coord_names, args.full_precision)


def _cmd_ordinal(args):
    stream = formats.read_stream_csv(_read(args.stream))
    patterns, classes = ordinal_sequence(stream, args.order, args.delay, args.tie_rule)
    # equal windows share one pattern object: format each distinct one once
    texts = {id(p): p.text() for p in {id(p): p for p in patterns}.values()}
    out = " ".join([texts[id(p)] for p in patterns]) + "\n"
    if args.counts:
        parts = [f"{text}:{len(idx)}" for text, idx in sorted(classes.items())]
        out += "classes " + " ".join(parts) + "\n"
    yield args.output, out


def _cmd_rankperm(args):
    stream = formats.read_stream_csv(_read(args.stream))
    perm = rank_permutation(stream, args.delay)
    yield args.output, "(" + permutation_text(perm) + ")\n"


def _cmd_packed(args):
    perm = packed_representation(_load_tree(args.tree))
    yield args.output, perm.text() + "\n"


def _parse_packed_literal(text: str) -> PackedPermutation:
    # ASCII digits only: int would also take a sign, underscores and other scripts' digits
    body = text.strip().strip("()")
    cells = [v.strip() for v in body.split(",") if v.strip()] if "," in body else [*body] or [""]
    try:
        if not all(cell.isascii() and cell.isdigit() for cell in cells):
            raise ValueError
        values = [int(cell) for cell in cells]
    except ValueError:  # also a number past Python's int-to-str digit limit
        raise ParseError(f"cannot parse permutation literal {text!r}") from None
    return PackedPermutation(tuple(values))


def _cmd_unpack(args):
    text = _read(args.permutation) if args.file else args.permutation
    tree = unpack(_parse_packed_literal(text))
    yield args.output, formats._tree_json_chunks(tree)


def _cmd_enumerate_nlr(args):
    trees = enumerate_nlr(args.n)
    yield None, f"{len(trees)}\n"
    if args.trees_out:
        yield args.trees_out, itertools.chain.from_iterable(
            formats._tree_json_chunks(tree) for tree in trees)


def _cmd_lattice(args):
    table = formats.read_boolean_table_csv(_read(args.table))
    if args.level is not None:
        clusters = clusters_at_level(table, args.level)
        yield args.output, "\n".join(",".join(c) for c in clusters) + "\n"
    elif args.text:
        yield args.output, semilattice_text(build_semilattice(table))
    else:
        yield args.output, formats.semilattice_to_json(build_semilattice(table))


def _cmd_ultrametricity(args):
    text = _read(args.input)
    if args.data:
        report = _data_coefficient(formats.read_data_csv(text).values, args.sample, args.seed, args.tol)
    else:
        report = ultrametricity_coefficient(formats.read_matrix_csv(text), args.sample, args.seed, args.tol)
    yield args.output, formats.report_to_json(report)


def _cmd_gen_cloud(args):
    cloud = generate_cloud(args.n, args.dim, args.law, args.seed)
    yield args.output, formats._data_chunks(cloud, full_precision=args.full_precision)


def _cmd_render(args):
    yield args.output, _render_chunks(_load_tree(args.tree), args.full_precision)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verbs' parser, built once per process; parsing leaves it unchanged."""
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
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("cophenetic", help="ultrametric matrix of a tree")
    p.add_argument("tree")
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_cophenetic)

    p = sub.add_parser("verify-um", help="list strong-triangle violations")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_verify_um)

    p = sub.add_parser("canonical", help="reorder an ultrametric matrix to canonical form")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--perm-out", default=None, help="write the 1-based permutation here")
    _add_io_flags(p, floats=True)
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
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_baire_dist)

    p = sub.add_parser("baire-cluster", help="prefix-tree clustering of digit strings")
    p.add_argument("strings")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--trie-out", default=None, help="write the indented trie dump here")
    p.add_argument("--newick", default=None)
    _add_io_flags(p, floats=True)
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
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_haar)

    p = sub.add_parser("haar-inverse", help="reconstruct data from a wavelet table")
    p.add_argument("transform")
    p.add_argument("--tree", default=None, help="tree sidecar path (default <transform>.tree.json)")
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_haar_inverse)

    p = sub.add_parser("haar-denoise", help="zero small details, then reconstruct")
    p.add_argument("transform")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tree", default=None)
    p.add_argument("--transform-out", default=None, help="also write the thresholded table")
    _add_io_flags(p, floats=True)
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
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_gen_cloud)

    p = sub.add_parser("render", help="monospaced text drawing of a tree")
    p.add_argument("tree")
    _add_io_flags(p, floats=True)
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _write(list(args.fn(args)))
    except DendrocodeError as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"{exc.code}: {message}\n")
        return 1
    except MemoryError:  # past the memory the host gives, such as an input larger than it
        sys.stderr.write(f"{ResourceGuardError.code}: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the calls into each dendrocode layer.

The wrappers are installed only for a traced pass, from the outside: the
names ``dendrocode.cli`` imported at load time, the public functions of
``dendrocode.formats``, a few module attributes looked up at call time, and
the validating ``__post_init__`` of ``Dendrogram`` and ``PadicEncoding``.
Spans nest (``read_matrix_csv`` calls ``read_data_csv``, ``tree_from_json``
builds a ``Dendrogram``), so every layer number is self time: a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "cli", "formats", "hierarchy", "ultrametric", "padic",
    "permutations", "haar", "baire", "lattice", "render",
)

FORMATS_READ = {
    "read_data_csv", "read_matrix_csv", "tree_from_json", "haar_from_csv",
    "encoding_from_json", "read_strings", "read_stream_csv", "read_boolean_table_csv",
}

# Spans whose summed self time is reported as "<span>_s".
TIMED_SPANS = (
    "hierarchy.pairwise_distances", "hierarchy.agglomerate", "hierarchy.dendrogram_init",
    "ultrametric.cophenetic_matrix", "ultrametric.verify_ultrametric",
    "ultrametric.canonical_form", "ultrametric.ultrametricity_coefficient",
    "padic.encode_dendrogram", "padic.encoding_init", "padic.evaluate_code",
    "padic.decode", "padic.padic_distance",
    "permutations.packed_representation", "permutations.unpack",
    "permutations.ordinal_sequence", "permutations.rank_permutation",
    "permutations.enumerate_nlr",
    "haar.haar_forward", "haar.haar_inverse", "haar.haar_threshold",
    "render.render_tree",
    "baire.digitize_reals", "baire.encode_dna", "baire.baire_cluster",
    "baire.dump_text", "baire.baire_distance",
    "lattice.build_semilattice", "lattice.clusters_at_level",
)

COUNTERS = (
    "formats.bytes_read", "formats.bytes_written",
    "hierarchy.pairwise_distances.rss_growth_mb", "hierarchy.agglomerate.merges",
    "hierarchy.dendrogram_init.calls",
    "ultrametric.verify_ultrametric.triples", "ultrametric.verify_ultrametric.violations",
    "ultrametric.ultrametricity_coefficient.triangles",
    "padic.padic_distance.calls", "permutations.ordinal_sequence.windows",
    "baire.trie_nodes", "baire.baire_distance.calls",
    "lattice.vertices", "lattice.covers",
)


def _verify_triples(c, args, result):
    n = args[0].size
    c["ultrametric.verify_ultrametric.triples"] += n * (n - 1) * (n - 2) // 2
    c["ultrametric.verify_ultrametric.violations"] += len(result)


def _semilattice(c, args, result):
    c["lattice.vertices"] += len(result.vertices)
    c["lattice.covers"] += len(result.covers)


# What each span counts, from its arguments and result.
COUNT = {
    "hierarchy.agglomerate": lambda c, a, r: c.update({"hierarchy.agglomerate.merges": len(r.nodes)}),
    "hierarchy.dendrogram_init": lambda c, a, r: c.update({"hierarchy.dendrogram_init.calls": 1}),
    "ultrametric.verify_ultrametric": _verify_triples,
    "ultrametric.ultrametricity_coefficient": lambda c, a, r: c.update(
        {"ultrametric.ultrametricity_coefficient.triangles": r.sampled}),
    "padic.padic_distance": lambda c, a, r: c.update({"padic.padic_distance.calls": 1}),
    "permutations.ordinal_sequence": lambda c, a, r: c.update(
        {"permutations.ordinal_sequence.windows": len(r[0])}),
    "baire.baire_cluster": lambda c, a, r: c.update({"baire.trie_nodes": r[0].node_count}),
    "baire.baire_distance": lambda c, a, r: c.update({"baire.baire_distance.calls": 1}),
    "lattice.build_semilattice": _semilattice,
}


def raising_layer(exc: BaseException, package_dir: Path) -> str:
    """Module of the innermost dendrocode frame in the exception's traceback."""
    layer = "cli"
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == package_dir:
            layer = path.stem
        tb = tb.tb_next
    return layer


class Tracer:
    """Spans are ``[name, parent index, start ns, end ns, error type]``."""

    def __init__(self, dendrocode_modules: dict):
        self.modules = dendrocode_modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_error: BaseException | None = None
        self.error_layer: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        count = COUNT.get(name)
        track_memory = name == "hierarchy.pairwise_distances"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            if track_memory:
                tracemalloc.start()
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer.last_error:  # innermost span raised it
                    tracer.last_error = exc
                    tracer.error_layer = name.split(".")[0]
                    record[4] = type(exc).__name__
                raise
            finally:
                record[3] = clock()
                stack.pop()
                if track_memory:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = "hierarchy.pairwise_distances.rss_growth_mb"
                    counts[key] = max(counts[key], peak_mb)
            if count is not None:
                count(counts, args, result)
            if name.startswith("formats."):
                if name[8:] in FORMATS_READ:
                    counts["formats.bytes_read"] += len(args[0])
                elif isinstance(result, str):
                    counts["formats.bytes_written"] += len(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        m = self.modules
        cli = m["cli"]
        for attr, obj in vars(cli).copy().items():
            module = getattr(obj, "__module__", "") or ""
            if inspect.isfunction(obj) and module.startswith("dendrocode.") and module != "dendrocode.cli":
                self._patch(cli, attr, f"{module.split('.')[1]}.{attr}")
        formats = m["formats"]
        for attr, obj in vars(formats).copy().items():
            if (inspect.isfunction(obj) and obj.__module__ == "dendrocode.formats"
                    and not attr.startswith("_") and attr != "fmt_float"):
                self._patch(formats, attr, f"formats.{attr}")
        self._patch(m["padic"], "evaluate_code", "padic.evaluate_code")
        self._patch(m["baire"], "digitize_reals", "baire.digitize_reals")
        self._patch(m["baire"].PrefixHierarchy, "dump_text", "baire.dump_text")
        self._patch(m["hierarchy"].Dendrogram, "__post_init__", "hierarchy.dendrogram_init")
        self._patch(m["padic"].PadicEncoding, "__post_init__", "padic.encoding_init")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- op spans

    def begin(self, name: str) -> int:
        self.last_error = None
        self.error_layer = None
        self.stack.append(len(self.spans))
        self.spans.append([name, -1, time.perf_counter_ns(), 0, None])
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self.stack.pop()
        self.last_error = None  # drop the traceback

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -------------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name and the counters, for the spans so far."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (name, _, start, end, _), inner in zip(self.spans, child_ns):
            self_s[name] += (end - start - inner) / 1e9
        out = {f"{span}_s": self_s.get(span, 0.0) for span in TIMED_SPANS}
        out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
        out["formats.read_s"] = sum(self_s.get(f"formats.{f}", 0.0) for f in FORMATS_READ)
        out["formats.write_s"] = sum(
            v for k, v in self_s.items()
            if k.startswith("formats.") and k[8:] not in FORMATS_READ
        )
        for key in COUNTERS:
            out[key] = float(self.counts.get(key, 0))
        return out

"""Benchmark of the dendrocode CLI: one workload per process, one client,
one thread, in a closed loop (each op starts when the previous one ends).

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dendrocode is imported from its ``src``.
The last line of standard output is the JSON result; the full run record
(per-op outcomes and digests, and the spans of a traced run) is written
under ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, Tracer, raising_layer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# verbs whose summed latency per pass is reported as "<verb>_s" (the verbs
# that take at least 0.3 s at the seed commit)
TIMED_VERBS = {
    "matrix": ("cluster", "verify-um", "canonical", "haar", "ultrametricity"),
    "tree-codes": ("padic-encode", "padic-decode", "padic-dist"),
    "strings": ("baire-cluster", "ordinal", "lattice"),
}


def verb_metric(verb: str) -> str:
    return verb.replace("-", "_") + "_s"


def import_dendrocode() -> dict:
    src = ROOT / "src"
    if not (src / "dendrocode" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dendrocode sources under {src}")
    sys.path.insert(0, str(src))
    import dendrocode
    from dendrocode import baire, cli, formats, hierarchy, padic, ultrametric

    if Path(dendrocode.__file__).resolve().parent != src / "dendrocode":
        raise SystemExit(f"perfbench: imported dendrocode from {dendrocode.__file__}, not {src}")
    return {"cli": cli, "formats": formats, "hierarchy": hierarchy, "padic": padic,
            "baire": baire, "ultrametric": ultrametric, "package_dir": src / "dendrocode"}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


class Runner:
    def __init__(self, workload, dc: dict, tracer):
        self.w = workload
        self.dc = dc
        self.tracer = tracer
        self.ops = workload.ops()
        self.verified: dict[str, str] = {}  # op name -> digest of its checked output
        self.records: list[dict] = []

    def run_op(self, op, traced: bool) -> dict:
        out, err = io.StringIO(), io.StringIO()
        failure = None
        tracer = self.tracer if traced else None
        span = tracer.begin(("cli." if op.argv else "bench.") + op.verb) if tracer else None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = op.call() if op.call else self.dc["cli"].main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
            failure = {"layer": "cli", "type": "SystemExit"}
        except Exception as exc:  # RecursionError, MemoryError, escaped bugs
            code = None
            failure = {"layer": tracer.error_layer if tracer and tracer.error_layer
                       else raising_layer(exc, self.dc["package_dir"]), "type": type(exc).__name__,
                       "detail": traceback.format_exception_only(exc)[-1].strip()[:300]}
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        if failure is None and code != op.expect_exit:
            message = err.getvalue().strip()
            failure = {"layer": (tracer.error_layer if tracer else None) or "cli",
                       "type": message.split(":")[0] or f"exit {code}", "detail": message[:300]}
        return {"op": op.name, "verb": op.verb, "seconds": elapsed, "exit": code, "failure": failure,
                "stdout": out.getvalue(), "stderr": err.getvalue()}


    def run_pass(self, kind: str) -> dict:
        for op in self.ops:
            for name in op.outputs:
                Path(self.w.path(name)).unlink(missing_ok=True)
        traced = kind == "traced"
        if traced:
            self.tracer.reset()
            self.tracer.install()
        start = time.perf_counter()
        try:
            results = [self.run_op(op, traced) for op in self.ops]
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        for op, res in zip(self.ops, results):
            self._verify(op, res)
        record = {"kind": kind, "wall_s": wall, "ops": results}
        if traced:
            record["layers"] = self.tracer.layer_metrics()
            record["spans"] = list(self.tracer.spans)
        self.records.append(record)
        return record

    def _verify(self, op, res: dict) -> None:
        """Check an op's output, or compare its digest with a checked one."""
        from workloads import Result

        files = {name: Path(self.w.path(name)).read_text() for name in op.outputs
                 if Path(self.w.path(name)).is_file()}
        digest = hashlib.sha256(res["stdout"].encode())
        for name in op.outputs:
            digest.update(f"\0{name}\0".encode() + files.get(name, "").encode())
        res["digest"] = digest.hexdigest()
        if res["failure"] is not None:
            return
        if self.verified.get(op.name) == res["digest"]:
            return
        missing = [name for name in op.outputs if name not in files]
        try:
            problem = (f"missing output {missing}" if missing else
                       op.check(Result(res["exit"], res["stdout"], res["stderr"], files)))
        except Exception as exc:  # an unparseable output is a wrong output
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            res["failure"] = {"layer": "output", "type": "WrongOutput", "detail": problem[:300]}
        else:
            self.verified[op.name] = res["digest"]


def verb_seconds(record: dict) -> dict[str, float]:
    sums: dict[str, float] = {}
    for res in record["ops"]:
        sums[res["verb"]] = sums.get(res["verb"], 0.0) + res["seconds"]
    return sums


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["matrix", "tree-codes", "strings"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the measured passes run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    dc = import_dendrocode()
    import_s = time.perf_counter() - t0

    # imported after the timed import, so that numpy's import counts in setup_s
    import numpy
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, dc)
        generate_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.generate()
            generate_s.append(time.perf_counter() - t)
        tracer = Tracer(dc) if args.trace else None
        runner = Runner(workload, dc, tracer)
        warmup = runner.run_pass("warm-up")
        setup_s = import_s + statistics.median(generate_s) + warmup["wall_s"]

        measured: list[dict] = []
        start = time.perf_counter()
        while not measured or time.perf_counter() - start < args.seconds:
            measured.append(runner.run_pass("untraced"))
            if args.trace:
                measured.append(runner.run_pass("traced"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["ops"]) for r in measured)
    failed = sum(res["failure"] is not None for r in measured for res in r["ops"])
    wrong = sum(res["failure"] is not None and res["failure"]["layer"] == "output"
                for r in runner.records for res in r["ops"])
    untraced = [r for r in measured if r["kind"] == "untraced"]

    def median_of(records, key):
        return statistics.median(key(r) for r in records)

    verb_metrics = {
        verb_metric(verb): median_of(untraced, lambda r, verb=verb: verb_seconds(r).get(verb, 0.0))
        for verb in TIMED_VERBS[args.workload]
    }
    end_to_end = {
        "wall_s": (median_of(untraced, lambda r: r["wall_s"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    if args.trace:
        traced = [r for r in measured if r["kind"] == "traced"]
        metrics = {name: (median_of(traced, lambda r, n=name: r["layers"][n]),
                          "MB" if name.endswith("_mb") else "s" if name.endswith("_s") else "count")
                   for name in traced[0]["layers"]}
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = (median_of(traced, lambda r, lay=layer: sum(
                res["failure"] is not None and res["failure"]["layer"] == lay for res in r["ops"])), "count")
        metrics["trace.overhead_s"] = (median_of(traced, lambda r: r["wall_s"]) - end_to_end["wall_s"][0], "s")
        metrics.update({verb_metric(verb): (verb_metrics.get(verb_metric(verb), 0.0), "s")
                        for verbs in TIMED_VERBS.values() for verb in verbs})
    else:
        metrics = dict(end_to_end)
        metrics.update({name: (value, "s") for name, value in verb_metrics.items()})
    metrics["error_rate"] = (failed / attempted, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "import_s": import_s, "generate_s": generate_s, "warmup_s": warmup["wall_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in runner.records],
    }
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, r in enumerate(runner.records):
                for span in r.get("spans", ()):
                    fh.write(json.dumps([i] + span) + "\n")

    for r in runner.records:
        for res in r["ops"]:
            if res["failure"] is not None and r is not warmup:
                f = res["failure"]
                print(f"failed {res['op']} ({r['kind']}): {f['layer']} {f['type']} {f.get('detail', '')}"[:200])
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"]: metrics[m["name"]] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

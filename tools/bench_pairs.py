"""Run the benchmark on two checkouts in alternating pairs and summarize it.

Pair p runs ``perfbench/run.py --workload W --seed S --seconds X --trace 0``
on the parent and on the change, seed S = first seed + p - 1; the parent
runs first on odd pairs and the change on even ones.  With several
workloads, each pair runs them in the order given, the two sides of one
workload back to back.  Each run happens in its own checkout, which must
hold ``perfbench/`` and ``src/`` (and the change's ``BENCHMARK.json``, whose
end-to-end metrics and bounds are summarized).

After each pair the op digests of the two run records
(``.perfbench/<workload>-seed<S>-trace0.json``) are compared: every op must
have the same set of output digests on both sides.  The summary, in the
layout of the ``BENCH_*.json`` files, goes to standard output as JSON, and
progress to standard error.  The exit code is 1 if any digest differs or a
run fails, else 0::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload matrix \\
        --pairs 10 --first-seed 1931 > bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result line and its run record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"result": result, "record": record}


def op_digests(record: dict) -> dict[str, set[str]]:
    digests: dict[str, set[str]] = {}
    for p in record["passes"]:
        for op in p["ops"]:
            digests.setdefault(op["op"], set()).add(op["digest"])
    return digests


def op_median_seconds(record: dict) -> dict[str, float]:
    """Each op's median seconds over the measured passes of one run."""
    times: dict[str, list[float]] = {}
    for p in record["passes"]:
        if p["kind"] == "untraced":
            for op in p["ops"]:
                times.setdefault(op["op"], []).append(op["seconds"])
    return {name: statistics.median(values) for name, values in times.items()}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' values of one metric, their medians and quartiles, the
    pairs the change wins, and whether the change's median is within
    ``bound`` (a fraction of the parent's median) of the parent's."""
    pm, cm = statistics.median(parent), statistics.median(change)
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = cm / pm if pm else (1.0 if cm == pm else float("inf"))
    return {
        "parent": parent, "change": change,
        "parent_median": pm, "parent_quartiles": quartiles(parent),
        "change_median": cm, "change_quartiles": quartiles(change),
        "change_wins": wins, "pairs": len(parent), "change_over_parent": ratio,
        "bound": bound,
        "within_bound": ratio <= 1 + bound if lower else ratio >= 1 - bound,
    }


def summarize_workload(runs: list[dict], metrics: list[dict], seeds: list[int]) -> dict:
    """The ``BENCH_*.json`` entry of one workload; ``runs`` holds one
    ``{"parent", "change"}`` of ``run_side`` results per pair."""
    summary = {}
    for m in metrics:
        values = {side: [r[side]["result"]["metrics"][m["name"]]["value"] for r in runs]
                  for side in ("parent", "change")}
        summary[m["name"]] = summarize_metric(values["parent"], values["change"], m["better"],
                                              m["bound"])
    digests = [{side: op_digests(r[side]["record"]) for side in ("parent", "change")} for r in runs]
    op_times = {side: [op_median_seconds(r[side]["record"]) for r in runs]
                for side in ("parent", "change")}
    ops = sorted(op_times["parent"][0])
    verbs = [name for name in runs[0]["parent"]["record"]["metrics"]
             if name.endswith("_s") and name not in summary]
    return {
        "summary": summary,
        "all_correct": all(r[side]["result"]["correct"] for r in runs for side in ("parent", "change")),
        "failed_ops": {side: [r[side]["result"]["failed"] for r in runs] for side in ("parent", "change")},
        "digests_equal_on_every_pair": all(d["parent"] == d["change"] for d in digests),
        "single_digest_per_op": all(len(s) == 1 for d in digests for side in d.values()
                                    for s in side.values()),
        "op_medians_s": {name: {side: round(statistics.median(t.get(name, 0.0) for t in times), 4)
                                for side, times in op_times.items()} for name in ops},
        "verb_medians_s": {name: {side: round(statistics.median(
            r[side]["record"]["metrics"][name]["value"] for r in runs), 4)
            for side in ("parent", "change")} for name in verbs},
        "seeds": seeds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    seeds = [args.first_seed + p for p in range(args.pairs)]
    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    mismatches = []
    for p, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if p % 2 else ("change", "parent")
        for workload in args.workload:
            pair = {}
            for side in order:
                try:
                    pair[side] = run_side(sides[side], workload, seed, args.seconds)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"bench_pairs: {exc}", file=sys.stderr)
                    return 1
                wall = pair[side]["result"]["metrics"]["wall_s"]["value"]
                print(f"pair {p} seed {seed} {workload} {side}: wall_s {wall:.3f}", file=sys.stderr)
            parent, change = (op_digests(pair[side]["record"]) for side in ("parent", "change"))
            if parent != change:
                differing = sorted(op for op in parent.keys() | change.keys()
                                   if parent.get(op) != change.get(op))
                mismatches.append(f"{workload} seed {seed}: {', '.join(differing)}")
            runs[workload].append(pair)

    doc = {
        "benchmark": "python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {args.seconds:g} --trace 0",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "order": f"pair p (1-based, seeds {seeds[0]}..{seeds[-1]} in turn) ran the parent first "
                 "when p is odd, the change first when p is even; within a pair the workloads "
                 f"ran in the order {', '.join(args.workload)}, the two sides of one workload "
                 "back to back",
        "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {w: summarize_workload(runs[w], metrics, seeds) for w in args.workload},
    }
    print(json.dumps(doc, indent=1))
    for line in mismatches:
        print(f"bench_pairs: op digests differ: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

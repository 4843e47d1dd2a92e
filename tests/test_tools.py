"""Smoke tests for the scripts in ``tools/``: each runs in its own process,
as it is run by hand."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dendrocode"


def _run(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, **kwargs)


def test_code_lines_has_one_row_per_module_and_their_total(tmp_path):
    result = _run(str(ROOT / "tools" / "code_lines.py"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    counts = {name: int(count) for count, name in rows}
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert [name for _, name in rows] == [*modules, "total"]
    assert all(counts[name] > 0 for name in modules)
    assert counts["total"] == sum(counts[name] for name in modules)


def test_peak_rss_runs_one_verb_and_reports_one_line(tmp_path):
    stream, out = tmp_path / "stream.csv", tmp_path / "ordinal.txt"
    stream.write_text("4\n7\n9\n10\n6\n11\n3\n")
    result = _run(str(ROOT / "tools" / "peak_rss.py"), "ordinal", str(stream), "--order", "2",
                  "-o", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert out.read_bytes() == b"012 012 201 102 201\n"
    number = r"\d+\.\d+"
    line = rf"peak_rss: exit=0 wall_s={number} ru_maxrss_mb before={number} after={number}\n"
    assert re.fullmatch(line, result.stderr), result.stderr


# A stand-in for perfbench/run.py: it logs its call, writes a run record of
# two passes and prints a fixed result, with wall_s and the output digest
# of op "a" taken from the checkout's walls.json and digests.json by seed.
STUB_RUN = """
import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path(__file__).resolve().parent.parent
workload, seed = args["--workload"], args["--seed"]
with open(root.parent / "calls.log", "a") as log:
    log.write(f"{root.name} {workload} {seed} {args['--trace']}\\n")
digest = json.loads((root / "digests.json").read_text()).get(seed, "d0")
op = lambda seconds: {"op": "a", "seconds": seconds, "digest": digest}
wall = json.loads((root / "walls.json").read_text())[seed]
record = {"metrics": {"wall_s": {"value": wall}, "a_s": {"value": 1.0}},
          "passes": [{"kind": "warm-up", "ops": [op(9.0)]},
                     {"kind": "untraced", "ops": [op(0.25)]},
                     {"kind": "untraced", "ops": [op(0.75)]}]}
(root / ".perfbench").mkdir(exist_ok=True)
(root / ".perfbench" / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
print("wall_s", wall)
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"}, "success_rate": {"value": 1.0, "unit": "ratio"}}}))
"""


def _stub_checkout(path, walls, digests=None):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB_RUN)
    (path / "walls.json").write_text(json.dumps({str(k): v for k, v in walls.items()}))
    (path / "digests.json").write_text(json.dumps({str(k): v for k, v in (digests or {}).items()}))
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.02}]}))
    return path


def test_bench_pairs_alternates_the_sides_and_summarizes(tmp_path):
    parent = _stub_checkout(tmp_path / "parent", {100: 2.0, 101: 2.5, 102: 2.0, 103: 3.0})
    change = _stub_checkout(tmp_path / "change", {100: 1.0, 101: 1.0, 102: 3.0, 103: 1.5})
    result = _run(str(ROOT / "tools" / "bench_pairs.py"), str(parent), str(change),
                  "--workload", "matrix", "strings", "--pairs", "4", "--first-seed", "100",
                  "--seconds", "1", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    sides = [("parent", "change"), ("change", "parent")] * 2
    assert calls == [f"{side} {w} {seed} 0" for seed, order in zip(range(100, 104), sides)
                     for w in ("matrix", "strings") for side in order]
    doc = json.loads(result.stdout)
    assert sorted(doc["workloads"]) == ["matrix", "strings"]
    matrix = doc["workloads"]["matrix"]
    wall = matrix["summary"]["wall_s"]
    assert (wall["parent"], wall["change"]) == ([2.0, 2.5, 2.0, 3.0], [1.0, 1.0, 3.0, 1.5])
    assert (wall["parent_median"], wall["change_median"], wall["change_wins"]) == (2.25, 1.25, 3)
    assert wall["parent_quartiles"] == [2.0, 2.25, 2.625]
    assert wall["change_over_parent"] == 1.25 / 2.25 and wall["within_bound"]
    rate = matrix["summary"]["success_rate"]
    assert (rate["change_wins"], rate["within_bound"]) == (0, True)
    assert matrix["digests_equal_on_every_pair"] and matrix["single_digest_per_op"]
    assert matrix["op_medians_s"] == {"a": {"parent": 0.5, "change": 0.5}}  # warm-up left out
    assert matrix["verb_medians_s"] == {"a_s": {"parent": 1.0, "change": 1.0}}
    assert matrix["seeds"] == [100, 101, 102, 103]


def test_bench_pairs_fails_when_an_op_digest_differs(tmp_path):
    walls = {100: 1.0, 101: 1.0}
    parent = _stub_checkout(tmp_path / "parent", walls)
    change = _stub_checkout(tmp_path / "change", walls, digests={101: "other"})
    result = _run(str(ROOT / "tools" / "bench_pairs.py"), str(parent), str(change),
                  "--workload", "matrix", "--pairs", "2", "--first-seed", "100", cwd=tmp_path)
    assert result.returncode == 1
    assert "op digests differ: matrix seed 101: a" in result.stderr
    assert not json.loads(result.stdout)["workloads"]["matrix"]["digests_equal_on_every_pair"]

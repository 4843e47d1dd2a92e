"""Smoke tests for the scripts in ``tools/``: each runs in its own process,
as it is run by hand."""

from __future__ import annotations

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

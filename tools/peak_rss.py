"""Run one dendrocode CLI verb in this process and report its peak memory.

The verb's arguments are passed through unchanged.  After the run one line
goes to stderr: the exit code, the wall seconds of the verb, and the
process's peak resident set size (``ru_maxrss``) before and after it, in
MB.  "Before" is taken once the package and numpy are imported, so the
difference is what the verb itself added.  One process runs one verb, so
no earlier work sets the peak.  Run from anywhere::

    python3 tools/peak_rss.py render tree.json -o /dev/null
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrocode.cli import main as cli_main  # noqa: E402


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv: list[str]) -> int:
    before = peak_mb()
    start = time.perf_counter()
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    sys.stderr.write(
        f"peak_rss: exit={code} wall_s={wall:.3f} "
        f"ru_maxrss_mb before={before:.1f} after={peak_mb():.1f}\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one dendrocode CLI verb in this process and report its peak memory.

The verb's arguments are passed through unchanged.  After the run one line
goes to stderr: the exit code, the wall seconds of the verb, and the
process's peak resident set size (``ru_maxrss``) before and after it, in
MB.  "Before" is taken once the package and numpy are imported, so the
difference is what the verb itself added.  One process runs one verb, so
no earlier work sets the peak.  ``--limit-mb N``, given before the verb,
caps this process's address space (``RLIMIT_AS``) at N MB before the verb
runs, so an allocation past it fails as it would on a host with that much
memory.  Run from anywhere::

    python3 tools/peak_rss.py render tree.json -o /dev/null
    python3 tools/peak_rss.py --limit-mb 2048 cophenetic tree.json -o table.csv
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrocode.cli import main as cli_main  # noqa: E402


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit-mb", type=int, default=None,
                        help="cap this process's address space at this many MB")
    parser.add_argument("verb", nargs=argparse.REMAINDER, help="the verb and its arguments")
    args = parser.parse_args(argv)
    if args.limit_mb is not None:
        limit = args.limit_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    before = peak_mb()
    start = time.perf_counter()
    try:
        code = cli_main(args.verb)
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

"""Benchmark of the chunknet package: one workload per run.

    python3 bench/run.py --workload build-and-query --seed 1 \
        --seconds 15 --trace 0

Run from the root of a source checkout. The program is imported from
``src/`` in-process; inputs are generated from ``--seed`` into
``.bench_out/`` and removed at exit. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it measures untraced rounds, then
traced rounds, and reports the per-layer metrics (spans are written to
``.bench_out/spans/``). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Timed values are host-normalised (see
``hostspeed.py``); each is printed beside its raw value and speed factor.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("build-and-query", "classify-long", "five-four-sweep")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark of the chunknet package")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chunknet" / "__init__.py").is_file():
        print(f"error: no chunknet sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import benchmark
    return benchmark.main(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT / ".bench_out")


if __name__ == "__main__":
    sys.exit(main())

"""rigidloc benchmark: Monte-Carlo sweep throughput, completion throughput
and per-frame tracking latency, with a traced per-layer split.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload mc_sensors --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (traced and untraced calls alternate). ``--workload all`` runs each
workload in a process of its own. Every run first passes the
correctness gate; a run that fails it prints ``"correct": false`` with no
timings and exits 1. The last stdout line is one JSON object; a full
record goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("mc_sensors", "mc_completion", "track_stream", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for a few trials; checks metric names")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Import rigidloc from this checkout's src/, never from elsewhere.
    if not (SRC / "rigidloc" / "__init__.py").is_file():
        print(f"perfbench: no rigidloc sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all" and not args.smoke:
        import bench
        return bench.run_each(args)
    # Harness workloads run with the worker count a user gets by default.
    rbl_threads = os.environ.pop("RBL_THREADS", None)
    if args.setup_only:
        import workloads
        workloads.build(args.workload, args.seed, workloads.FULL)
        return 0
    import bench
    return bench.main(args, rbl_threads)


if __name__ == "__main__":
    sys.exit(main())

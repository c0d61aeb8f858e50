"""Benchmark entry point.

    python3 perfbench/run.py --workload galois-g25 --seed 7 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ./src of
that checkout and from nowhere else.  BLAS is pinned to one thread
before numpy loads.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import schubert_galois
    except ImportError as e:
        print(f"cannot import schubert_galois from {SRC}: {e}", file=sys.stderr)
        return 2
    if SRC not in Path(schubert_galois.__file__).resolve().parents:
        print(f"schubert_galois was imported from {schubert_galois.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    if args.trace:
        outcomes, metrics, samples = bench.measure_traced(args.workload, args.seed)
    else:
        outcomes, metrics, samples = bench.measure(args.workload, args.seed, args.seconds)
    print(bench.report(outcomes, metrics, samples, bench.environment(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

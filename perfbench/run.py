"""Run one benchmark workload of flowdistill and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload distill-cross --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the run's details (environment, output fingerprints,
deterministic counts). The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
See perfbench/README.md for the metrics and workloads.
"""
import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("pretrain-gen", "distill-cross", "eval-ablate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    # One BLAS thread, set before numpy loads: the benchmark is one caller
    # on a small shared machine, where a second OpenBLAS thread made every
    # workload slower and no steadier.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import flowdistill
        from perfbench import bench
    except ImportError as exc:
        print(f"error: cannot import flowdistill from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(flowdistill.__file__).startswith(src + os.sep):
        print(f"error: flowdistill was imported from {flowdistill.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    return bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

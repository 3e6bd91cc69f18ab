"""Benchmark of plfilt: filter-step and moment-match latency, full vs
structured path.

    python3 perfbench/run.py --workload track-3 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's ``src/``.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
lines before it are a readable report.  The full report, and with
``--trace 1`` every recorded span, are written under ``perfbench/out/``.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported: on a small machine
# OpenBLAS threading alone changes step times several-fold.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's malloc picks its mmap and trim thresholds from the allocation
# history, so a process either page-faults on every large temporary array or
# on none: match_full on match-gh runs at 0.9 or at 0.3 ms per call, at
# random.  Fixing both thresholds removes that swing.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_BYTES = 1 << 30
MMAP_BYTES = 32 << 20  # the largest value glibc accepts on 64-bit


def pin_allocator() -> str:
    """Fix glibc's malloc thresholds; returns what was set, for the record."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_TRIM_THRESHOLD, TRIM_BYTES) != 1 or mallopt(M_MMAP_THRESHOLD, MMAP_BYTES) != 1:
        return "default (mallopt refused)"
    return f"glibc mallopt trim_threshold={TRIM_BYTES} mmap_threshold={MMAP_BYTES}"


def _parse(argv):
    parser = argparse.ArgumentParser(description="plfilt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, allocator: str = "default") -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "plfilt" / "__init__.py").is_file():
        print(f"error: no plfilt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import plfilt

    if Path(plfilt.__file__).resolve().parent != (src / "plfilt").resolve():
        print(f"error: plfilt imported from {plfilt.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    report, rec = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root, allocator
    )
    harness.write_outputs(report, rec, Path(__file__).resolve().parent / "out")
    harness.print_report(report)
    print(harness.result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main(allocator=pin_allocator()))

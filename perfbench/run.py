"""Screen benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload screen-serial --seed 0 \
        --seconds 30 --trace 0

Prints one line per metric (name, value, unit) and, as the last line
of standard output, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones and writes a Perfetto-loadable
trace of the median traced screen under ``.bench_build/traces/``.

Exit status: 0 measured and checked; 1 an output check failed; 2 the
repository sources are missing; 3 the compiled simulator kernel is
unavailable, so no numbers are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# screenbench.WORKLOADS, named here because importing screenbench
# imports repro, whose import time is part of the measured set-up.
WORKLOAD_NAMES = ("screen-serial", "screen-rundir")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Keep the compiled kernel inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    start = time.perf_counter()
    import repro.core  # noqa: F401  (timed: imports are set-up)
    import repro.exec  # noqa: F401
    import repro.guard.verify  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.workloads  # noqa: F401
    import_s = time.perf_counter() - start

    import screenbench

    trace_path = None
    if args.trace:
        trace_path = (ROOT / ".bench_build" / "traces"
                      / f"{args.workload}-seed{args.seed}.json")
    try:
        result = screenbench.run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            root=ROOT, import_s=import_s, trace_path=trace_path,
        )
    except screenbench.CheckFailed as exc:
        print(f"OUTPUT CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except screenbench.KernelUnavailable as exc:
        print(f"refusing to record numbers: {exc}", file=sys.stderr)
        return 3
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

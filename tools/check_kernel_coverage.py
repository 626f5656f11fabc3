"""Line-coverage gate for the compiled simulator kernel.

Build the kernel with coverage counters into its own cache, run the
workload that must cover it, then check the counters::

    export REPRO_NATIVE_CFLAGS=--coverage REPRO_NATIVE_CACHE=/tmp/native-cov
    PYTHONPATH=src python -m repro diffcore --pairs 40 --seed 0
    PYTHONPATH=src python -m pytest tests/cpu/test_batched.py -q
    python tools/check_kernel_coverage.py /tmp/native-cov

The counters (``.gcda``) land next to the kernel's shared object.  The
check runs ``gcov`` on them and fails, listing the lines, when any
executable line of ``core.c`` never ran, except lines ending in
``goto done;``, which ``core.c`` reserves for allocation-failure exits.

Exit status: 0 covered, 1 uncovered lines, 2 no usable counters.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

#: How core.c writes an allocation-failure exit.
ALLOCATION_EXIT = "goto done;"


def coverage(gcov_text: str) -> Tuple[int, int, List[Tuple[int, str]]]:
    """(executable lines, unexecuted allocation-failure exits, other
    unexecuted lines) of one source in ``gcov --stdout`` format."""
    executable = allowed = 0
    missed = []
    for row in gcov_text.splitlines():
        parts = row.split(":", 2)
        if len(parts) < 3:
            continue
        count, line, source = parts[0].strip(), parts[1].strip(), parts[2]
        if count == "-" or not line.isdigit() or line == "0":
            continue
        executable += 1
        if count != "#####":
            continue
        if source.rstrip().endswith(ALLOCATION_EXIT):
            allowed += 1
        else:
            missed.append((int(line), source.strip()))
    return executable, allowed, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "cache", nargs="?", default=os.environ.get("REPRO_NATIVE_CACHE"),
        help="the REPRO_NATIVE_CACHE the coverage build used",
    )
    args = parser.parse_args(argv)
    if not args.cache:
        print("name the kernel cache directory", file=sys.stderr)
        return 2
    counters = sorted(Path(args.cache).glob("*.gcda"))
    if len(counters) != 1:
        print(f"expected one kernel coverage build in {args.cache}, "
              f"found {len(counters)} .gcda files", file=sys.stderr)
        return 2
    result = subprocess.run(
        ["gcov", "--stdout", counters[0].name],
        cwd=str(counters[0].parent), capture_output=True, text=True,
    )
    if result.returncode != 0 or not result.stdout.strip():
        print(f"gcov failed: {result.stderr.strip()}", file=sys.stderr)
        return 2
    executable, allowed, missed = coverage(result.stdout)
    if not executable:
        print("gcov reported no executable lines", file=sys.stderr)
        return 2
    run = executable - allowed - len(missed)
    print(f"core.c: {run} of {executable} executable lines run; "
          f"{allowed} unexecuted allocation-failure exits allowed")
    for line, source in missed:
        print(f"core.c:{line}: never executed: {source}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

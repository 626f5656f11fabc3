"""Line-coverage gate for the compiled kernel library.

Build the library with coverage counters into its own cache, run the
workload that must cover it, then check the counters::

    export REPRO_NATIVE_CFLAGS=--coverage REPRO_NATIVE_CACHE=/tmp/native-cov
    PYTHONPATH=src python -m repro diffcore --pairs 40 --seed 0
    PYTHONPATH=src python -m pytest tests/cpu/test_batched.py -q
    PYTHONPATH=src python -m pytest tests/workloads/test_synthetic.py -q
    python tools/check_kernel_coverage.py /tmp/native-cov

The counters (``.gcda``, one per source) land next to the library's
shared object.  The check runs ``gcov`` on each and fails, listing the
lines per source, when any executable line of a source in
``src/repro/cpu/_native`` never ran, except lines ending in
``goto done;``, which the kernel reserves for allocation-failure exits.

Exit status: 0 covered, 1 uncovered lines, 2 no usable counters.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: How the kernel writes an allocation-failure exit.
ALLOCATION_EXIT = "goto done;"

#: The library's sources: every one must have been built and run.
SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro" / "cpu" \
    / "_native"


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


def source_of(gcov_text: str) -> str:
    """The file name on the ``-: 0:Source:`` line of ``gcov`` output."""
    for row in gcov_text.splitlines():
        parts = row.split(":", 3)
        if len(parts) == 4 and parts[1].strip() == "0" \
                and parts[2] == "Source":
            return Path(parts[3].strip()).name
    return ""


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
    reports: Dict[str, str] = {}
    for counters in sorted(Path(args.cache).glob("*.gcda")):
        result = subprocess.run(
            ["gcov", "--stdout", counters.name],
            cwd=str(counters.parent), capture_output=True, text=True,
        )
        name = source_of(result.stdout)
        if result.returncode != 0 or not name:
            print(f"gcov failed on {counters.name}: "
                  f"{result.stderr.strip()}", file=sys.stderr)
            return 2
        if name in reports:
            print(f"more than one coverage build of {name} in "
                  f"{args.cache}", file=sys.stderr)
            return 2
        reports[name] = result.stdout
    expected = sorted(path.name for path in SOURCES.glob("*.c"))
    absent = [name for name in expected if name not in reports]
    if absent:
        print(f"no coverage counters for {', '.join(absent)} in "
              f"{args.cache}", file=sys.stderr)
        return 2
    status = 0
    for name in expected:
        executable, allowed, missed = coverage(reports[name])
        if not executable:
            print(f"gcov reported no executable lines in {name}",
                  file=sys.stderr)
            return 2
        run = executable - allowed - len(missed)
        print(f"{name}: {run} of {executable} executable lines run; "
              f"{allowed} unexecuted allocation-failure exits allowed")
        for line, source in missed:
            print(f"{name}:{line}: never executed: {source}")
        status = status or (1 if missed else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())

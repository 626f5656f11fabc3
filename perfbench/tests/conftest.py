"""Make the repository sources and the benchmark modules importable."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
os.environ.setdefault("REPRO_NATIVE_CACHE",
                      str(ROOT / ".bench_build" / "native"))
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

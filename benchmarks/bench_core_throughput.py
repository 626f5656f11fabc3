"""Single-simulation throughput: the compiled kernel vs the reference.

The tentpole claim of the compiled core is quantitative —
``core="batched-native"`` must be at least 10x faster than the
interpreted reference model on a single simulation — and this module
is where the claim is measured and enforced.  Rates are instructions
per second of a full ``simulate()`` call (decode, warmup and stats
included, best of a few repeats so scheduler noise only ever helps).

The floor times ``batched-native``, which refuses to run without the
kernel, so it can only ever measure the kernel.  On a host with no C
toolchain the test is skipped: ``batched`` then runs the reference
model itself, and there is no speed claim to check.  The measured
rates are printed, so a benchmark session log doubles as a throughput
record alongside the ``BENCH_<label>.json`` manifests.
"""

import time

import pytest

from repro.cpu import MachineConfig, simulate
from repro.workloads import benchmark_trace

#: One simulation's trace length: long enough that per-call fixed
#: costs (machine build, decode) do not dominate either core.
LENGTH = 20_000

#: The tentpole acceptance floor for the compiled kernel.
SPEEDUP_FLOOR = 10.0


def _native_available() -> bool:
    from repro.cpu.native import _load

    return _load() is not None


def _rate(core: str, trace, repeats: int = 3) -> float:
    """Best observed instructions/second for one core."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        stats = simulate(MachineConfig(), trace, warmup=True,
                         core=core)
        elapsed = time.perf_counter() - start
        best = max(best, stats.instructions / elapsed)
    return best


@pytest.fixture(scope="module")
def throughput_trace():
    return benchmark_trace("gzip", LENGTH)


def test_batched_is_10x_reference(throughput_trace):
    if not _native_available():
        pytest.skip("no C toolchain: the 10x floor is a compiled-"
                    "kernel claim")
    reference = _rate("reference", throughput_trace)
    kernel = _rate("batched-native", throughput_trace)
    speedup = kernel / reference
    print(f"\nreference: {reference:,.0f} instr/s   "
          f"batched-native: {kernel:,.0f} instr/s   "
          f"speedup: {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"the kernel is only {speedup:.1f}x the reference "
        f"({kernel:,.0f} vs {reference:,.0f} instr/s); the "
        f"acceptance floor is {SPEEDUP_FLOOR}x"
    )


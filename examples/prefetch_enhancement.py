"""Section 4.3's motivating example, made concrete: data prefetching.

The paper motivates its enhancement-analysis method with a hypothetical
memory optimization: "if the L1 D-Cache size and associativity sharply
drop in significance due to an enhancement, it is reasonable to
conclude that that particular enhancement does a good job of improving
memory performance".  Here we run that exact study with a next-2-line
data prefetcher on memory-streaming benchmarks and read off the rank
signature.

Runtime: ~1 minute.

Run:  python examples/prefetch_enhancement.py
"""

from repro.core import analyze_enhancement
from repro.reporting import render_enhancement
from repro.workloads import benchmark_trace


def main():
    names = ["art", "equake", "ammp", "mcf"]
    traces = {name: benchmark_trace(name, 3000) for name in names}

    print("running the PB experiment without, then with, a next-2-line "
          "data prefetcher ...")
    analysis, before, after = analyze_enhancement(traces, prefetch_lines=2)

    speedup = {
        n: sum(before.responses[n]) / sum(after.responses[n])
        for n in names
    }
    print("\nmean speedup across all 88 configurations:")
    for n, s in speedup.items():
        print(f"  {n:8s}: {s:.3f}x")

    print()
    print(render_enhancement(
        analysis, top=12,
        title="Sum-of-ranks shifts under prefetching "
              "(positive = less significant)",
    ))

    shifts = {s.factor: s.shift for s in analysis.shifts()}
    memory_factors = [
        "L1 D-Cache Size", "L1 D-Cache Latency", "L1 D-Cache Block Size",
        "Memory Latency First",
    ]
    relieved = [f for f in memory_factors if shifts[f] > 0]
    print("\nmemory-side parameters relieved by prefetching:", relieved)
    print("(the signature the paper's Section 4.3 example predicts)")


if __name__ == "__main__":
    main()

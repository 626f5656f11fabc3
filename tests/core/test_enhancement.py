"""Tests for enhancement analysis (repro.core.enhancement).

A reduced-size §4.3 study (instruction precomputation, subset of
factors, short traces) must reproduce the paper's qualitative
conclusion: the Int-ALU parameter loses significance.
"""

import numpy as np
import pytest

from repro.core import EnhancementAnalysis, PBExperiment, analyze_enhancement
from repro.core.parameter_selection import ranking_from_rank_table
from repro.cpu import build_precompute_table
from repro.guard import faults
from repro.workloads import benchmark_suite, benchmark_trace


def ranking_of(grid, factors, benchmarks):
    return ranking_from_rank_table(factors, benchmarks, np.asarray(grid))


class TestFactorShift:
    def test_shift_sign_convention(self):
        before = ranking_of([[1], [2], [3]], ["a", "b", "c"], ["x"])
        after = ranking_of([[3], [2], [1]], ["a", "b", "c"], ["x"])
        analysis = EnhancementAnalysis(before, after)
        shifts = {s.factor: s for s in analysis.shifts()}
        assert shifts["a"].shift == +2    # a became less significant
        assert shifts["c"].shift == -2
        assert shifts["b"].shift == 0

    def test_shifts_sorted_by_magnitude(self):
        before = ranking_of([[1], [2], [3], [4]], list("abcd"), ["x"])
        after = ranking_of([[4], [2], [3], [1]], list("abcd"), ["x"])
        shifts = EnhancementAnalysis(before, after).shifts()
        assert abs(shifts[0].shift) >= abs(shifts[-1].shift)


    def test_rankings_over_different_benchmarks_rejected(self):
        before = ranking_of([[1, 2], [2, 1]], ["a", "b"], ["x", "y"])
        after = ranking_of([[1], [2]], ["a", "b"], ["x"])
        with pytest.raises(ValueError, match="same benchmarks"):
            EnhancementAnalysis(before, after)


class TestStability:
    def test_stable_when_unchanged(self):
        r = ranking_of([[1], [2], [3], [30]], list("abcd"), ["x"])
        assert EnhancementAnalysis(r, r).significant_set_stable()

    def test_unstable_when_set_changes(self):
        before = ranking_of([[1], [2], [30], [31]], list("abcd"), ["x"])
        after = ranking_of([[1], [30], [2], [31]], list("abcd"), ["x"])
        assert not EnhancementAnalysis(before, after) \
            .significant_set_stable()


@pytest.mark.slow
class TestEndToEnd:
    """A reduced instruction-precomputation study on the simulator."""

    FACTORS = [
        "Reorder Buffer Entries", "Int ALUs", "L2 Cache Latency",
        "BPred Type", "L1 D-Cache Size", "Memory Latency First",
        "Int ALU Latencies",
    ]

    @pytest.fixture(scope="class")
    def study(self):
        traces = {
            name: benchmark_trace(name, 4000)
            for name in ("gzip", "bzip2", "vortex")
        }
        from repro.core.enhancement import analyze_enhancement
        from repro.core.experiment import PBExperiment
        from repro.core.parameter_selection import (
            rank_parameters_from_result,
        )

        tables = {
            name: build_precompute_table(trace, 128)
            for name, trace in traces.items()
        }
        before = PBExperiment(traces, parameter_names=self.FACTORS).run()
        after = PBExperiment(
            traces, parameter_names=self.FACTORS,
            precompute_tables=tables,
        ).run()
        return EnhancementAnalysis(
            rank_parameters_from_result(before),
            rank_parameters_from_result(after),
        ), before, after

    def test_enhancement_speeds_up_runs(self, study):
        _, before, after = study
        for bench in before.benchmarks:
            total_before = sum(before.responses[bench])
            total_after = sum(after.responses[bench])
            assert total_after < total_before, bench

    def test_int_alus_lose_significance(self, study):
        """The paper's Table 12 observation on our substrate."""
        analysis, _, _ = study
        shifts = {s.factor: s.shift for s in analysis.shifts()}
        assert shifts["Int ALUs"] > 0

    def test_rob_stays_dominant(self, study):
        analysis, _, _ = study
        assert analysis.after.rank_of(
            "Reorder Buffer Entries", "gzip") <= 3


class TestAnalyzeEnhancementApi:
    def test_end_to_end_on_subset(self):
        """analyze_enhancement builds tables by default and returns
        both raw experiments alongside the analysis."""
        traces = {"gzip": benchmark_trace("gzip", 1500)}
        factors = ["Reorder Buffer Entries", "Int ALUs", "BPred Type"]
        analysis, before, after = analyze_enhancement(
            traces, parameter_names=factors,
        )
        assert isinstance(analysis, EnhancementAnalysis)
        assert before.design.n_runs == 8   # X = 4, foldover
        assert set(before.responses) == {"gzip"}
        assert sum(after.responses["gzip"]) < sum(before.responses["gzip"])

    def test_explicit_tables_respected(self):
        traces = {"gzip": benchmark_trace("gzip", 1500)}
        factors = ["Reorder Buffer Entries", "Int ALUs", "BPred Type"]
        empty_tables = {"gzip": frozenset()}
        analysis, before, after = analyze_enhancement(
            traces, parameter_names=factors,
            precompute_tables=empty_tables,
        )
        # An empty precomputation table cannot change any response.
        assert before.responses == after.responses

    def test_prefetch_and_precompute_tables_are_exclusive(self):
        traces = {"gzip": benchmark_trace("gzip", 300)}
        with pytest.raises(ValueError, match="one enhancement"):
            analyze_enhancement(traces, prefetch_lines=2,
                                precompute_tables={"gzip": frozenset()})


class TestBothHalvesRanking:
    """A benchmark incomplete in either half drops out of both
    rankings, so every sum of ranks covers the same benchmarks."""

    def test_failure_in_one_half_drops_the_benchmark_from_both(
            self, tmp_path):
        traces = benchmark_suite(length=400, names=["gzip", "mcf"])
        journal = tmp_path / "study.journal"
        # The base grid is restored from the journal, so the injected
        # failure of task 0 (row 0 on gzip) hits only the after half.
        PBExperiment(traces).run(journal=journal)
        with faults.injected(faults.FaultInjector.from_spec(
                "raise:0:always")):
            analysis, before, after = analyze_enhancement(
                traces, journal=journal, on_error="skip")
        assert before.complete and set(before.effects) == {"gzip", "mcf"}
        assert after.failed_cells() == [(0, "gzip")]
        assert analysis.before.benchmarks == ("mcf",)
        assert analysis.after.benchmarks == ("mcf",)
        # Both sums are one-benchmark sums: each is mcf's own rank.
        shift = analysis.biggest_shift_among_significant()
        assert shift.sum_before == analysis.before.rank_of(
            shift.factor, "mcf")
        assert shift.sum_after == analysis.after.rank_of(
            shift.factor, "mcf")

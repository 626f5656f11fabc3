"""One-call replication: run everything, compare to the paper, report.

:func:`replicate` executes the paper's §4.1-§4.3 pipeline end to end
on the simulator (base PB screen, classification, precomputation
before/after), quantifies agreement against the bundled published
tables, and returns both the raw artifacts and a markdown report —
the programmatic backbone of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.workloads import (
    BENCHMARK_NAMES,
    Trace,
    benchmark_trace,
    default_length,
)

from .classification import distance_matrix, group_benchmarks
from .comparison import RankingComparison, compare_rankings
from .enhancement import EnhancementAnalysis, analyze_enhancement
from .experiment import PBExperimentResult
from .paper_data import paper_table9_ranking, paper_table12_ranking
from .parameter_selection import ParameterRanking


@dataclass
class ReplicationOutcome:
    """Everything :func:`replicate` produced."""

    table9: ParameterRanking
    table12: ParameterRanking
    enhancement: EnhancementAnalysis
    base_experiment: PBExperimentResult
    enhanced_experiment: PBExperimentResult
    table9_vs_paper: RankingComparison
    table12_vs_paper: RankingComparison

    def headline_checks(self) -> Dict[str, bool]:
        """The paper's headline conclusions, as booleans on our data."""
        factors = list(self.table9.factors)
        shifts = {s.factor: s.shift for s in self.enhancement.shifts()}
        speedup_ok = all(
            sum(self.enhanced_experiment.responses[b])
            < sum(self.base_experiment.responses[b])
            for b in self.base_experiment.benchmarks
        )
        return {
            "rob_in_top3": factors.index("Reorder Buffer Entries") <= 2,
            "l2_latency_in_top3": factors.index("L2 Cache Latency") <= 2,
            "dummies_insignificant": (
                factors.index("Dummy Factor #1") >= 21
                and factors.index("Dummy Factor #2") >= 21
            ),
            "int_alus_relieved_by_precomputation":
                shifts["Int ALUs"] > 0,
            "precomputation_speeds_up_every_benchmark": speedup_ok,
            "top_of_table_stable_under_enhancement": (
                set(self.table9.top(5)) <= set(self.table12.top(8))
            ),
        }

    def report(self) -> str:
        """A markdown summary of the replication."""
        from repro.reporting import enhancement_markdown, ranking_markdown

        checks = self.headline_checks()
        lines = [
            "# Replication report",
            "",
            "## Headline conclusions",
            "",
        ]
        for name, ok in checks.items():
            mark = "PASS" if ok else "FAIL"
            lines.append(f"- `{name}`: **{mark}**")
        lines += [
            "",
            "## Agreement with the paper",
            "",
            "Table 9 analogue vs published Table 9:",
            "",
            "```",
            self.table9_vs_paper.summary(),
            "```",
            "",
            "Table 12 analogue vs published Table 12:",
            "",
            "```",
            self.table12_vs_paper.summary(),
            "```",
            "",
            "## Measured Table 9 analogue (top 12)",
            "",
            ranking_markdown(self.table9, top=12),
            "",
            "## Enhancement shifts (top 10)",
            "",
            enhancement_markdown(self.enhancement, top=10),
            "",
        ]
        return "\n".join(lines)


def replicate(
    traces: Optional[Mapping[str, Trace]] = None,
    *,
    scale: float = 5.0,
    table_entries: int = 128,
    progress=None,
    **options,
) -> ReplicationOutcome:
    """Run the full replication pipeline.

    Parameters
    ----------
    traces:
        benchmark -> trace; defaults to the full 13-benchmark suite at
        Table 5-proportional lengths (``scale`` instructions per paper
        million).
    table_entries:
        Precomputation-table size for the §4.3 study.
    options:
        :class:`repro.exec.ExecOptions` fields (plus ``telemetry``),
        passed untouched to :func:`analyze_enhancement`.
    """
    if traces is None:
        traces = {
            name: benchmark_trace(name, default_length(name, scale))
            for name in BENCHMARK_NAMES
        }
    analysis, base, enhanced = analyze_enhancement(
        traces, table_entries=table_entries, progress=progress,
        **options,
    )
    table9, table12 = analysis.before, analysis.after
    return ReplicationOutcome(
        table9=table9,
        table12=table12,
        enhancement=analysis,
        base_experiment=base,
        enhanced_experiment=enhanced,
        table9_vs_paper=compare_rankings(table9, paper_table9_ranking()),
        table12_vs_paper=compare_rankings(
            table12, paper_table12_ranking()
        ),
    )

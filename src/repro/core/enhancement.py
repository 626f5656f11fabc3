"""Post-simulation methodology: analysing a processor enhancement (§4.3).

Run the same Plackett-Burman design twice — once on the base machine
(Table 9), once with the enhancement enabled (Table 12) — and compare
each parameter's sum of ranks.  A parameter whose sum *rises* has been
relieved by the enhancement (its resource matters less); a falling sum
marks new pressure.  The paper's example: instruction precomputation
raises the Int ALUs sum from 118 to 137, the largest move among the
significant parameters, because precomputed instructions skip the ALUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cpu import MachineConfig, build_precompute_table
from repro.obs.telemetry import phase_of
from repro.workloads import Trace

from .experiment import PBExperiment, PBExperimentResult
from .parameter_selection import (
    ParameterRanking,
    rank_parameters_from_result,
)


@dataclass(frozen=True)
class FactorShift:
    """How one parameter's significance moved under the enhancement."""

    factor: str
    sum_before: int
    sum_after: int

    @property
    def shift(self) -> int:
        """Positive = the parameter became *less* significant."""
        return self.sum_after - self.sum_before


@dataclass(frozen=True)
class EnhancementAnalysis:
    """The before/after comparison of §4.3 in object form."""

    before: ParameterRanking
    after: ParameterRanking

    def shifts(self) -> List[FactorShift]:
        """Per-factor sum-of-ranks movement, largest |shift| first."""
        out = [
            FactorShift(
                factor,
                self.before.sum_of(factor),
                self.after.sum_of(factor),
            )
            for factor in self.before.factors
        ]
        out.sort(key=lambda s: (-abs(s.shift), s.factor))
        return out

    def biggest_shift_among_significant(self) -> FactorShift:
        """The paper's headline observation, computed.

        Restricting to the significant set (per the before-ranking's
        gap) mirrors the paper's reading of Table 12: among parameters
        that matter, which did the enhancement move the most?
        """
        significant = set(self.before.significant_factors())
        candidates = [s for s in self.shifts() if s.factor in significant]
        if not candidates:
            raise ValueError("no significant factors to compare")
        return candidates[0]

    def significant_set_stable(self) -> bool:
        """True if the enhancement left the *set* of significant
        parameters unchanged (the paper's first conclusion).

        The comparison is set-wise over the same number of parameters:
        the paper notes ordering changes but membership stability.
        """
        k = len(self.before.significant_factors())
        return set(self.before.top(k)) == set(self.after.top(k))


def analyze_enhancement(
    traces: Mapping[str, Trace],
    *,
    base_config: MachineConfig = MachineConfig(),
    table_entries: int = 128,
    precompute_tables: Optional[Mapping[str, Set[int]]] = None,
    parameter_names=None,
    progress=None,
    telemetry=None,
    **options,
) -> Tuple[EnhancementAnalysis, PBExperimentResult, PBExperimentResult]:
    """Run the full §4.3 study: PB before and after precomputation.

    ``precompute_tables`` may be supplied directly (for enhancements
    other than instruction precomputation, any benchmark -> key-set
    mapping); by default the tables are built from each trace's
    redundancy profile with ``table_entries`` entries, as in the paper.

    ``options`` (:class:`repro.exec.ExecOptions`) go untouched to both
    experiment runs.  With a persistent cache, the "before" half of
    the study shares keys with any previous base-machine screen of the
    same traces and is not re-simulated; a single journal file
    checkpoints the whole 2 x 88-run study, because entries are
    content-keyed (the "before" and "after" grids never collide).
    Rank comparison requires complete effect tables, so a benchmark
    with skipped cells drops out of both rankings.

    ``telemetry`` wraps the halves in ``enhance-before`` /
    ``enhance-after`` phase spans (plus ``precompute-tables`` around
    profile building) and flows into both experiment runs.

    Returns the analysis plus both raw experiment results.
    """
    if precompute_tables is None:
        with phase_of(telemetry, "precompute-tables",
                      entries=table_entries):
            precompute_tables = {
                name: build_precompute_table(trace, table_entries)
                for name, trace in traces.items()
            }
    kwargs = {}
    if parameter_names is not None:
        kwargs["parameter_names"] = parameter_names
    with phase_of(telemetry, "enhance-before"):
        before = PBExperiment(
            traces, base_config=base_config, progress=progress,
            **kwargs
        ).run(telemetry=telemetry, **options)
    with phase_of(telemetry, "enhance-after"):
        after = PBExperiment(
            traces,
            base_config=base_config,
            precompute_tables=precompute_tables,
            progress=progress,
            **kwargs,
        ).run(telemetry=telemetry, **options)
    analysis = EnhancementAnalysis(
        rank_parameters_from_result(before),
        rank_parameters_from_result(after),
    )
    return analysis, before, after

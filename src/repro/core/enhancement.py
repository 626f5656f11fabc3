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
from typing import List, Mapping, Optional, Sequence, Set, Tuple

from repro.cpu import PARAMETER_NAMES, MachineConfig, build_precompute_table
from repro.obs.telemetry import phase_of
from repro.workloads import Trace

from .experiment import PBExperiment, PBExperimentResult
from .parameter_selection import ParameterRanking, rank_parameters


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

    def __post_init__(self):
        if self.before.benchmarks != self.after.benchmarks:
            raise ValueError("before and after must rank the same "
                             f"benchmarks: {self.before.benchmarks} vs "
                             f"{self.after.benchmarks}")

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
    prefetch_lines: int = 0,
    parameter_names: Sequence[str] = PARAMETER_NAMES,
    core: str = "batched",
    progress=None,
    telemetry=None,
    **options,
) -> Tuple[EnhancementAnalysis, PBExperimentResult, PBExperimentResult]:
    """Run the full §4.3 study: PB before and after one enhancement.
    Returns the analysis plus both raw experiment results.

    The enhancement is instruction precomputation, or next-N-line data
    prefetching when ``prefetch_lines > 0`` (not both: a study tests
    one enhancement).  ``precompute_tables`` may be supplied directly
    (any benchmark -> key-set mapping); by default the tables are
    built from each trace's redundancy profile with ``table_entries``
    entries, as in the paper.  ``core`` is both halves' simulator core.

    ``options`` (:class:`repro.exec.ExecOptions`) are resolved once
    for both runs.  With a persistent cache, the "before" half shares
    keys with any previous base-machine screen of the same traces; one
    journal checkpoints the whole content-keyed 2 x 88-run study.
    Ranking needs complete effect tables, so a benchmark with skipped
    cells in either half drops out of both rankings.  ``telemetry``
    opens the phases ``precompute-tables`` (when the tables are built
    here), ``enhance-before``, ``enhance-after`` and ``rank``.
    """
    from repro.exec.engine import _Resolved

    if prefetch_lines > 0 and precompute_tables is not None:
        raise ValueError("a study tests one enhancement: pass "
                         "precompute_tables or prefetch_lines, not both")
    if prefetch_lines <= 0 and precompute_tables is None:
        with phase_of(telemetry, "precompute-tables",
                      entries=table_entries):
            precompute_tables = {
                name: build_precompute_table(trace, table_entries)
                for name, trace in traces.items()
            }
    kwargs = dict(base_config=base_config, parameter_names=parameter_names,
                  core=core, progress=progress)
    with _Resolved(options) as resolved:
        with phase_of(telemetry, "enhance-before"):
            before = PBExperiment(traces, **kwargs) \
                .run(telemetry=telemetry, **vars(resolved))
        with phase_of(telemetry, "enhance-after"):
            after = PBExperiment(
                traces, precompute_tables=precompute_tables,
                prefetch_lines=prefetch_lines, **kwargs,
            ).run(telemetry=telemetry, **vars(resolved))
    with phase_of(telemetry, "rank"):
        common = [b for b in before.effects if b in after.effects]
        analysis = EnhancementAnalysis(
            rank_parameters({b: before.effects[b] for b in common}),
            rank_parameters({b: after.effects[b] for b in common}),
        )
    return analysis, before, after

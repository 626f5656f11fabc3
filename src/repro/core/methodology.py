"""The paper's recommended end-to-end workflow (§4.1, steps 1-4).

    1. Determine the critical processor parameters with a
       Plackett-Burman design (choose just-outside-normal low/high
       values, run, rank).
    2. Choose reasonable values for the non-critical parameters from
       commercial processors (here: the library defaults).
    3. Perform a full-factorial ANOVA sensitivity analysis over
       reasonable ranges of the critical parameters.
    4. Choose final values for the critical parameters from the
       sensitivity results.

This module wires those steps into one callable pipeline so the
"methodology" is itself a tested, runnable artifact rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cpu import MachineConfig, config_from_levels
from repro.cpu.params import parameter_spec
from repro.doe import AnovaResult, anova, full_factorial_design
from repro.exec import grid_tasks, run_grid
from repro.obs.telemetry import phase_of
from repro.workloads import Trace

from .experiment import PBExperiment
from .parameter_selection import ParameterRanking, rank_parameters_from_result


@dataclass(frozen=True)
class SensitivityStudy:
    """Step 3's output: a per-benchmark ANOVA over the critical set."""

    factors: Tuple[str, ...]
    anovas: Dict[str, AnovaResult]

    def mean_variation(self) -> Dict[str, float]:
        """Average share of variation each effect explains across
        benchmarks — the quantity used to pick final values."""
        totals: Dict[str, float] = {}
        for result in self.anovas.values():
            for row in result.rows:
                totals[row.label] = totals.get(row.label, 0.0) \
                    + row.variation_fraction
        n = len(self.anovas)
        return {k: v / n for k, v in totals.items()}


@dataclass(frozen=True)
class WorkflowResult:
    """Everything the four-step workflow produced."""

    ranking: ParameterRanking
    critical: Tuple[str, ...]
    sensitivity: SensitivityStudy
    final_config: MachineConfig


def sensitivity_analysis(
    traces: Mapping[str, Trace],
    factors: Sequence[str],
    base_config: MachineConfig = MachineConfig(),
    *,
    telemetry=None,
    **options,
) -> SensitivityStudy:
    """Full-factorial ANOVA (step 3) over a small set of factors.

    Each factor's low/high values are its Plackett-Burman values; the
    2^k design quantifies all their interactions (which the PB screen
    could not), per Table 1's "Full Multifactorial" row.  The 2^k x
    benchmarks grid runs through :func:`repro.exec.run_grid`, which
    takes ``options`` (:class:`repro.exec.ExecOptions`) untouched.
    ANOVA needs the complete 2^k column, so
    under ``on_error="skip"`` a benchmark with a permanently failed
    cell is dropped from the study (all benchmarks failing raises).
    """
    factors = list(factors)
    if len(factors) > 6:
        raise ValueError(
            "a full factorial over more than 6 parameters is the cost "
            "explosion Table 1 warns about; screen with PB first"
        )
    design = full_factorial_design(factor_names=factors)
    configs = [
        config_from_levels(levels, base_config)
        for levels in design.runs()
    ]
    with phase_of(telemetry, "sensitivity", factors=len(factors)):
        grid = run_grid(grid_tasks(configs, traces),
                        telemetry=telemetry, **options)
    benchmarks = list(traces)
    anovas: Dict[str, AnovaResult] = {}
    for j, bench in enumerate(benchmarks):
        cells = [
            grid[i * len(benchmarks) + j] for i in range(len(configs))
        ]
        if any(stats is None for stats in cells):
            continue
        responses = [[float(stats.cycles)] for stats in cells]
        anovas[bench] = anova(design, responses)
    if not anovas:
        raise ValueError(
            "every benchmark had a permanently failed cell; "
            "no complete 2^k column to analyse"
        )
    return SensitivityStudy(tuple(factors), anovas)


def choose_final_values(
    ranking: ParameterRanking,
    sensitivity: SensitivityStudy,
    base_config: MachineConfig = MachineConfig(),
    variation_threshold: float = 0.05,
) -> MachineConfig:
    """Step 4: pick final values for the critical parameters.

    The decision rule encoded here: a critical parameter whose main
    effect explains at least ``variation_threshold`` of the variation
    is set to its *high* (generous) value so it cannot bottleneck later
    studies; the rest keep the base (commercial-range) defaults — the
    paper's "the others can be chosen with less caution".
    """
    variation = sensitivity.mean_variation()
    levels: Dict[str, int] = {}
    for factor in sensitivity.factors:
        if variation.get(factor, 0.0) >= variation_threshold:
            levels[factor] = 1
    return config_from_levels(levels, base_config)


def recommended_workflow(
    traces: Mapping[str, Trace],
    *,
    base_config: MachineConfig = MachineConfig(),
    max_critical: int = 4,
    progress=None,
    telemetry=None,
    **options,
) -> WorkflowResult:
    """Run the paper's full four-step parameter-selection workflow.

    ``max_critical`` caps how many of the PB-critical parameters enter
    the full-factorial step (2^k cost); the paper's own gap rule picks
    the candidates, the cap keeps the factorial tractable.  ``options``
    (:class:`repro.exec.ExecOptions`) are resolved once and shared by
    the screen and the factorial; one journal file checkpoints the
    whole workflow since entries are content-keyed.
    """
    from repro.exec.engine import _Resolved

    experiment = PBExperiment(
        traces, base_config=base_config, progress=progress
    )
    with _Resolved(options) as resolved:
        ranking = rank_parameters_from_result(
            experiment.run(telemetry=telemetry, **vars(resolved))
        )
        # Only real machine parameters can enter the factorial (a
        # dummy factor in the critical set would indicate a broken
        # experiment).
        critical = [f for f in ranking.significant_factors()[:max_critical]
                    if _is_real_parameter(f)]
        sensitivity = sensitivity_analysis(
            traces, critical, base_config, telemetry=telemetry,
            **vars(resolved))
    final_config = choose_final_values(ranking, sensitivity, base_config)
    return WorkflowResult(
        ranking, tuple(critical), sensitivity, final_config
    )


def _is_real_parameter(name: str) -> bool:
    try:
        parameter_spec(name)
        return True
    except KeyError:
        return False

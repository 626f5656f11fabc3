"""Running a Plackett-Burman experiment against the simulator.

This is the glue of the whole methodology: build the foldover PB design
over the 41 processor parameters (+ dummy columns), translate every
design row into a concrete :class:`~repro.cpu.params.MachineConfig`,
simulate every (configuration, benchmark) pair, and hand the cycle
counts to the effect/ranking machinery of :mod:`repro.doe`.

The response variable is the execution time in cycles, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cpu import MachineConfig, config_from_levels
from repro.cpu.params import PARAMETER_NAMES
from repro.doe import DesignMatrix, EffectTable, compute_effects, pb_design
from repro.exec import FailureRecord, grid_tasks, run_grid
from repro.obs.telemetry import phase_of
from repro.workloads import Trace


def build_design(
    parameter_names: Sequence[str] = PARAMETER_NAMES,
    *,
    foldover: bool = True,
) -> DesignMatrix:
    """The experiment design for a set of parameters.

    With the paper's 41 parameters this is the X = 44 design with two
    dummy columns; ``foldover=True`` (the paper's choice) doubles it to
    88 runs.
    """
    return pb_design(factor_names=list(parameter_names), foldover=foldover)


@dataclass(frozen=True)
class CellFailure:
    """One permanently failed (design row, benchmark) cell.

    Names the cell in experiment terms — which configuration row of
    the design, which benchmark — and carries the engine's structured
    :class:`~repro.exec.FailureRecord` post-mortem.
    """

    row: int
    benchmark: str
    record: FailureRecord

    def describe(self) -> str:
        return (
            f"design row {self.row} on {self.benchmark}: "
            f"{self.record.describe()}"
        )


@dataclass
class PBExperimentResult:
    """Everything one PB experiment produced.

    Attributes
    ----------
    design:
        The design that was run.
    responses:
        benchmark -> list of cycle counts, one per design row.  Under
        ``on_error="skip"`` a permanently failed cell is ``None``.
    effects:
        benchmark -> :class:`EffectTable` over all design columns
        (including dummy factors).  Only benchmarks with a complete
        response column get a table: effects over a column with holes
        would be silently wrong, so incomplete benchmarks are listed
        in :attr:`failures` instead.
    failures:
        Permanently failed cells (empty unless the experiment ran
        with ``on_error="skip"`` and a cell exhausted its retries).
    """

    design: DesignMatrix
    responses: Dict[str, List[Optional[float]]]
    effects: Dict[str, EffectTable] = field(default_factory=dict)
    failures: List[CellFailure] = field(default_factory=list)

    def __post_init__(self):
        if not self.effects:
            self.effects = {
                bench: compute_effects(self.design, rows)
                for bench, rows in self.responses.items()
                if all(value is not None for value in rows)
            }

    @property
    def benchmarks(self) -> List[str]:
        return list(self.responses.keys())

    @property
    def complete(self) -> bool:
        """True when every cell of the grid produced a response."""
        return not self.failures

    def failed_cells(self) -> List[Tuple[int, str]]:
        """(design row, benchmark) of every permanently failed cell."""
        return [(f.row, f.benchmark) for f in self.failures]

    def ranks(self) -> Dict[str, Dict[str, int]]:
        """benchmark -> {factor: rank} (1 = most significant)."""
        return {b: t.ranks() for b, t in self.effects.items()}


class PBExperiment:
    """A configured Plackett-Burman screening experiment.

    Parameters
    ----------
    traces:
        benchmark name -> :class:`Trace` to simulate.
    base_config:
        Values for everything the design does not vary.
    parameter_names:
        The factors to vary (defaults to the paper's 41).
    foldover:
        Use the foldover design (the paper always does).
    precompute_tables:
        Optional benchmark -> redundancy-key set enabling the
        instruction-precomputation enhancement for the "after" run of
        an enhancement analysis.
    prefetch_lines:
        Next-N-line data prefetching (0 = off) — the second modelled
        enhancement, usable for §4.3-style analyses.
    response:
        Optional ``(stats, config) -> float`` turning a finished run
        into the response value; defaults to the cycle count (the
        paper's choice).  ``repro.cpu.power.energy_response`` screens
        on energy instead — the extension the paper's introduction
        motivates.
    core:
        Simulator core to run every cell on
        (:data:`repro.cpu.SIMULATOR_CORES`; default ``"batched"``).
        All cores are field-exact equivalent, so this changes wall
        time, never ranks.
    progress:
        Optional callback ``(done, total)`` for long runs.
    """

    def __init__(
        self,
        traces: Mapping[str, Trace],
        *,
        base_config: MachineConfig = MachineConfig(),
        parameter_names: Sequence[str] = PARAMETER_NAMES,
        foldover: bool = True,
        precompute_tables: Optional[Mapping[str, Set[int]]] = None,
        prefetch_lines: int = 0,
        response: Optional[Callable[..., float]] = None,
        core: str = "batched",
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        if not traces:
            raise ValueError("need at least one benchmark trace")
        self.traces = dict(traces)
        self.base_config = base_config
        self.design = build_design(parameter_names, foldover=foldover)
        self.precompute_tables = dict(precompute_tables or {})
        self.prefetch_lines = prefetch_lines
        self.response = response
        self.core = core
        self.progress = progress

    def configs(self) -> List[MachineConfig]:
        """The concrete machine for every design row."""
        return [
            config_from_levels(levels, self.base_config)
            for levels in self.design.runs()
        ]

    def run(self, *, telemetry=None, **options) -> PBExperimentResult:
        """Simulate every (row, benchmark) pair; return all results.

        ``options`` are the engine's (:class:`repro.exec.ExecOptions`:
        jobs, cache, journal, fault tolerance, audit, distribution)
        and go to :func:`repro.exec.run_grid` untouched.  Results are
        ordered by design row regardless of completion order, so
        responses, effects and ranks are identical to a serial run.
        The response function is applied in the calling process, so it
        may be any callable (closures included).  Under
        ``on_error="skip"`` a permanently failed cell leaves ``None``
        in its response column and a :class:`CellFailure` in the
        result's ``failures``; effects are computed only for
        benchmarks whose column is complete.

        ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) adds
        coarse phase spans — ``pb-design`` around task construction,
        ``pb-analyze`` around response extraction and effect
        computation — and flows into :func:`repro.exec.run_grid` for
        the task-level lifecycle.  Strictly observational: results are
        bit-identical with it on or off.
        """
        with phase_of(telemetry, "pb-design",
                      rows=self.design.n_runs,
                      benchmarks=len(self.traces)):
            configs = self.configs()
            tasks = grid_tasks(
                configs, self.traces,
                precompute_tables=self.precompute_tables,
                prefetch_lines=self.prefetch_lines,
                core=self.core,
            )
        grid = run_grid(
            tasks,
            # run_grid invokes progress callbacks in the calling
            # process only; the bound method never travels to workers.
            progress=self.progress,  # repro: noqa[REP004] -- parent-side callback
            telemetry=telemetry, **options,
        )
        with phase_of(telemetry, "pb-analyze"):
            benches = list(self.traces)
            responses: Dict[str, List[Optional[float]]] = \
                {b: [] for b in benches}
            index = 0
            for config in configs:
                for bench in benches:
                    stats = grid[index]
                    index += 1
                    if stats is None:
                        responses[bench].append(None)
                    elif self.response is None:
                        responses[bench].append(float(stats.cycles))
                    else:
                        responses[bench].append(
                            float(self.response(stats, config))
                        )
            failures = [
                CellFailure(
                    row=record.index // len(benches),
                    benchmark=benches[record.index % len(benches)],
                    record=record,
                )
                for record in grid.failures
            ]
            return PBExperimentResult(
                self.design, responses, failures=failures
            )

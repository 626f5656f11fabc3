"""Parameter sweeps and iterative value refinement (§4.1, steps 3-4).

After the PB screen names the critical parameters, the paper
recommends "iterative sets of sensitivity analyses so that the exact
interaction between key parameters can be accounted for when choosing
the final parameter values".  This module provides:

* :func:`sweep` — the classical one-parameter sensitivity curve
  (cycles vs value, per benchmark), run at an explicit base
  configuration so the operating point is a conscious choice rather
  than an accident;
* :func:`iterative_refinement` — the paper's loop: sweep each critical
  parameter in turn, fix it at the best measured value, and repeat
  with the updated base until no parameter moves (a coordinate-descent
  over the design space, with every step's evidence retained).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cpu import MachineConfig
from repro.exec import FailureRecord, ResultCache, grid_tasks, run_grid
from repro.obs.telemetry import phase_of
from repro.workloads import Trace


@dataclass(frozen=True)
class SweepResult:
    """Cycles for each swept value, per benchmark.

    Under ``on_error="skip"`` a permanently failed cell holds ``None``
    and is described in :attr:`failures`; aggregate methods then skip
    the affected swept values rather than inventing numbers for them.
    """

    field_name: str
    values: Tuple[object, ...]
    cycles: Dict[str, Tuple[Optional[int], ...]]  # benchmark -> cycles
    failures: Tuple[FailureRecord, ...] = ()

    def total_cycles(self) -> List[Optional[int]]:
        """Suite-total cycles per swept value.

        A value with any failed cell totals to ``None`` — a partial
        sum would make broken configurations look artificially cheap.
        """
        totals: List[Optional[int]] = []
        for i in range(len(self.values)):
            column = [rows[i] for rows in self.cycles.values()]
            totals.append(
                None if any(c is None for c in column) else sum(column)
            )
        return totals

    def best_value(self):
        """The swept value with the lowest suite-total cycle count.

        Values with failed cells are out of the running; if *every*
        value failed somewhere there is no defensible choice and this
        raises ``ValueError``.
        """
        totals = self.total_cycles()
        measured = [t for t in totals if t is not None]
        if not measured:
            raise ValueError(
                f"every swept value of {self.field_name} has a failed "
                "cell; nothing to choose from"
            )
        return self.values[totals.index(min(measured))]

    def table(self) -> str:
        width = max(
            [len("value")] + [len(str(v)) for v in self.values]
        )
        lines = [f"sweep of {self.field_name}"]
        header = f"  {'value':<{width}s}  " + "  ".join(
            f"{b:>10s}" for b in self.cycles
        )
        lines.append(header)
        for i, value in enumerate(self.values):
            row = f"  {str(value):<{width}s}  " + "  ".join(
                f"{self.cycles[b][i]:10d}"
                if self.cycles[b][i] is not None else f"{'failed':>10s}"
                for b in self.cycles
            )
            lines.append(row)
        return "\n".join(lines)


def sweep(
    traces: Mapping[str, Trace],
    field_name: str,
    values: Sequence[object],
    base_config: MachineConfig = MachineConfig(),
    *,
    linked: Optional[Mapping[object, Mapping[str, object]]] = None,
    telemetry=None,
    **options,
) -> SweepResult:
    """Measure cycles across values of one ``MachineConfig`` field.

    ``linked`` optionally maps a swept value to extra field overrides
    applied together with it (e.g. shrinking the LSQ along with the
    ROB to keep configurations legal).  The grid of (value, benchmark)
    cells goes to :func:`repro.exec.run_grid` with ``options``
    (:class:`repro.exec.ExecOptions`) untouched; under
    ``on_error="skip"`` a failed cell becomes ``None`` in the result
    and the affected value drops out of ``best_value()``.
    ``telemetry`` adds a ``sweep`` phase span naming the swept field
    and flows into the engine (see :class:`repro.obs.Telemetry`).
    """
    if not values:
        raise ValueError("need at least one value to sweep")
    configs = []
    for value in values:
        changes = {field_name: value}
        if linked and value in linked:
            changes.update(linked[value])
        configs.append(base_config.evolve(**changes))
    with phase_of(telemetry, "sweep", field=field_name,
                  values=len(values)):
        grid = run_grid(grid_tasks(configs, traces),
                        telemetry=telemetry, **options)
    cycles: Dict[str, List[Optional[int]]] = {b: [] for b in traces}
    index = 0
    for _ in configs:
        for bench in traces:
            stats = grid[index]
            cycles[bench].append(
                stats.cycles if stats is not None else None
            )
            index += 1
    return SweepResult(
        field_name=field_name,
        values=tuple(values),
        cycles={b: tuple(v) for b, v in cycles.items()},
        failures=tuple(grid.failures),
    )


@dataclass
class RefinementStep:
    """One coordinate step of the iterative refinement."""

    field_name: str
    sweep: SweepResult
    chosen: object


@dataclass
class RefinementResult:
    """Outcome of :func:`iterative_refinement`."""

    final_config: MachineConfig
    steps: List[RefinementStep] = field(default_factory=list)
    rounds: int = 0

    def chosen_values(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for step in self.steps:
            out[step.field_name] = step.chosen
        return out


def iterative_refinement(
    traces: Mapping[str, Trace],
    sweeps: Mapping[str, Sequence[object]],
    base_config: MachineConfig = MachineConfig(),
    *,
    max_rounds: int = 4,
    cache: Optional[ResultCache] = None,
    telemetry=None,
    **options,
) -> RefinementResult:
    """Fix each parameter at its best value, iterating to a fixed point.

    ``sweeps`` maps MachineConfig field names to candidate value lists.
    Each round sweeps every parameter against the *current* base (so
    interactions between the chosen values are honoured, per the
    paper's step 3) and pins it at its best value; rounds repeat until
    no choice changes or ``max_rounds`` is hit.

    Coordinate descent revisits configurations constantly (every round
    re-measures the incumbent value of every parameter), so the loop
    always runs against a result cache: the supplied ``cache``, or a
    process-local in-memory one when ``None``.

    The other ``options`` (:class:`repro.exec.ExecOptions`) are
    resolved once and shared by every underlying sweep; with
    ``on_error="skip"`` a value whose cell failed permanently simply
    cannot be chosen (see :meth:`SweepResult.best_value`), so one
    broken configuration cannot sink a whole refinement.
    ``telemetry`` wraps each round in a ``refinement-round`` phase
    span and flows into every sweep.
    """
    from repro.exec.engine import _Resolved

    if not sweeps:
        raise ValueError("need at least one parameter to refine")
    if cache is None:
        cache = ResultCache()
    config = base_config
    result = RefinementResult(final_config=config)
    previous: Dict[str, object] = {}
    with _Resolved(dict(options, cache=cache)) as resolved:
        for round_index in range(max_rounds):
            result.rounds = round_index + 1
            changed = False
            with phase_of(telemetry, "refinement-round",
                          round=round_index + 1):
                for field_name, values in sweeps.items():
                    outcome = sweep(
                        traces, field_name, values, config,
                        telemetry=telemetry, **vars(resolved),
                    )
                    chosen = outcome.best_value()
                    result.steps.append(
                        RefinementStep(field_name, outcome, chosen)
                    )
                    if previous.get(field_name) != chosen:
                        changed = True
                    previous[field_name] = chosen
                    config = config.evolve(**{field_name: chosen})
            if not changed:
                break
    result.final_config = config
    return result

"""Every grid entry point takes the engine's options the same way.

Each of the nine ways into :func:`repro.exec.run_grid` accepts any
:class:`repro.exec.ExecOptions` field and hands it on untouched, so
one journal path checkpoints any study and a second call restores
every cell.  The path is opened once per call, however many grids the
study runs, and closed on return; a caller's own journal stays open.
"""

import pytest

from repro.core import (
    EnhancementAnalysis,
    PBExperiment,
    analyze_enhancement,
    iterative_refinement,
    rank_parameters_from_result,
    recommended_workflow,
    replicate,
    replicated_suite,
    run_replicated,
    sensitivity_analysis,
    sweep,
)
from repro.core.comparison import compare_rankings
from repro.core.paper_data import (
    paper_table9_ranking,
    paper_table12_ranking,
)
from repro.cpu import MachineConfig, build_precompute_table
from repro.exec import Journal, grid_tasks, run_grid
from repro.obs import Telemetry
from repro.workloads import benchmark_trace

SUBSET = ["Reorder Buffer Entries", "LSQ Entries", "Int ALUs"]


@pytest.fixture(scope="module")
def traces():
    return {"gzip": benchmark_trace("gzip", 300)}


ENTRY_POINTS = {
    "run_grid": lambda traces, **options: run_grid(
        grid_tasks([MachineConfig(),
                    MachineConfig().evolve(rob_entries=32)], traces),
        **options),
    "PBExperiment.run": lambda traces, **options: PBExperiment(
        traces, parameter_names=SUBSET).run(**options),
    "sensitivity_analysis": lambda traces, **options:
        sensitivity_analysis(traces, SUBSET[:2], **options),
    "recommended_workflow": lambda traces, **options:
        recommended_workflow(traces, max_critical=2, **options),
    "sweep": lambda traces, **options: sweep(
        traces, "rob_entries", [32, 64], **options),
    "iterative_refinement": lambda traces, **options:
        iterative_refinement(traces, {"rob_entries": [32, 64]},
                             max_rounds=1, **options),
    "analyze_enhancement": lambda traces, **options:
        analyze_enhancement(traces, parameter_names=SUBSET, **options),
    "run_replicated": lambda traces, **options: run_replicated(
        replicated_suite(["gzip"], 300, 2), parameter_names=SUBSET,
        **options),
    "replicate": lambda traces, **options: replicate(traces, **options),
}


def _counter(telemetry, name):
    return telemetry.snapshot().get(name, {}).get("value", 0)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_journal_fills_then_restores_every_cell(entry, traces, tmp_path):
    call = ENTRY_POINTS[entry]
    path = tmp_path / "study.journal"

    first = Telemetry.armed(trace=False)
    call(traces, journal=path, telemetry=first)
    assert _counter(first, "tasks.simulated") > 0
    assert len(Journal(path)) > 0

    second = Telemetry.armed(trace=False)
    call(traces, journal=str(path), telemetry=second)
    assert _counter(second, "tasks.simulated") == 0
    assert _counter(second, "tasks.restored.journal") \
        == _counter(second, "tasks.completed") > 0


class _JournalLog:
    """Every :class:`Journal` constructed, and every ``close`` call,
    while the test runs."""

    def __init__(self, monkeypatch):
        self.opened, self.closed = [], []
        init, close = Journal.__init__, Journal.close

        def tracked_init(journal, *args, **kwargs):
            init(journal, *args, **kwargs)
            self.opened.append(journal)

        def tracked_close(journal):
            self.closed.append(journal)
            close(journal)

        monkeypatch.setattr(Journal, "__init__", tracked_init)
        monkeypatch.setattr(Journal, "close", tracked_close)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_journal_path_opens_one_journal_and_closes_it(
        entry, traces, tmp_path, monkeypatch):
    """Whoever turns a path into a Journal closes it: a study of any
    number of grids opens the path once, and closes it on return."""
    log = _JournalLog(monkeypatch)
    ENTRY_POINTS[entry](traces, journal=tmp_path / "study.journal")
    assert len(log.opened) == 1
    assert log.opened[0] in log.closed


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_caller_journal_is_left_open(entry, traces, tmp_path,
                                     monkeypatch):
    journal = Journal(tmp_path / "study.journal")
    log = _JournalLog(monkeypatch)
    ENTRY_POINTS[entry](traces, journal=journal)
    assert log.opened == [] and journal not in log.closed
    # Still the caller's to use: a rerun through it restores every cell.
    telemetry = Telemetry.armed(trace=False)
    ENTRY_POINTS[entry](traces, journal=journal, telemetry=telemetry)
    assert _counter(telemetry, "tasks.simulated") == 0
    assert _counter(telemetry, "tasks.restored.journal") > 0
    journal.close()


def test_unknown_option_is_a_type_error(traces):
    with pytest.raises(TypeError):
        PBExperiment(traces, parameter_names=SUBSET).run(jbos=2)


def _fields(ranking):
    return (ranking.factors, ranking.benchmarks, ranking.ranks.tolist(),
            ranking.sums)


def test_replicate_is_the_enhancement_study(traces):
    """``replicate`` matches the study assembled by hand: a base run, a
    run with precomputation tables, rankings of both."""
    outcome = replicate(traces)
    base = PBExperiment(traces).run()
    tables = {name: build_precompute_table(trace, 128)
              for name, trace in traces.items()}
    enhanced = PBExperiment(traces, precompute_tables=tables).run()
    table9 = rank_parameters_from_result(base)
    table12 = rank_parameters_from_result(enhanced)
    assert outcome.base_experiment.responses == base.responses
    assert outcome.enhanced_experiment.responses == enhanced.responses
    assert _fields(outcome.table9) == _fields(table9)
    assert _fields(outcome.table12) == _fields(table12)
    assert outcome.enhancement.shifts() == \
        EnhancementAnalysis(table9, table12).shifts()
    assert outcome.table9_vs_paper == \
        compare_rankings(table9, paper_table9_ranking())
    assert outcome.table12_vs_paper == \
        compare_rankings(table12, paper_table12_ranking())

"""Replicated Plackett-Burman experiments: effects with error bars.

The paper's experiment measures each configuration once, so effect
significance rests on cross-factor comparisons (ranks, Lenth's PSE).
A deterministic simulator offers another route the paper could not
use: *workload replication*.  Re-generating each benchmark's trace
from different seeds gives independent realizations of the same
statistical workload; running the design on each replicate yields R
independent estimates of every effect, and with them honest standard
errors, t-statistics and p-values per factor.

This answers the reviewer question the rank tables cannot: "is that
effect real, or trace noise?"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cpu import PARAMETER_NAMES, MachineConfig
from repro.workloads import SyntheticProgram, Trace, profile

from .experiment import PBExperiment, PBExperimentResult


def replicated_suite(
    names: Sequence[str],
    length: int,
    replications: int,
    *,
    base_seed: int = 20030208,   # the paper's conference date
) -> Dict[str, List[Trace]]:
    """Generate ``replications`` independent traces per benchmark.

    Replicates share the benchmark's *static program* (same code
    layout, same slots) but draw independent dynamic randomness, like
    re-running a program on input variations.
    """
    if replications < 2:
        raise ValueError("replication needs at least 2 replicates")
    out: Dict[str, List[Trace]] = {}
    for name in names:
        program = SyntheticProgram(profile(name))
        out[name] = [
            program.emit(length, seed=base_seed + 7919 * r,
                         name=f"{name}#r{r}")
            for r in range(replications)
        ]
    return out


@dataclass(frozen=True)
class FactorInference:
    """Replication-based inference for one factor on one benchmark."""

    factor: str
    benchmark: str
    mean_effect: float
    std_error: float
    t_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


@dataclass
class ReplicatedResult:
    """Everything a replicated PB experiment produced."""

    replicates: Tuple[PBExperimentResult, ...]
    inference: Dict[str, Dict[str, FactorInference]]  # bench -> factor

    @property
    def mean_result(self) -> PBExperimentResult:
        """A result whose responses are the replicate means (usable by
        every downstream rank/classification tool)."""
        first = self.replicates[0]
        responses = {
            bench: list(np.mean(
                [r.responses[bench] for r in self.replicates], axis=0
            ))
            for bench in first.responses
        }
        return PBExperimentResult(first.design, responses)

    def significant_factors(self, benchmark: str,
                            alpha: float = 0.05) -> List[str]:
        """Factors with p < alpha on one benchmark, most significant
        first."""
        rows = [
            inf for inf in self.inference[benchmark].values()
            if inf.p_value < alpha
        ]
        rows.sort(key=lambda inf: inf.p_value)
        return [inf.factor for inf in rows]

    def table(self, benchmark: str, top: int = 10) -> str:
        """A readable effect +- stderr table for one benchmark."""
        rows = sorted(self.inference[benchmark].values(),
                      key=lambda inf: -abs(inf.t_statistic))[:top]
        lines = [f"{benchmark}: replicated effect estimates "
                 f"(R = {len(self.replicates)})"]
        for inf in rows:
            stars = "***" if inf.p_value < 0.001 else \
                "**" if inf.p_value < 0.01 else \
                "*" if inf.p_value < 0.05 else ""
            lines.append(
                f"  {inf.factor:35s} {inf.mean_effect:+12.0f} "
                f"+- {inf.std_error:10.0f}  t={inf.t_statistic:+7.2f} "
                f"p={inf.p_value:.4f} {stars}"
            )
        return "\n".join(lines)


def _t_sf(t: float, dof: int) -> float:
    """Two-sided p-value for a t statistic."""
    from scipy.special import betainc

    x = dof / (dof + t * t)
    return float(betainc(dof / 2.0, 0.5, x))


def run_replicated(
    traces: Mapping[str, Sequence[Trace]],
    *,
    base_config: MachineConfig = MachineConfig(),
    parameter_names: Sequence[str] = PARAMETER_NAMES,
    progress=None,
    telemetry=None,
    **options,
) -> ReplicatedResult:
    """Run the PB design once per replicate and infer per-factor stats.

    Each factor's R effect estimates are treated as an i.i.d. sample;
    the returned inference carries mean, standard error, t-statistic
    (against zero effect) and two-sided p-value with R-1 degrees of
    freedom.  ``options`` (:class:`repro.exec.ExecOptions`) are
    resolved once and shared, with ``telemetry``, by every replicate's
    :meth:`PBExperiment.run` (replicate traces differ by seed, so only
    repeated *studies* hit the cache, not replicates of one study).
    """
    from repro.exec.engine import _Resolved

    benchmarks = list(traces.keys())
    reps = {b: list(ts) for b, ts in traces.items()}
    counts = {len(ts) for ts in reps.values()}
    if len(counts) != 1:
        raise ValueError("every benchmark needs the same replicate count")
    (n_reps,) = counts
    if n_reps < 2:
        raise ValueError("replication needs at least 2 replicates")

    with _Resolved(options) as resolved:
        results: List[PBExperimentResult] = [
            PBExperiment(
                {b: reps[b][r] for b in benchmarks},
                base_config=base_config, parameter_names=parameter_names,
                progress=progress,
            ).run(telemetry=telemetry, **vars(resolved))
            for r in range(n_reps)
        ]

    inference: Dict[str, Dict[str, FactorInference]] = {}
    factor_names = results[0].design.factor_names
    for bench in benchmarks:
        per_factor: Dict[str, FactorInference] = {}
        effect_samples = np.stack([
            np.asarray(r.effects[bench].effects) for r in results
        ])  # (R, factors)
        means = effect_samples.mean(axis=0)
        stds = effect_samples.std(axis=0, ddof=1)
        for j, factor in enumerate(factor_names):
            se = float(stds[j] / np.sqrt(n_reps))
            if se == 0.0:
                t = float("inf") if means[j] else 0.0
                p = 0.0 if means[j] else 1.0
            else:
                t = float(means[j] / se)
                p = _t_sf(abs(t), n_reps - 1)
            per_factor[factor] = FactorInference(
                factor=factor, benchmark=bench,
                mean_effect=float(means[j]), std_error=se,
                t_statistic=t, p_value=p,
            )
        inference[bench] = per_factor
    return ReplicatedResult(tuple(results), inference)

"""Fig. 10: SysScale performance benefit vs. SoC thermal design power (TDP)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import experiment
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import ExperimentContext, ExperimentRuntime, mean
from repro.hw import HardwareSpec
from repro.runtime.jobs import PolicySpec, SimSpec, SimulationJob, TraceSpec
from repro.sim.engine import SimulationConfig
from repro.workloads.spec2006 import spec_cpu2006_suite

#: TDP points of Fig. 10 (watts).
DEFAULT_TDP_POINTS: Tuple[float, ...] = (3.5, 4.5, 7.0, 15.0)

TITLE = "Fig. 10: SysScale benefit vs. SoC TDP"


def run_fig10_tdp_sensitivity(
    tdp_points: Sequence[float] = DEFAULT_TDP_POINTS,
    subset: Optional[Tuple[str, ...]] = None,
    workload_duration: float = 1.0,
    runtime: Optional[ExperimentRuntime] = None,
    sim_config: Optional[SimulationConfig] = None,
) -> ExperimentReport:
    """Reproduce Fig. 10: distribution of SPEC improvements at each TDP.

    Every (TDP, benchmark, policy) combination is one job: workers rebuild the
    platform (and hence the PBM and threshold calibration) per TDP, because
    every quantity derived from the power budget changes with it.  Submitting
    the whole grid at once lets a parallel runtime spread the heaviest figure
    of the evaluation across all cores.
    """
    if runtime is None:
        runtime = ExperimentRuntime()
    before = runtime.accounting()
    sim = SimSpec.from_config(sim_config) if sim_config is not None else SimSpec()

    traces = spec_cpu2006_suite(duration=workload_duration, subset=subset)
    jobs: List[SimulationJob] = []
    for tdp in tdp_points:
        platform_spec = HardwareSpec(tdp=tdp)
        for trace in traces:
            trace_spec = TraceSpec.make(
                "spec", name=trace.name, duration=workload_duration
            )
            for policy in ("baseline", "sysscale"):
                jobs.append(
                    SimulationJob(
                        trace=trace_spec,
                        policy=PolicySpec.make(policy),
                        platform=platform_spec,
                        sim=sim,
                    )
                )
    results = runtime.simulate(jobs)

    rows: List[Dict[str, object]] = []
    cursor = 0
    for tdp in tdp_points:
        improvements: List[float] = []
        for _ in traces:
            baseline = results[cursor]
            sysscale = results[cursor + 1]
            cursor += 2
            improvements.append(sysscale.performance_improvement_over(baseline))
        ordered = sorted(improvements)
        rows.append(
            {
                "tdp_w": tdp,
                "average": mean(improvements),
                "median": ordered[len(ordered) // 2],
                "max": max(improvements),
                "min": min(improvements),
                "improvements": improvements,
            }
        )

    return ExperimentReport(
        experiment="fig10",
        title=TITLE,
        params={
            "tdp_points": tdp_points,
            "subset": subset,
            "duration": workload_duration,
        },
        blocks=(
            Table.from_records(
                "rows",
                rows,
                units={
                    "tdp_w": "W",
                    "average": "fraction",
                    "median": "fraction",
                    "max": "fraction",
                    "min": "fraction",
                    "improvements": "fraction",
                },
            ),
        ),
        run=runtime.accounting().since(before),
    )


@experiment(
    "fig10",
    title=TITLE,
    flags=("--duration",),
    quick="12-benchmark representative SPEC subset",
    params=("subset", "tdp_points"),
)
def _fig10(context: ExperimentContext, quick: bool, **overrides: object) -> ExperimentReport:
    """Distribution of SPEC improvements at each TDP point (sweeps its own TDPs)."""
    if quick:
        from repro.runtime.campaign import QUICK_SPEC_SUBSET

        overrides.setdefault("subset", QUICK_SPEC_SUBSET)
    return run_fig10_tdp_sensitivity(
        workload_duration=context.workload_duration,
        runtime=context.runtime,
        sim_config=context.engine.config,
        **overrides,
    )

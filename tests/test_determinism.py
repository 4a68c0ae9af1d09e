"""Determinism regression tests.

The runtime's correctness rests on one property: a simulation's result depends
only on its job spec, never on what ran before it, which process ran it, or
whether it came from the cache.  These tests pin that property at every layer:
back-to-back engine runs on one platform, cold versus warm cache, and serial
versus process-parallel execution.
"""

import pytest

from repro.baselines.fixed import FixedBaselinePolicy
from repro.core.sysscale import SysScaleController
from repro.experiments import build_context, run_fig7_spec
from repro.experiments.runner import ExperimentRuntime
from repro.runtime import (
    ParallelExecutor,
    PolicySpec,
    ResultCache,
    SerialExecutor,
    SimSpec,
    SimulationJob,
    TraceSpec,
)
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.platform import build_platform
from repro.workloads.spec2006 import spec_workload

SUBSET = ("470.lbm", "416.gamess")


class TestEngineDeterminism:
    def test_back_to_back_runs_identical(self, platform):
        """Two consecutive runs on the same platform yield identical results,
        even though the first run's transition flow mutated live platform
        state (DRAM frequency, rail voltages, interconnect clock, MRC)."""
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.2))
        trace = spec_workload("470.lbm", duration=0.2)
        first = engine.run(trace, SysScaleController(platform=platform))
        second = engine.run(trace, SysScaleController(platform=platform))
        assert first.to_dict() == second.to_dict()

    def test_result_independent_of_preceding_runs(self):
        """A run's numbers do not change because a different workload/policy
        ran on the platform first (run-order independence)."""
        sim = SimulationConfig(max_simulated_time=0.2)
        trace = spec_workload("470.lbm", duration=0.2)

        fresh_platform = build_platform()
        fresh = SimulationEngine(fresh_platform, sim).run(
            trace, SysScaleController(platform=fresh_platform)
        )

        used_platform = build_platform()
        used_engine = SimulationEngine(used_platform, sim)
        used_engine.run(
            spec_workload("433.milc", duration=0.2),
            SysScaleController(platform=used_platform),
        )
        used_engine.run(trace, FixedBaselinePolicy())
        after_use = used_engine.run(trace, SysScaleController(platform=used_platform))

        assert after_use.to_dict() == fresh.to_dict()


class TestRuntimeDeterminism:
    def _context(self, cache=None, executor=None):
        runtime = ExperimentRuntime(
            executor=executor or SerialExecutor(), cache=cache
        )
        return build_context(
            workload_duration=0.1,
            sim_config=SimulationConfig(max_simulated_time=0.1),
            runtime=runtime,
        )

    def test_cold_vs_warm_cache_identical_numbers(self, tmp_path):
        """One figure, cold cache then warm cache: identical numbers, and the
        warm run performs zero new simulations."""
        cache_dir = tmp_path / "cache"
        cold_context = self._context(cache=ResultCache(cache_dir))
        cold = run_fig7_spec(cold_context, subset=SUBSET)
        cold_info = cold_context.runtime.accounting()
        assert cold_info.executed > 0
        assert cold_info.cache_hits == 0

        warm_context = self._context(cache=ResultCache(cache_dir))
        warm = run_fig7_spec(warm_context, subset=SUBSET)
        warm_info = warm_context.runtime.accounting()
        assert warm_info.executed == 0
        assert warm_info.cache_hits == warm_info.unique

        assert warm.blocks == cold.blocks

    def test_parallel_equals_serial_for_campaign(self):
        """ParallelExecutor results are bit-identical to SerialExecutor results
        for the same job batch."""
        jobs = [
            SimulationJob(
                trace=TraceSpec.make("spec", name=name, duration=0.05),
                policy=PolicySpec.make(policy),
                sim=SimSpec(max_simulated_time=0.05),
            )
            for name in SUBSET
            for policy in ("baseline", "sysscale")
        ]
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(max_workers=2).run(jobs)
        assert parallel.payloads() == serial.payloads()

    def test_runtime_path_matches_direct_engine(self):
        """The figure code's runtime submission produces the same numbers as
        driving the engine directly with equivalent objects."""
        context = self._context()
        figure = run_fig7_spec(context, subset=("470.lbm",))

        platform = build_platform()
        engine = SimulationEngine(platform, SimulationConfig(max_simulated_time=0.1))
        trace = spec_workload("470.lbm", duration=0.1)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform))
        expected = sysscale.performance_improvement_over(baseline)
        assert figure.block("rows").records()[0]["sysscale"] == pytest.approx(expected, abs=0.0)

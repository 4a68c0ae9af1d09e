"""Tests for SysScale's core components: operating points, thresholds, demand
prediction, holistic algorithm, transition flow, and the controller."""

from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro import config
from repro.baselines.fixed import FixedBaselinePolicy
from repro.core.algorithm import HolisticPowerAlgorithm
from repro.core.demand import DemandPredictor, evaluate_prediction_quality
from repro.core.flow import TransitionFlow
from repro.core.operating_points import (
    OperatingPoint,
    OperatingPointTable,
    build_ddr4_operating_points,
    build_default_operating_points,
)
from repro.core.sysscale import SysScaleController
from repro.core.thresholds import ThresholdCalibrator
from repro.hw import get_hardware
from repro.memory.dram import DramDevice
from repro.perf.counters import CounterName, CounterSample
from repro.power.budget import PowerBudgetManager
from repro.scenarios.registry import SCENARIOS
from repro.sim.engine import SimulationEngine
from repro.sim.platform import Platform, build_platform
from repro.sim.policy import PolicyAction, StaticDemandInfo
from repro.workloads.batterylife import battery_life_workload
from repro.workloads.io_devices import STANDARD_CONFIGURATIONS
from repro.workloads.microbenchmarks import compute_only_microbenchmark
from repro.workloads.spec2006 import spec_workload


def _sample(gfx=0.0, occupancy=0.0, stalls=0.0, io=0.0):
    return CounterSample(
        values={
            CounterName.GFX_LLC_MISSES: gfx,
            CounterName.LLC_OCCUPANCY_TRACER: occupancy,
            CounterName.LLC_STALLS: stalls,
            CounterName.IO_RPQ: io,
        }
    )


class TestOperatingPoints:
    def test_default_table_matches_table1(self, platform):
        table = build_default_operating_points(platform)
        assert len(table) == 2
        assert table.high.dram_frequency == pytest.approx(1.6e9)
        assert table.low.dram_frequency == pytest.approx(1.06e9)
        assert table.low.v_sa_scale == pytest.approx(config.V_SA_LOW_SCALE)
        assert table.low.v_io_scale == pytest.approx(config.V_IO_LOW_SCALE)

    def test_three_point_table(self, platform):
        table = build_default_operating_points(platform, include_lowest_bin=True)
        assert len(table) == 3
        assert table.low.dram_frequency == pytest.approx(0.8e9)

    def test_navigation(self, operating_points):
        assert operating_points.next_lower(operating_points.high) is operating_points.low
        assert operating_points.next_higher(operating_points.low) is operating_points.high
        assert operating_points.next_lower(operating_points.low) is operating_points.low

    def test_low_point_provisioned_power_is_smaller(self, platform, operating_points):
        assert operating_points.low.provisioned_io_memory_power(
            platform
        ) < operating_points.high.provisioned_io_memory_power(platform)

    def test_to_action_round_trip(self, platform, operating_points):
        action = operating_points.low.to_action(platform)
        assert action.dram_frequency == pytest.approx(1.06e9)
        assert action.io_memory_budget > 0

    def test_ddr4_table(self):
        table = build_ddr4_operating_points()
        assert table.high.dram_frequency == pytest.approx(1.86e9)
        assert table.low.dram_frequency == pytest.approx(1.33e9)

    def test_duplicate_frequencies_rejected(self):
        point = OperatingPoint("a", 1.6e9, 0.8e9, 1.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPointTable(points=[point, OperatingPoint("b", 1.6e9, 0.4e9, 0.9, 0.9)])


class TestThresholds:
    def test_boundary_thresholds_are_positive(self, thresholds):
        for name in CounterName:
            assert thresholds[name] > 0

    def test_compute_bound_workload_below_thresholds(self, platform, operating_points, thresholds):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        counters = calibrator.measure_counters(spec_workload("416.gamess"))
        assert not thresholds.any_exceeded(counters)

    def test_memory_bound_workload_exceeds_thresholds(self, platform, operating_points, thresholds):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        counters = calibrator.measure_counters(spec_workload("470.lbm"))
        assert thresholds.any_exceeded(counters)

    def test_degradation_measurement_orders_workloads(self, platform, operating_points):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        assert calibrator.measure_degradation(
            spec_workload("470.lbm")
        ) > calibrator.measure_degradation(spec_workload("416.gamess"))

    def test_corpus_calibration_pipeline(self, platform, operating_points):
        from repro.workloads.corpus import CorpusGenerator

        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        corpus = CorpusGenerator(seed=42).generate(single_thread=30, multi_thread=10, graphics=10)
        assert calibrator.add_corpus(corpus) == 50
        thresholds = calibrator.calibrate()
        for name in CounterName:
            assert thresholds[name] > 0

    def test_calibrate_without_runs_raises(self, platform, operating_points):
        calibrator = ThresholdCalibrator(platform=platform, operating_points=operating_points)
        with pytest.raises(ValueError):
            calibrator.calibrate()


class TestDemandPredictor:
    def test_all_quiet_means_low_safe(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        prediction = predictor.predict(_sample())
        assert prediction.low_point_safe

    def test_each_condition_triggers_high(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        over = 10.0
        cases = {
            "gfx_bandwidth_limited": _sample(gfx=thresholds[CounterName.GFX_LLC_MISSES] * over),
            "cpu_bandwidth_limited": _sample(
                occupancy=thresholds[CounterName.LLC_OCCUPANCY_TRACER] * over
            ),
            "memory_latency_bound": _sample(stalls=thresholds[CounterName.LLC_STALLS] * over),
            "io_latency_bound": _sample(io=thresholds[CounterName.IO_RPQ] * over),
        }
        for condition, sample in cases.items():
            prediction = predictor.predict(sample)
            assert prediction.requires_high_point
            assert prediction.triggered_conditions[condition]

    def test_static_demand_condition(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        heavy_display = StaticDemandInfo(peripherals=STANDARD_CONFIGURATIONS["single_4k"])
        prediction = predictor.predict(_sample(), heavy_display)
        assert prediction.requires_high_point
        assert prediction.triggered_conditions["static_bandwidth"]

    def test_hd_display_does_not_force_high_point(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        hd = StaticDemandInfo(peripherals=STANDARD_CONFIGURATIONS["single_hd"])
        assert predictor.predict(_sample(), hd).low_point_safe

    def test_static_condition_follows_configuration_content(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        hd = STANDARD_CONFIGURATIONS["single_hd"]
        heavy = STANDARD_CONFIGURATIONS["single_4k"]
        for peripherals, safe in ((hd, True), (heavy, False), (hd, True), (heavy, False)):
            static = StaticDemandInfo(peripherals=peripherals)
            prediction = predictor.predict(_sample(), static)
            assert prediction.low_point_safe is safe
            assert prediction.static_bandwidth_demand == static.bandwidth_demand
        default = predictor.predict(_sample())
        assert default.static_bandwidth_demand == StaticDemandInfo().bandwidth_demand

    def test_prediction_statistics(self, thresholds):
        predictor = DemandPredictor(thresholds=thresholds)
        predictor.predict(_sample())
        predictor.predict(_sample(stalls=1e9))
        assert predictor.prediction_count == 2
        assert predictor.low_prediction_fraction == pytest.approx(0.5)

    def test_quality_evaluation(self):
        quality = evaluate_prediction_quality([True, False, True], [True, False, False])
        assert quality.accuracy == pytest.approx(2 / 3)
        assert quality.false_positives == 1
        with pytest.raises(ValueError):
            evaluate_prediction_quality([True], [True, False])


class TestHolisticAlgorithm:
    def test_starts_high_and_drops_when_quiet(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        assert algorithm.reset() is operating_points.high
        decision = algorithm.decide(_sample())
        assert decision.operating_point is operating_points.low
        assert decision.changed

    def test_returns_high_under_pressure(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        algorithm.reset()
        algorithm.decide(_sample())
        decision = algorithm.decide(_sample(stalls=1e9))
        assert decision.operating_point is operating_points.high
        assert algorithm.transition_count == 2

    def test_low_point_enlarges_compute_budget(self, platform, operating_points, thresholds):
        algorithm = HolisticPowerAlgorithm(
            platform=platform,
            operating_points=operating_points,
            predictor=DemandPredictor(thresholds=thresholds),
        )
        algorithm.reset()
        low_decision = algorithm.decide(_sample())
        high_decision = algorithm.decide(_sample(stalls=1e9))
        assert low_decision.compute_budget > high_decision.compute_budget


class TestTransitionFlow:
    @pytest.fixture
    def flow(self):
        from repro.sim.platform import build_platform

        platform = build_platform()
        points = build_default_operating_points(platform)
        return (
            TransitionFlow(
                rails=platform.soc.rails,
                interconnect=platform.soc.interconnect_fabric,
                dram=platform.dram,
                mrc_sram=platform.mrc_sram,
                mrc_registers=platform.mrc_registers,
            ),
            points,
            platform,
        )

    def test_down_transition_within_budget(self, flow):
        transition_flow, points, _ = flow
        report = transition_flow.execute(points.high, points.low)
        assert report.within_budget
        assert report.mrc_reloaded
        assert not report.increasing_frequency

    def test_up_transition_raises_voltage_first(self, flow):
        transition_flow, points, _ = flow
        transition_flow.execute(points.high, points.low)
        report = transition_flow.execute(points.low, points.high)
        assert report.increasing_frequency
        assert report.step_latencies[list(report.step_latencies)[1]] >= 0

    def test_flow_updates_hardware_state(self, flow):
        transition_flow, points, platform = flow
        transition_flow.execute(points.high, points.low)
        assert platform.dram.current_frequency == pytest.approx(1.06e9)
        assert platform.mrc_registers.is_optimized_for(1.06e9)
        assert platform.soc.interconnect_fabric.frequency == pytest.approx(0.4e9)
        transition_flow.execute(points.low, points.high)
        assert platform.dram.current_frequency == pytest.approx(1.6e9)

    def test_estimate_close_to_actual(self, flow):
        transition_flow, points, _ = flow
        estimate = transition_flow.estimate_latency(points.high, points.low)
        report = transition_flow.execute(points.high, points.low)
        assert estimate == pytest.approx(report.total_latency, rel=0.5)


class TestSysScaleController:
    def test_compute_bound_workload_reaches_low_point(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        trace = compute_only_microbenchmark(duration=0.3)
        result = engine.run(trace, controller)
        assert result.low_point_residency > 0.7

    def test_memory_bound_workload_stays_high(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        trace = spec_workload("470.lbm", duration=0.3)
        result = engine.run(trace, controller)
        assert result.low_point_residency == 0.0

    def test_sysscale_never_slows_down_memory_bound_workloads(self, platform, thresholds, engine):
        trace = spec_workload("433.milc", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform, thresholds=thresholds))
        assert sysscale.performance_improvement_over(baseline) >= -0.01

    def test_sysscale_speeds_up_compute_bound_workloads(self, platform, thresholds, engine):
        trace = spec_workload("416.gamess", duration=0.3)
        baseline = engine.run(trace, FixedBaselinePolicy())
        sysscale = engine.run(trace, SysScaleController(platform=platform, thresholds=thresholds))
        assert sysscale.performance_improvement_over(baseline) > 0.05

    def test_transition_reports_accumulate(self, platform, thresholds, engine):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        engine.run(spec_workload("473.astar", duration=0.3), controller)
        assert controller.algorithm.transition_count >= 1

    def test_nominal_latency_mode(self, platform, thresholds, engine):
        controller = SysScaleController(
            platform=platform, thresholds=thresholds, use_flow_latency=False
        )
        result = engine.run(compute_only_microbenchmark(duration=0.2), controller)
        assert result.transition_time <= result.transitions * config.TRANSITION_TOTAL_LATENCY_BUDGET + 1e-9


class TestDecisionTables:
    """The per-point budget table must equal the model it replaces, bit for bit."""

    TABLES = {
        "default": build_default_operating_points,
        "lowest": lambda: build_default_operating_points(include_lowest_bin=True),
        "ddr4": build_ddr4_operating_points,
    }

    @pytest.mark.parametrize("table", sorted(TABLES))
    @pytest.mark.parametrize("variant", ["skylake", "broadwell", "skylake-ddr4"])
    def test_budget_table_equals_fresh_model(self, variant, table, thresholds):
        platform = get_hardware(variant).build()
        points = self.TABLES[table]()
        controller = SysScaleController(
            platform=platform, operating_points=points, thresholds=thresholds
        )
        budgets = controller.algorithm.io_memory_budgets
        assert len(budgets) == len(points)
        for point in points:
            assert budgets[point] == platform.worst_case_io_memory_power(
                dram_frequency=point.dram_frequency,
                interconnect_frequency=point.interconnect_frequency,
                v_sa_scale=point.v_sa_scale,
                v_io_scale=point.v_io_scale,
            )

    def test_reset_on_another_platform_is_refused(self, platform, thresholds):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        trace = compute_only_microbenchmark(duration=0.05)
        other = build_platform(tdp=4.5)
        with pytest.raises(ValueError, match="bound to the platform"):
            controller.reset(other, trace)
        with pytest.raises(ValueError, match="bound to the platform"):
            SimulationEngine(other).run(trace, controller)
        controller.reset(platform, trace)  # its own platform still works


class TestDecisionPathWorkCounters:
    """Decisions read tables: model calls must not scale with decision count."""

    #: The calls counted during a run, by key.
    COUNTED = {
        "budget": (Platform, "worst_case_io_memory_power"),
        "timings": (DramDevice, "timings"),
        "estimate_latency": (TransitionFlow, "estimate_latency"),
        "pbm_budgets": (PowerBudgetManager, "budgets"),
        "index_of": (OperatingPointTable, "index_of"),
    }

    def _counted_run(self, monkeypatch, platform, operating_points, thresholds, cycles):
        """Run a battery-life trace, counting calls in total, after the
        controller is built, and from inside ``SysScaleController.decide``."""
        total, in_decide = Counter(), Counter()
        deciding = []

        def counting(key, original):
            def wrapper(*args, **kwargs):
                total[key] += 1
                if deciding:
                    in_decide[key] += 1
                return original(*args, **kwargs)

            return wrapper

        decide = SysScaleController.decide

        def counting_decide(self, observation):
            deciding.append(True)
            try:
                return decide(self, observation)
            finally:
                deciding.pop()

        with monkeypatch.context() as patch:
            for key, (owner, attr) in self.COUNTED.items():
                patch.setattr(owner, attr, counting(key, getattr(owner, attr)))
            patch.setattr(SysScaleController, "decide", counting_decide)
            controller = SysScaleController(
                platform=platform, operating_points=operating_points, thresholds=thresholds
            )
            built = Counter(total)
            engine = SimulationEngine(platform)
            engine.run(battery_life_workload("web_browsing", cycles=cycles), controller)
        return SimpleNamespace(
            total=total,
            after_build=total - built,
            in_decide=in_decide,
            decisions=len(controller.algorithm.decisions),
            stats=engine.last_run_stats,
        )

    def test_model_calls_do_not_grow_with_decisions(
        self, monkeypatch, platform, operating_points, thresholds
    ):
        short = self._counted_run(monkeypatch, platform, operating_points, thresholds, cycles=2)
        long = self._counted_run(monkeypatch, platform, operating_points, thresholds, cycles=8)
        assert long.decisions >= 4 * short.decisions > 0
        for run in (short, long):
            assert run.total["budget"] <= len(operating_points)
        # The only per-event DRAM-timing reader left is the transition path,
        # which prices each executed transition once.
        extra_transitions = long.stats.transitions - short.stats.transitions
        assert long.total["timings"] - short.total["timings"] <= extra_transitions
        assert extra_transitions < (long.decisions - short.decisions) / 10

    def test_steady_decisions_reuse_the_action_and_read_tables(
        self, monkeypatch, platform, operating_points, thresholds
    ):
        for cycles in (2, 8):
            run = self._counted_run(monkeypatch, platform, operating_points, thresholds, cycles)
            transitions = run.stats.transitions
            assert run.decisions > 10 * transitions > 0
            # One estimate for the boot point, then at most one per transition.
            assert run.after_build["estimate_latency"] <= transitions + 1
            assert run.in_decide["pbm_budgets"] == 0
            assert run.in_decide["index_of"] == 0


class _CheckedSysScale(SysScaleController):
    """SysScale that checks every reused steady action against a fresh one."""

    checked = 0

    def decide(self, observation):
        before = self.current_operating_point
        action = super().decide(observation)
        point = self.current_operating_point
        if point is before:
            fresh = point.to_action(
                self.platform,
                transition_latency=self.flow.estimate_latency(point, point),
                io_memory_budget=point.provisioned_io_memory_power(self.platform),
            )
            for spec in fields(PolicyAction):
                assert getattr(action, spec.name) == getattr(fresh, spec.name), spec.name
            self.checked += 1
        return action


class TestSteadyActionReuse:
    """The action reused on steady decisions equals a freshly built one."""

    @pytest.mark.parametrize("variant", ["skylake", "skylake-ddr4"])
    @pytest.mark.parametrize("workload", ["battery", "markov"])
    def test_reused_action_equals_fresh_action(self, variant, workload):
        platform = get_hardware(variant).build()
        if platform.dram.technology.value == "ddr4":
            points = build_ddr4_operating_points()
        else:
            points = build_default_operating_points(platform)
        controller = _CheckedSysScale(platform=platform, operating_points=points)
        if workload == "battery":
            trace = battery_life_workload("web_browsing", cycles=2)
        else:
            trace = SCENARIOS["markov-mobile-alt-seed"].build()
        engine = SimulationEngine(platform)
        engine.run(trace, controller)
        transitions = engine.last_run_stats.transitions
        assert transitions > 0
        assert controller.checked == len(controller.algorithm.decisions) - transitions > 0


class TestPerRunStatistics:
    """A reused controller's statistics describe its latest run only."""

    def test_repeated_runs_report_identical_statistics(self, platform, thresholds):
        controller = SysScaleController(platform=platform, thresholds=thresholds)
        engine = SimulationEngine(platform)
        trace = battery_life_workload("web_browsing", cycles=2)
        runs = []
        for _ in range(2):
            engine.run(trace, controller)
            predictor = controller.algorithm.predictor
            runs.append(
                (
                    predictor.prediction_count,
                    predictor.low_predictions,
                    len(controller.flow.history),
                    [report.as_dict() for report in controller.transition_reports],
                )
            )
        assert runs[0] == runs[1]
        predictions, _, flow_reports, reports = runs[1]
        assert predictions == len(controller.algorithm.decisions) > 0
        assert flow_reports == len(reports) == controller.algorithm.transition_count > 0

    def test_standalone_flow_keeps_its_history(self, operating_points):
        platform = build_platform()
        flow = TransitionFlow(
            rails=platform.soc.rails,
            interconnect=platform.soc.interconnect_fabric,
            dram=platform.dram,
            mrc_sram=platform.mrc_sram,
            mrc_registers=platform.mrc_registers,
        )
        for _ in range(2):
            flow.execute(operating_points.high, operating_points.low)
            flow.execute(operating_points.low, operating_points.high)
        assert len(flow.history) == 4

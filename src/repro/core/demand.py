"""Demand prediction mechanism (Sec. 4.2).

SysScale predicts the bandwidth/latency demands of the three SoC domains from two
sources:

* **Static demand** depends only on the system configuration (number of active
  display panels, their resolution and refresh rate, active cameras), which the
  PMU reads from peripheral control and status registers.  The firmware keeps a
  table mapping every peripheral configuration to its bandwidth/latency demand,
  which is deterministic for a given configuration.
* **Dynamic demand** depends on workload phase behaviour and is predicted from the
  four dedicated performance counters, each compared against its calibrated
  threshold (``repro.core.thresholds``).

The predictor's output is a :class:`DemandPrediction`: whether the workload can
run at a lower operating point without exceeding the degradation bound, and which
conditions (if any) require the high point.  The paper reports prediction
accuracies of 97.7 % / 94.2 % / 98.8 % for single-thread CPU, multi-thread CPU and
graphics workloads with *no false positives* (no case where the predictor says
"safe to go low" but the actual degradation exceeds the bound); the mu + sigma
threshold margin is what provides that one-sidedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.core.thresholds import CounterThresholds
from repro.perf.counters import COUNTER_NAMES, CounterName, CounterSample
from repro.sim.policy import StaticDemandInfo


@dataclass(frozen=True)
class StaticDemandEstimate:
    """Static demand derived from the peripheral configuration."""

    bandwidth_demand: float
    latency_sensitive: bool

    def __post_init__(self) -> None:
        if self.bandwidth_demand < 0:
            raise ValueError("bandwidth demand must be non-negative")


class StaticDemandEstimator:
    """The firmware table mapping peripheral configurations to demand (Sec. 4.2)."""

    def estimate(self, static_info: StaticDemandInfo) -> StaticDemandEstimate:
        """Estimate static bandwidth demand and latency sensitivity.

        The estimate is exact because the demand of a given peripheral
        configuration "is known and is deterministic" (Sec. 4.2).
        """
        return StaticDemandEstimate(
            bandwidth_demand=static_info.bandwidth_demand,
            latency_sensitive=static_info.latency_sensitive,
        )


@dataclass(frozen=True)
class DemandPrediction:
    """The outcome of one demand-prediction evaluation."""

    low_point_safe: bool
    triggered_conditions: Dict[str, bool]
    static_bandwidth_demand: float
    counter_values: Dict[str, float]

    @property
    def requires_high_point(self) -> bool:
        """True when any of the five conditions of Sec. 4.3 is satisfied."""
        return not self.low_point_safe

    def as_dict(self) -> dict:
        """Flat summary for logging and result tables."""
        return {
            "low_point_safe": self.low_point_safe,
            **{f"condition_{name}": value for name, value in self.triggered_conditions.items()},
            "static_bandwidth_gbps": self.static_bandwidth_demand / config.GBPS,
        }


#: ``(key, counter)`` pairs for :attr:`DemandPrediction.counter_values`, so a
#: prediction does not format the four counter names again.
_COUNTER_KEYS: Tuple[Tuple[str, CounterName], ...] = tuple(
    (str(name), name) for name in COUNTER_NAMES
)


@dataclass
class DemandPredictor:
    """Combines static and dynamic demand estimation into one prediction.

    The five conditions mirror Sec. 4.3 exactly:

    1. aggregated static demand exceeds ``STATIC_BW_THR``;
    2. the graphics engines are bandwidth limited (``GFX_LLC_MISSES`` > GFX_THR);
    3. the CPU cores are bandwidth limited (``LLC_Occupancy_Tracer`` > Core_THR);
    4. memory latency is a bottleneck (``LLC_STALLS`` > LAT_THR);
    5. IO latency is a bottleneck (``IO_RPQ`` > IO_THR).

    Like the firmware, a prediction is four counter compares against
    thresholds unpacked once at construction (``CounterThresholds`` is
    frozen).  Condition 1 depends only on the peripheral configuration, so it
    is re-evaluated only when the configuration's *content* changes.
    """

    thresholds: CounterThresholds
    static_estimator: StaticDemandEstimator = field(default_factory=StaticDemandEstimator)
    prediction_count: int = field(default=0, init=False)
    low_predictions: int = field(default=0, init=False)
    _counter_limits: Tuple[float, float, float, float] = field(init=False, repr=False)
    _static_info: Optional[StaticDemandInfo] = field(default=None, init=False, repr=False)
    _static_bandwidth: float = field(default=0.0, init=False, repr=False)
    _static_exceeded: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        self._counter_limits = tuple(self.thresholds[name] for name in COUNTER_NAMES)

    def predict(
        self,
        counters: CounterSample,
        static_info: Optional[StaticDemandInfo] = None,
    ) -> DemandPrediction:
        """Predict whether the low operating point is safe for the next interval."""
        if static_info is None:
            static_info = StaticDemandInfo()
        if static_info != self._static_info:
            bandwidth = self.static_estimator.estimate(static_info).bandwidth_demand
            self._static_info = static_info
            self._static_bandwidth = bandwidth
            self._static_exceeded = bandwidth > self.thresholds.static_bandwidth_threshold

        values = counters.values
        counter_values = {key: values[name] for key, name in _COUNTER_KEYS}
        # Both tuples are in COUNTER_NAMES order.
        gfx, occupancy, stalls, io_rpq = counter_values.values()
        gfx_limit, occupancy_limit, stalls_limit, io_limit = self._counter_limits
        conditions = {
            "static_bandwidth": self._static_exceeded,
            "gfx_bandwidth_limited": gfx > gfx_limit,
            "cpu_bandwidth_limited": occupancy > occupancy_limit,
            "memory_latency_bound": stalls > stalls_limit,
            "io_latency_bound": io_rpq > io_limit,
        }
        low_point_safe = not any(conditions.values())
        self.prediction_count += 1
        if low_point_safe:
            self.low_predictions += 1
        return DemandPrediction(
            low_point_safe=low_point_safe,
            triggered_conditions=conditions,
            static_bandwidth_demand=self._static_bandwidth,
            counter_values=counter_values,
        )

    def reset_statistics(self) -> None:
        """Zero the prediction counts (a new run starts)."""
        self.prediction_count = 0
        self.low_predictions = 0

    @property
    def low_prediction_fraction(self) -> float:
        """Fraction of evaluations that predicted the low point to be safe."""
        if self.prediction_count == 0:
            return 0.0
        return self.low_predictions / self.prediction_count


@dataclass(frozen=True)
class PredictionQuality:
    """Accuracy statistics of the predictor against ground truth (Fig. 6)."""

    total: int
    correct: int
    false_positives: int
    false_negatives: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("total must be positive")
        if self.correct + self.false_positives + self.false_negatives > self.total:
            raise ValueError("inconsistent prediction-quality counts")

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that match the ground truth."""
        return self.correct / self.total

    @property
    def false_positive_rate(self) -> float:
        """Fraction of predictions that were unsafe 'go low' decisions.

        The paper reports zero false positives (Sec. 4.2): a false positive would
        move the SoC to the low point while the actual degradation exceeds the
        bound.
        """
        return self.false_positives / self.total


def evaluate_prediction_quality(
    predictions: List[bool],
    ground_truth_safe: List[bool],
) -> PredictionQuality:
    """Score a list of 'low point safe' predictions against ground truth."""
    if len(predictions) != len(ground_truth_safe):
        raise ValueError("predictions and ground truth must have the same length")
    if not predictions:
        raise ValueError("at least one prediction is required")
    correct = sum(1 for p, t in zip(predictions, ground_truth_safe) if p == t)
    false_positives = sum(
        1 for p, t in zip(predictions, ground_truth_safe) if p and not t
    )
    false_negatives = sum(
        1 for p, t in zip(predictions, ground_truth_safe) if not p and t
    )
    return PredictionQuality(
        total=len(predictions),
        correct=correct,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )

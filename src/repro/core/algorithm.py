"""Holistic power-management algorithm (Sec. 4.3).

The PMU executes this algorithm once per evaluation interval (30 ms by default),
using counter values averaged over the interval.  The algorithm decides between
adjacent operating points: if any of the five demand conditions is satisfied the
SoC moves to (or stays at) the higher-performance point; otherwise it moves to the
lower-performance point.  When the SoC sits at a reduced point, the power budgets
of the IO and memory domains are reduced and the compute domain's budget is
increased by the difference, which the compute-domain PBM converts into higher
CPU-core or graphics frequencies (Sec. 4.3-4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.core.demand import DemandPredictor, DemandPrediction
from repro.core.operating_points import OperatingPoint, OperatingPointTable
from repro.perf.counters import CounterSample
from repro.sim.platform import Platform
from repro.sim.policy import StaticDemandInfo


@dataclass(frozen=True)
class AlgorithmDecision:
    """One decision of the holistic algorithm."""

    operating_point: OperatingPoint
    prediction: DemandPrediction
    changed: bool
    io_memory_budget: float
    compute_budget: float

    def as_dict(self) -> dict:
        """Flat summary for logging and result tables."""
        return {
            "operating_point": self.operating_point.name,
            "changed": self.changed,
            "io_memory_budget_w": self.io_memory_budget,
            "compute_budget_w": self.compute_budget,
            **self.prediction.as_dict(),
        }


@dataclass
class HolisticPowerAlgorithm:
    """The per-interval decision procedure of Sec. 4.3.

    Parameters
    ----------
    platform:
        The platform whose PBM and power models the algorithm uses to convert an
        operating point into domain budgets.
    operating_points:
        The table of IO/memory operating points (two on the real system).
    predictor:
        The demand predictor; in the general multi-point case each adjacent pair
        would carry its own thresholds -- the two-point implementation uses one
        predictor, matching the paper's real-system configuration.
    evaluation_interval:
        How often the PMU runs the algorithm (30 ms default).
    """

    platform: Platform
    operating_points: OperatingPointTable
    predictor: DemandPredictor
    evaluation_interval: float = config.EVALUATION_INTERVAL
    io_memory_budgets: Dict[OperatingPoint, float] = field(init=False)
    _points: Tuple[OperatingPoint, ...] = field(init=False, repr=False)
    _budget_rows: Tuple[Tuple[float, float], ...] = field(init=False, repr=False)
    _index: Optional[int] = field(default=None, init=False)
    _decisions: List[AlgorithmDecision] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation interval must be positive")
        # Each point's provisioned IO+memory power, and the compute budget the
        # PBM grants beside it, are constants of (platform, point): build them
        # once rather than re-running the models on every 30 ms decision.
        # ``decide`` tracks the current point by its index in the table, so the
        # adjacent points are index arithmetic and the budgets one row read.
        self._points = tuple(self.operating_points)
        budgets = [point.provisioned_io_memory_power(self.platform) for point in self._points]
        self.io_memory_budgets = dict(zip(self._points, budgets))
        self._budget_rows = tuple(
            (budget, self.platform.pbm.budgets(budget).compute) for budget in budgets
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> OperatingPoint:
        """Start a new run at the high-performance point (the boot default).

        Clears the decisions and the predictor's counts, so every statistic
        describes the current run only.
        """
        self._index = 0
        self._decisions = []
        self.predictor.reset_statistics()
        return self._points[0]

    @property
    def current_point(self) -> OperatingPoint:
        """The operating point currently in force."""
        return self._points[self._index or 0]

    @property
    def decisions(self) -> List[AlgorithmDecision]:
        """All decisions taken so far in this run."""
        return list(self._decisions)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        counters: CounterSample,
        static_info: Optional[StaticDemandInfo] = None,
    ) -> AlgorithmDecision:
        """Run one evaluation: move towards high or low based on the five conditions."""
        if self._index is None:
            self.reset()
        prediction = self.predictor.predict(counters, static_info)

        index = self._index
        if prediction.low_point_safe:
            target_index = min(index + 1, len(self._points) - 1)
        else:
            target_index = max(index - 1, 0)
        self._index = target_index

        io_memory_budget, compute_budget = self._budget_rows[target_index]
        decision = AlgorithmDecision(
            operating_point=self._points[target_index],
            prediction=prediction,
            changed=target_index != index,
            io_memory_budget=io_memory_budget,
            compute_budget=compute_budget,
        )
        self._decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def low_point_fraction(self) -> float:
        """Fraction of decisions that selected a point below the highest one."""
        if not self._decisions:
            return 0.0
        below_high = sum(
            1
            for decision in self._decisions
            if decision.operating_point is not self.operating_points.high
        )
        return below_high / len(self._decisions)

    @property
    def transition_count(self) -> int:
        """Number of decisions that changed the operating point."""
        return sum(1 for decision in self._decisions if decision.changed)

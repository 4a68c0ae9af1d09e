"""SysScale power-management (DVFS transition) flow -- Fig. 5 and Sec. 5.

The flow carries out the actual multi-domain voltage/frequency change.  Its nine
steps, in order:

1. the demand-prediction mechanism determines the target frequencies/voltages;
2. if frequencies *increase*, raise V_SA / V_IO first;
3. block and drain the IO interconnect and the LLC-to-memory-controller traffic;
4. put DRAM into self-refresh;
5. load the optimized MRC values for the new DRAM frequency from on-chip SRAM
   into the memory-controller, DDRIO, and DRAM configuration registers;
6. re-lock the PLLs/DLLs to the new frequencies;
7. if frequencies *decrease*, lower V_SA / V_IO now (after the clocks slowed);
8. DRAM exits self-refresh;
9. release the IO interconnect and the LLC traffic.

The total latency budget is under 10 us (Sec. 5): ~2 us of voltage slewing at
50 mV/us over ~100 mV, <1 us of interconnect drain, <5 us of self-refresh exit
with fast re-training, <1 us of MRC load from SRAM, and <1 us of firmware
overhead.  Voltage moves of V_SA and V_IO are performed in parallel, so the flow
pays the slower of the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import config
from repro.core.operating_points import OperatingPoint
from repro.memory.dram import DramDevice
from repro.memory.mrc import MrcRegisterFile, MrcSram
from repro.soc.interconnect import BlockDrainInterconnect
from repro.soc.vr import RailName, RailSet


class FlowStep(str, enum.Enum):
    """The steps of the Fig. 5 flow, in execution order."""

    DEMAND_PREDICTION = "demand_prediction"
    RAISE_VOLTAGES = "raise_voltages"
    BLOCK_AND_DRAIN = "block_and_drain"
    ENTER_SELF_REFRESH = "enter_self_refresh"
    LOAD_MRC = "load_mrc"
    RELOCK_PLLS = "relock_plls"
    LOWER_VOLTAGES = "lower_voltages"
    EXIT_SELF_REFRESH = "exit_self_refresh"
    RELEASE = "release"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TransitionReport:
    """What one transition did and how long each step took (seconds)."""

    source: str
    target: str
    increasing_frequency: bool
    step_latencies: Dict[FlowStep, float]
    mrc_reloaded: bool

    @property
    def total_latency(self) -> float:
        """Total transition latency in seconds."""
        return sum(self.step_latencies.values())

    @property
    def within_budget(self) -> bool:
        """True when the transition met the < 10 us budget of Sec. 5."""
        return self.total_latency <= config.TRANSITION_TOTAL_LATENCY_BUDGET + 1e-12

    def as_dict(self) -> dict:
        """Flat summary (latencies in microseconds)."""
        return {
            "source": self.source,
            "target": self.target,
            "increasing_frequency": self.increasing_frequency,
            "total_latency_us": self.total_latency / config.US,
            "within_budget": self.within_budget,
            **{
                f"{step.value}_us": latency / config.US
                for step, latency in self.step_latencies.items()
            },
        }


@dataclass
class TransitionFlow:
    """Executes the Fig. 5 flow against the platform's hardware models.

    Parameters
    ----------
    rails:
        The SoC voltage-regulator set (V_SA and V_IO are moved, in parallel).
    interconnect:
        The block-and-drain IO interconnect.
    dram:
        The DRAM device (self-refresh entry/exit, frequency-bin switch).
    mrc_sram / mrc_registers:
        Where the per-frequency MRC sets live and the live register file they are
        copied into (Fig. 5, step 5).
    firmware_latency:
        Fixed firmware and miscellaneous flow overhead (Sec. 5: < 1 us).
    pll_relock_latency:
        PLL/DLL re-lock time; overlapped with the self-refresh window in the real
        flow, modelled as a small separate cost here.
    """

    rails: RailSet
    interconnect: BlockDrainInterconnect
    dram: DramDevice
    mrc_sram: MrcSram
    mrc_registers: MrcRegisterFile
    firmware_latency: float = config.TRANSITION_FIRMWARE_LATENCY
    pll_relock_latency: float = 0.3 * config.US
    fast_self_refresh_training: bool = True
    _history: List[TransitionReport] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.firmware_latency < 0 or self.pll_relock_latency < 0:
            raise ValueError("latencies must be non-negative")

    # ------------------------------------------------------------------
    # Flow execution
    # ------------------------------------------------------------------
    def execute(
        self, source: OperatingPoint, target: OperatingPoint
    ) -> TransitionReport:
        """Run the full flow from ``source`` to ``target`` and return the report."""
        increasing = target.dram_frequency > source.dram_frequency
        latencies: Dict[FlowStep, float] = {}

        # Step 1: demand prediction already happened (the caller decided); charge
        # only firmware overhead here.
        latencies[FlowStep.DEMAND_PREDICTION] = self.firmware_latency

        voltage_targets = {
            RailName.V_SA: self.rails[RailName.V_SA].nominal_voltage * target.v_sa_scale,
            RailName.V_IO: self.rails[RailName.V_IO].nominal_voltage * target.v_io_scale,
        }

        # Step 2: raise voltages before the clocks speed up.
        if increasing:
            latencies[FlowStep.RAISE_VOLTAGES] = self.rails.apply(voltage_targets)
        else:
            latencies[FlowStep.RAISE_VOLTAGES] = 0.0

        # Step 3: block and drain the interconnect and LLC-to-MC traffic.
        self.interconnect.block()
        latencies[FlowStep.BLOCK_AND_DRAIN] = self.interconnect.drain()

        # Step 4: DRAM enters self-refresh (entry cost folded into exit budget).
        self.dram.enter_self_refresh()
        latencies[FlowStep.ENTER_SELF_REFRESH] = 0.0

        # Step 5: load the optimized MRC values for the new frequency from SRAM.
        mrc_reloaded = False
        if target.mrc_optimized and self.mrc_sram.has_frequency(target.dram_frequency):
            self.mrc_registers.load(self.mrc_sram.load(target.dram_frequency))
            latencies[FlowStep.LOAD_MRC] = self.mrc_sram.load_latency()
            mrc_reloaded = True
        else:
            latencies[FlowStep.LOAD_MRC] = 0.0

        # Step 6: re-lock PLLs/DLLs to the new frequencies.
        self.dram.set_frequency(target.dram_frequency)
        latencies[FlowStep.RELOCK_PLLS] = self.pll_relock_latency

        # Step 7: lower voltages after the clocks slowed down.
        if not increasing:
            latencies[FlowStep.LOWER_VOLTAGES] = self.rails.apply(voltage_targets)
        else:
            latencies[FlowStep.LOWER_VOLTAGES] = 0.0

        # Step 8: DRAM exits self-refresh.
        latencies[FlowStep.EXIT_SELF_REFRESH] = self.dram.exit_self_refresh(
            fast_training=self.fast_self_refresh_training
        )

        # Step 9: release the interconnect and LLC traffic at the new clock.
        self.interconnect.release(new_frequency=target.interconnect_frequency)
        latencies[FlowStep.RELEASE] = 0.0

        report = TransitionReport(
            source=source.name,
            target=target.name,
            increasing_frequency=increasing,
            step_latencies=latencies,
            mrc_reloaded=mrc_reloaded,
        )
        self._history.append(report)
        return report

    # ------------------------------------------------------------------
    # Latency estimation (no state changes)
    # ------------------------------------------------------------------
    def estimate_latency(
        self, source: OperatingPoint, target: OperatingPoint
    ) -> float:
        """Estimate the transition latency without touching any hardware state."""
        voltage_targets = {
            RailName.V_SA: self.rails[RailName.V_SA].nominal_voltage * target.v_sa_scale,
            RailName.V_IO: self.rails[RailName.V_IO].nominal_voltage * target.v_io_scale,
        }
        voltage_latency = self.rails.max_transition_time(voltage_targets)
        drain_latency = self.interconnect.estimated_drain_time()
        self_refresh_latency = (
            config.TRANSITION_SELF_REFRESH_EXIT_LATENCY
            if self.fast_self_refresh_training
            else config.TRANSITION_SELF_REFRESH_EXIT_LATENCY * 4.0
        )
        mrc_latency = (
            self.mrc_sram.load_latency()
            if target.mrc_optimized and self.mrc_sram.has_frequency(target.dram_frequency)
            else 0.0
        )
        return (
            self.firmware_latency
            + voltage_latency
            + drain_latency
            + self_refresh_latency
            + mrc_latency
            + self.pll_relock_latency
        )

    @property
    def history(self) -> List[TransitionReport]:
        """Reports of every transition executed since the last ``clear_history``."""
        return list(self._history)

    def clear_history(self) -> None:
        """Forget the reports of earlier transitions (a new run starts)."""
        self._history = []

    @property
    def worst_observed_latency(self) -> float:
        """The largest transition latency observed so far (seconds)."""
        if not self._history:
            return 0.0
        return max(report.total_latency for report in self._history)

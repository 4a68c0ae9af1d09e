"""Smoke test: every experiment module's entry function runs through the runtime.

Guards against future experiment-module breakage: each ``repro.experiments``
module must expose at least one ``run_*`` entry function, and every entry must
complete -- with a tiny :class:`SimulationConfig` and reduced workload sets --
against a context whose runtime is the real (serial) executor.  The point is
coverage of the wiring, not of the numbers: shape assertions live in
``tests/test_experiments.py`` and ``benchmarks/``.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.experiments
from repro.experiments import build_context
from repro.experiments.report import ExperimentReport
from repro.sim.engine import SimulationConfig
from repro.workloads.trace import WorkloadClass

#: Modules that are plumbing, not experiments.
NON_EXPERIMENT_MODULES = {"runner", "report", "api"}

#: Tiny per-entry keyword overrides so the full sweep finishes in seconds.
TINY_KWARGS = {
    "run_fig6_prediction": {
        "workloads_per_class": {
            WorkloadClass.CPU_SINGLE_THREAD: 4,
            WorkloadClass.CPU_MULTI_THREAD: 3,
            WorkloadClass.GRAPHICS: 3,
        }
    },
    "run_fig7_spec": {"subset": ("470.lbm", "416.gamess")},
    "run_fig10_tdp_sensitivity": {
        "tdp_points": (4.5,),
        "subset": ("470.lbm",),
        "workload_duration": 0.05,
        "sim_config": SimulationConfig(max_simulated_time=0.05),
    },
    "run_dram_frequency_sensitivity": {"corpus_size": 4},
    "run_scenario_robustness": {
        "subset": ("bursty-heavy", "thrash-sustained", "idle-mostly")
    },
}


def _experiment_modules():
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name not in NON_EXPERIMENT_MODULES and not info.name.startswith("_"):
            yield info.name


def _entry_functions(module):
    return [
        obj
        for name, obj in vars(module).items()
        if name.startswith("run_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


@pytest.fixture(scope="module")
def tiny_context():
    return build_context(
        workload_duration=0.05,
        sim_config=SimulationConfig(max_simulated_time=0.05),
    )


def test_every_module_has_an_entry_function():
    modules = list(_experiment_modules())
    assert len(modules) >= 12
    for module_name in modules:
        module = importlib.import_module(f"repro.experiments.{module_name}")
        assert _entry_functions(module), f"{module_name} has no run_* entry"


@pytest.mark.parametrize("module_name", sorted(_experiment_modules()))
def test_entry_functions_run_through_the_runtime(module_name, tiny_context):
    module = importlib.import_module(f"repro.experiments.{module_name}")
    for entry in _entry_functions(module):
        kwargs = dict(TINY_KWARGS.get(entry.__name__, {}))
        parameters = inspect.signature(entry).parameters
        if "context" in parameters:
            kwargs["context"] = tiny_context
        if "runtime" in parameters:
            kwargs.setdefault("runtime", tiny_context.runtime)
        result = entry(**kwargs)
        assert isinstance(result, ExperimentReport), entry.__name__
        assert result.blocks, entry.__name__

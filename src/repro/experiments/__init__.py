"""Experiment harness: baseline configuration, sweeps, per-figure setups."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ExperimentConfig": "repro.experiments.config",
    "baseline_config": "repro.experiments.config",
    "two_class_config": "repro.experiments.config",
    "CellOutcome": "repro.experiments.parallel",
    "ProcessSweepExecutor": "repro.experiments.parallel",
    "ProgressReporter": "repro.experiments.parallel",
    "SerialSweepExecutor": "repro.experiments.parallel",
    "SweepCell": "repro.experiments.parallel",
    "SweepExecutor": "repro.experiments.parallel",
    "available_executors": "repro.experiments.parallel",
    "make_executor": "repro.experiments.parallel",
    "run_scenario": "repro.experiments.figures",
    "OnlineProfiler": "repro.experiments.profiling",
    "capture_profile": "repro.experiments.profiling",
    "profile_classes": "repro.experiments.profiling",
    "SweepResult": "repro.experiments.runner",
    "normalize_protocols": "repro.experiments.runner",
    "run_once": "repro.experiments.runner",
    "run_sweep": "repro.experiments.runner",
    "Experiment": "repro.experiments.spec",
    "ExperimentSpec": "repro.experiments.spec",
})

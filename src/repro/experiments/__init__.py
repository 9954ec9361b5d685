"""Experiment harness: configuration, sweeps, executors, specs and the CLI.

The paper's figures and ablations are committed spec files under
``specs/`` (run them with ``repro run specs/fig13.json``), not code.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ExperimentConfig": "repro.experiments.config",
    "baseline_config": "repro.experiments.config",
    "two_class_config": "repro.experiments.config",
    "CellOutcome": "repro.experiments.parallel",
    "ProgressReporter": "repro.experiments.parallel",
    "SerialSweepExecutor": "repro.experiments.parallel",
    "SweepCell": "repro.experiments.parallel",
    "SweepExecutor": "repro.experiments.parallel",
    "available_executors": "repro.experiments.parallel",
    "make_executor": "repro.experiments.parallel",
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

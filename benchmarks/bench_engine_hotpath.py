"""Engine hot-path microbenchmarks.

Unlike the figure benchmarks (which time whole experiment sweeps), these
isolate the layers every sweep cell pays for on *every simulated page
access*:

* ``test_event_loop_throughput_array`` — the bare simulator:
  schedule/fire a large batch of self-rescheduling no-op events.
  Measures the bucketed dispatch with no protocol on top.
* ``test_scc_step_loop_throughput_array`` — one in-process SCC-2S run
  at a contended (but pre-saturation) arrival rate.  Measures the full
  per-access stack: the SCC step loop, conflict probes,
  shadow fork/block/promote, and commit processing.
* ``test_workload_tensor_throughput_array`` — building one sweep cell's
  workload with :meth:`WorkloadTensors.from_config` (batched RNG draws).
* ``test_arrival_load_throughput_array`` — loading a sorted workload
  into the simulator as one ``schedule_batch`` arrival track.

The ``_array`` suffixes are historical: they keep the entry names the
regression gate (`scripts/check_bench_regression.py`) compares against
in BENCH_baseline.json.  Every benchmark reports ``events_per_sec``
(where events are meaningful) in ``extra_info``.  See
benchmarks/README.md for how to read the output and when re-baselining
is legitimate.
"""

import gc

from repro.core.scc_2s import SCC2S
from repro.engine.array import ArraySimulator, WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.experiments.config import baseline_config
from repro.metrics.stats import MetricsCollector
from repro.system.model import RTDBSystem

# Enough events to dominate interpreter warmup noise while keeping the
# benchmark under a second on developer hardware.
EVENT_BATCH = 200_000
SCC_TRANSACTIONS = 400
# Contended low-mid range of the fig13 sweep: ~30% of transactions fork
# speculative shadows here (122 forks / 400 txns, peak 14 live shadows).
# Near the saturation knee (150) the run's time shifts into shadow
# fork/replacement, while this entry exists to isolate the per-access
# stack (step loop, conflict probes, commit sweep).
SCC_ARRIVAL_RATE = 50.0
WORKLOAD_TRANSACTIONS = 12_000
WORKLOAD_ARRIVAL_RATE = 120.0
ARRIVAL_BATCH = 200_000


def _record(benchmark, events: int) -> None:
    seconds = benchmark.stats.stats.min
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_sec"] = round(events / seconds)


# ----------------------------------------------------------------------
# bare event loop
# ----------------------------------------------------------------------


def _drive_event_loop(num_events: int) -> int:
    sim = ArraySimulator()
    remaining = [num_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    # Seed a small fan so the heap holds a realistic mix of times.
    for i in range(100):
        sim.schedule(0.001 * (i + 1), tick)
    sim.run()
    return sim.events_fired


def test_event_loop_throughput_array(benchmark):
    fired = benchmark.pedantic(
        lambda: _drive_event_loop(EVENT_BATCH),
        rounds=5, iterations=1, warmup_rounds=1
    )
    assert fired >= EVENT_BATCH
    _record(benchmark, fired)


# ----------------------------------------------------------------------
# full SCC cell
# ----------------------------------------------------------------------


def _scc_config():
    return baseline_config(
        num_transactions=SCC_TRANSACTIONS,
        warmup_commits=40,
        replications=1,
        arrival_rates=(SCC_ARRIVAL_RATE,),
        check_serializability=False,
    )


# The cell reuses one materialized workload across rounds, so it times
# the step loop alone; workload construction has its own entry below.
_SCC_WORKLOAD_CACHE: list = []


def _scc_workload() -> tuple:
    if not _SCC_WORKLOAD_CACHE:
        config = _scc_config()
        streams = RandomStreams(config.seed)
        tensors = WorkloadTensors.from_config(config, SCC_ARRIVAL_RATE, streams)
        _SCC_WORKLOAD_CACHE.append(tuple(tensors))
    return _SCC_WORKLOAD_CACHE[0]


def _run_scc_cell() -> RTDBSystem:
    config = _scc_config()
    system = RTDBSystem(
        protocol=SCC2S(),
        num_pages=config.num_pages,
        metrics=MetricsCollector(warmup_commits=config.warmup_commits),
        record_history=False,
    )
    system.load_workload(list(_scc_workload()))
    system.run()
    return system


# The SCC cell quiesces the collector for the timed region (collect,
# then disable): a gen-2 pass landing mid-round scans the whole test
# process heap and can inflate a round by tens of percent.  The cell
# allocates bounded, mostly short-lived garbage, so disabling collection
# for a ~100ms run is safe.


def _gc_off():
    gc.collect()
    gc.disable()
    return (), {}


def test_scc_step_loop_throughput_array(benchmark):
    try:
        system = benchmark.pedantic(
            _run_scc_cell,
            setup=_gc_off, rounds=5, iterations=1, warmup_rounds=1,
        )
    finally:
        gc.enable()
    # Every transaction must have committed (soft deadlines), or the run
    # measured a broken simulation rather than the hot path.
    assert system.committed_count == SCC_TRANSACTIONS
    _record(benchmark, system.sim.events_fired)
    benchmark.extra_info["restarts"] = system.metrics.restarts


# ----------------------------------------------------------------------
# one sweep cell's workload construction
# ----------------------------------------------------------------------


def _workload_config():
    return baseline_config(
        num_transactions=WORKLOAD_TRANSACTIONS,
        warmup_commits=40,
        replications=1,
        arrival_rates=(WORKLOAD_ARRIVAL_RATE,),
        check_serializability=False,
    )


def test_workload_tensor_throughput_array(benchmark):
    config = _workload_config()

    def precompute():
        streams = RandomStreams(config.seed).spawn(0)
        return WorkloadTensors.from_config(
            config, WORKLOAD_ARRIVAL_RATE, streams
        )

    tensors = benchmark.pedantic(precompute, rounds=7, iterations=1, warmup_rounds=1)
    assert len(tensors) == WORKLOAD_TRANSACTIONS
    benchmark.extra_info["transactions"] = len(tensors)


# ----------------------------------------------------------------------
# loading a sorted workload into the simulator
# ----------------------------------------------------------------------


def _noop(index: int) -> None:
    pass


def test_arrival_load_throughput_array(benchmark):
    times = [0.001 * (i + 1) for i in range(ARRIVAL_BATCH)]
    payloads = [(i,) for i in range(ARRIVAL_BATCH)]

    def load() -> ArraySimulator:
        sim = ArraySimulator()
        sim.schedule_batch(times, _noop, payloads)
        return sim

    sim = benchmark.pedantic(load, rounds=5, iterations=1, warmup_rounds=1)
    assert sim.pending_events == ARRIVAL_BATCH
    benchmark.extra_info["entries"] = ARRIVAL_BATCH

"""A finished cell leaves no reference cycles behind.

``run_instrumented`` closes its :class:`~repro.system.model.RTDBSystem`
when the cell ends (or raises), so reference counting frees the whole
run at once instead of leaving it for a full garbage collection.  Each
case runs a cell with the cyclic collector disabled, then asks the
collector what it would have had to reclaim: a ``repro`` object in that
garbage is a back-reference that ``close``/``unbind`` missed, and the
failure names its type.  While a cell runs, it holds the specs of the
transactions that have arrived and not committed, not its workload.
"""

import collections
import gc

import pytest

from repro.engine.array import WorkloadTensors
from repro.engine.rng import RandomStreams
from repro.experiments.parallel import SweepCell, _execute_cell
from repro.experiments.runner import run_instrumented
from repro.metrics.stats import MetricsCollector
from repro.protocols.registry import available_protocols, protocol_spec
from repro.system.model import RTDBSystem
from repro.telemetry.tracer import MemoryTracer
from repro.txn.spec import TransactionSpec
from repro.workloads.scenarios import available_scenarios, get_scenario
from tests.engine.generic_scc import generic_oracle

SCC_FAMILIES = ["scc-2s", "scc-ks?k=3", "scc-cb", "scc-dc", "scc-vw"]
RATE = 80.0


class _FailingTracer(MemoryTracer):
    """A tracer that raises from inside the event loop after ``LIMIT`` events.

    The override is class-level: an instance attribute wrapping a bound
    method would itself be a reference cycle.
    """

    __slots__ = ()
    LIMIT = 300

    def emit(self, *args, **kwargs):
        if len(self.events) >= self.LIMIT:
            raise RuntimeError("tracer failed mid-run")
        super().emit(*args, **kwargs)


def config(scenario="paper-baseline", num_servers=None):
    return get_scenario(scenario).to_config(
        num_transactions=150, warmup_commits=10, num_servers=num_servers
    )


def cell_runner(
    protocol, scenario="paper-baseline", num_servers=None, tracer=None,
    oracle=False,
):
    """A no-argument callable running one cell, building everything fresh.

    ``oracle`` runs an SCC family on the test-side generic loop
    (:mod:`tests.engine.generic_scc`) instead of the SCC step loop.
    """
    cfg = config(scenario, num_servers)
    spec = protocol_spec(protocol)
    factory = (lambda: generic_oracle(spec())) if oracle else spec

    def run():
        run_instrumented(
            factory,
            cfg,
            arrival_rate=RATE,
            tracer=tracer() if tracer is not None else None,
        )

    return run


def leaked(run):
    """``repro`` types (with counts) the collector reclaims after ``run()``."""
    run()  # warm-up: lazy imports and first-use caches
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if (type(obj).__module__ or "").startswith("repro")
        )
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def assert_freed(run):
    types = leaked(run)
    assert not types, f"cell left cyclic garbage: {dict(types.most_common(8))}"


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_family_frees_its_cell(protocol):
    assert_freed(cell_runner(protocol))


@pytest.mark.parametrize("protocol", SCC_FAMILIES)
def test_generic_scc_loop_frees_its_cell(protocol):
    assert_freed(cell_runner(protocol, oracle=True))


@pytest.mark.parametrize("protocol", ["occ-bc", "2pl-pa", "scc-2s", "scc-vw"])
def test_finite_resources_free_their_cell(protocol):
    assert_freed(cell_runner(protocol, num_servers=4))


@pytest.mark.parametrize("protocol", ["scc-2s", "occ-bc"])
def test_traced_cell_frees_its_events(protocol):
    assert_freed(cell_runner(protocol, tracer=MemoryTracer))


@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_scenario_frees_its_cell(scenario):
    assert_freed(cell_runner("scc-2s", scenario=scenario))


@pytest.mark.parametrize("protocol", ["scc-2s", "scc-vw", "occ-bc"])
def test_cell_that_raises_mid_run_frees_itself(protocol):
    cfg = config()
    cell = SweepCell(
        index=0, protocol=protocol, rate_index=0, arrival_rate=RATE, replication=0
    )
    errors = []

    def runner(cell):
        return run_instrumented(
            protocol_spec(cell.protocol),
            cfg,
            arrival_rate=cell.arrival_rate,
            replication=cell.replication,
            tracer=_FailingTracer(),
        )

    def run():
        errors.append(_execute_cell(cell, runner).error)

    assert_freed(run)
    assert [error.exc_type for error in errors] == ["RuntimeError"] * 2
    assert "tracer failed mid-run" in errors[0].message


def specs_alive():
    """Reachable specs: a collection first frees killed shadows' cycles."""
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is TransactionSpec]


@pytest.mark.parametrize("protocol", ["scc-2s", "occ-bc"])
def test_cell_holds_only_its_live_transactions(protocol):
    # Each spec is built as its arrival fires and dropped once it commits.
    # A committed spec outlives its commit only while an event of one of
    # its killed shadows is still queued (at most one step), never from
    # one 0.2 s sample to the next.
    cfg = config()
    system = RTDBSystem(
        protocol=protocol_spec(protocol)(),
        num_pages=cfg.num_pages,
        metrics=MetricsCollector(warmup_commits=cfg.warmup_commits),
    )
    elsewhere = specs_alive()
    others = {id(spec) for spec in elsewhere}

    def cell_specs():
        return {spec.txn_id for spec in specs_alive() if id(spec) not in others}

    peak = 0
    try:
        streams = RandomStreams(cfg.seed).spawn(0)
        system.load_workload(WorkloadTensors.from_config(cfg, RATE, streams))
        assert cell_specs() == set()
        lingering = set()
        instant = 0.0
        while system.committed_count < cfg.num_transactions:
            instant += 0.2
            system.sim.run(until=instant)
            alive = cell_specs()
            committed = alive - {spec.txn_id for spec in system.active_transactions}
            assert committed <= system._committed_ids
            assert not committed & lingering, "a committed spec stayed alive"
            lingering = committed
            peak = max(peak, len(alive))
        system.run()
    finally:
        system.close()
    assert 0 < peak < cfg.num_transactions / 4
    assert cell_specs() == set()

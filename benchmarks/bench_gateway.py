"""Experiment gateway: submission latency and event-stream throughput.

The gateway's promise is that simulation-as-a-service costs service
overhead, not simulation — a cached grid must come back at HTTP
round-trip speed.  Both benchmarks run a real server (a thread per
connection, real sockets) against a store pre-seeded with the whole
grid, so the numbers isolate the gateway hot path: spec validation,
fingerprint dedup, event fan-out, and chunked NDJSON streaming.

* ``submit_to_first_event`` — wall-clock from ``POST /experiments`` to
  the first event off the stream, the interactive feel of a notebook
  submission.
* ``stream_throughput`` — draining a cached grid's full event stream;
  ``extra_info`` records events per second.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from repro.gateway import (
    ClientQuotas,
    GatewayApp,
    GatewayClient,
    GatewayServer,
)

# A grid big enough that streaming dominates connection setup: 3
# protocols x 3 rates x 4 replications = 36 cells, ~76 events cached.
GATEWAY_SPEC = {
    "schema": 1,
    "protocols": ["scc-2s", "occ-bc", "wait-50"],
    "arrival_rates": [40.0, 70.0, 150.0],
    "replications": 4,
    "num_transactions": 120,
    "warmup_commits": 12,
    "seed": 1995,
}
GRID_CELLS = 36


@contextmanager
def _running_server(app):
    server = GatewayServer(app, port=0)
    server.start()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(30)


@pytest.fixture(scope="module")
def cached_gateway(tmp_path_factory):
    """A running gateway whose store already holds the whole grid."""
    root = tmp_path_factory.mktemp("gateway-bench")
    app = GatewayApp(
        store=str(root / "store.jsonl"),
        workers=2,
        workdir=str(root / "work"),
        # The default submit rate-limit would throttle back-to-back
        # benchmark rounds; admission control is benchmarked elsewhere.
        quotas=ClientQuotas(submit_burst=100_000.0, submit_rate=100_000.0),
    )
    with _running_server(app) as server:
        client = GatewayClient(port=server.port, client_id="warmup")
        accepted = client.submit(GATEWAY_SPEC)
        final = client.wait(accepted["id"])
        assert final["status"] == "done"
        assert final["total_cells"] == GRID_CELLS
        yield server
    app.close()


def test_gateway_submit_to_first_event(benchmark, cached_gateway):
    client = GatewayClient(port=cached_gateway.port, client_id="bench")

    def submit_and_first_event():
        accepted = client.submit(GATEWAY_SPEC)
        stream = client.events(accepted["id"])
        first = next(stream)
        stream.close()
        return accepted, first

    accepted, first = benchmark.pedantic(
        submit_and_first_event, rounds=50, iterations=1, warmup_rounds=5
    )
    # Fully cached: terminal at submit, and the stream replays from the
    # acceptance marker.
    assert accepted["status"] == "done"
    assert accepted["cached_cells"] == GRID_CELLS
    assert first["kind"] == "experiment_accepted"
    benchmark.extra_info["cells"] = GRID_CELLS


def test_gateway_stream_throughput(benchmark, cached_gateway):
    client = GatewayClient(port=cached_gateway.port, client_id="bench")
    accepted = client.submit(GATEWAY_SPEC)
    assert accepted["status"] == "done"

    def drain_stream():
        return list(client.events(accepted["id"]))

    events = benchmark.pedantic(
        drain_stream, rounds=50, iterations=1, warmup_rounds=5
    )
    outcomes = [e for e in events if e["kind"] == "cell_outcome"]
    assert len(outcomes) == GRID_CELLS
    assert all(e["cached"] for e in outcomes)
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["events_per_s"] = round(
        len(events) / benchmark.stats.stats.mean, 1
    )

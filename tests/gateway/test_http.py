"""End-to-end HTTP tests: server, client, streams, quotas, drain.

Covers the acceptance contract: a spec submitted over HTTP produces
store contents bit-identical to ``spec.run`` of the same spec;
overlapping concurrent submissions from different clients share
fingerprinted cells (observable as ``cached=true`` on the event stream)
and never duplicate records in either store backend; an over-quota
client gets 429 without disturbing others; a drain answers 503; a
malformed or over-cap ``Content-Length`` closes the connection before
any body is read.
"""

import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.experiments.spec import ExperimentSpec
from repro.gateway import ClientQuotas, GatewayClient, GatewayError
from repro.gateway import server as server_module
from repro.gateway.server import MAX_BODY_BYTES
from repro.results import diff_records, open_store

from tests.gateway.conftest import running_server, tiny_spec_dict


class TestRoundTrip:
    def test_submit_stream_results(self, make_app):
        app = make_app()
        with running_server(app) as server:
            client = GatewayClient(port=server.port, client_id="alice")
            assert client.health()["status"] == "ok"
            accepted = client.submit(tiny_spec_dict())
            events = list(client.events(accepted["id"]))
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "experiment_accepted"
            assert kinds[-1] == "experiment_done"
            assert kinds.count("cell_outcome") == 2
            assert client.status(accepted["id"])["status"] == "done"
            assert len(client.results(accepted["id"])) == 2
            assert accepted["id"] in {
                e["id"] for e in client.list_experiments()
            }

    def test_store_bit_identical_to_direct_run(self, make_app, tmp_path):
        spec_dict = tiny_spec_dict()
        app = make_app("gateway-store.jsonl")
        with running_server(app) as server:
            client = GatewayClient(port=server.port, client_id="alice")
            accepted = client.submit(spec_dict)
            client.wait(accepted["id"])
        ExperimentSpec.from_dict(spec_dict).run(
            store=tmp_path / "direct-store.jsonl"
        )
        direct_store = open_store(tmp_path / "direct-store.jsonl")
        gateway_store = open_store(tmp_path / "gateway-store.jsonl")
        report = diff_records(gateway_store.records(), direct_store.records())
        assert report["changed"] == []
        assert report["only_a"] == []
        assert report["only_b"] == []
        assert report["identical"] == 2

    def test_http_errors(self, make_app):
        app = make_app()
        with running_server(app) as server:
            client = GatewayClient(port=server.port)
            with pytest.raises(GatewayError) as info:
                client.status("missing")
            assert info.value.status == 404
            with pytest.raises(GatewayError) as info:
                client.submit({"schema": 1, "protocols": []})
            assert info.value.status == 400
            with pytest.raises(GatewayError) as info:
                client._request("GET", "/nowhere")
            assert info.value.status == 404
            with pytest.raises(GatewayError) as info:
                client._request("POST", "/healthz", body={})
            assert info.value.status == 405
            with pytest.raises(GatewayError) as info:
                client._request("POST", "/experiments", body=None)
            assert info.value.status == 400  # empty body


@pytest.mark.parametrize("store_name", ["store.jsonl", "store.sqlite"])
class TestConcurrentClients:
    def test_overlapping_grids_share_cells_in_both_backends(
        self, make_app, tmp_path, store_name
    ):
        spec_dict = tiny_spec_dict()
        app = make_app(store_name, workers=2)
        with running_server(app) as server:
            alice = GatewayClient(port=server.port, client_id="alice")
            bob = GatewayClient(port=server.port, client_id="bob")
            finals = {}

            def submit_and_wait(client):
                accepted = client.submit(spec_dict)
                finals[client.client_id] = client.wait(accepted["id"])

            threads = [
                threading.Thread(target=submit_and_wait, args=(c,))
                for c in (alice, bob)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert all(f["status"] == "done" for f in finals.values())
            # Each fingerprint enqueued at most once across both clients:
            # the overlap was served cached or shared, never recomputed.
            enqueued = sum(f["enqueued_cells"] for f in finals.values())
            assert enqueued == 2
            shared = sum(
                f["cached_cells"] + f["shared_cells"] for f in finals.values()
            )
            assert shared == 2
            # And the second stream observes the dedup as cached=true.
            follower = min(finals.values(), key=lambda f: f["enqueued_cells"])
            events = list(alice.events(follower["id"]))
            outcomes = [e for e in events if e["kind"] == "cell_outcome"]
            assert len(outcomes) == 2 and all(e["cached"] for e in outcomes)
        # No duplicate records in the backend, whichever it is.
        store = open_store(tmp_path / store_name)
        assert len(store) == 2
        fingerprints = [record.fingerprint for record in store.records()]
        assert len(fingerprints) == len(set(fingerprints))


class TestQuotasOverHttp:
    def test_429_with_retry_after_leaves_others_undisturbed(self, make_app):
        app = make_app(
            quotas=ClientQuotas(submit_burst=1.0, submit_rate=0.001)
        )
        with running_server(app) as server:
            alice = GatewayClient(port=server.port, client_id="alice")
            bob = GatewayClient(port=server.port, client_id="bob")
            first = alice.submit(tiny_spec_dict())
            with pytest.raises(GatewayError) as info:
                alice.submit(tiny_spec_dict(seed=99))
            assert info.value.status == 429
            assert info.value.retry_after is not None
            # Bob's bucket is his own: admitted while alice is throttled.
            other = bob.submit(tiny_spec_dict(seed=42))
            assert alice.wait(first["id"])["status"] == "done"
            assert bob.wait(other["id"])["status"] == "done"


class TestDrainOverHttp:
    def test_shutdown_answers_503_then_stops(self, make_app, file_event):
        started = file_event()
        release = file_event()

        def hold(cell):
            started.set()
            release.wait(30)

        app = make_app(workers=1, fault_hook=hold)
        with running_server(app) as server:
            client = GatewayClient(port=server.port, client_id="alice")
            accepted = client.submit(tiny_spec_dict())
            assert started.wait(10)
            stream_events = []
            streamer = threading.Thread(
                target=lambda: stream_events.extend(
                    client.events(accepted["id"])
                )
            )
            streamer.start()
            server.request_shutdown()
            deadline_tries = 100
            while not app.draining and deadline_tries:
                deadline_tries -= 1
                time.sleep(0.01)
            with pytest.raises(GatewayError) as info:
                client.submit(tiny_spec_dict(seed=5))
            assert info.value.status == 503
            release.set()
            streamer.join(30)
        # The open stream terminated cleanly at the interrupted marker.
        assert stream_events[-1]["kind"] == "experiment_interrupted"


class _ErrorRecords(logging.Handler):
    """Collects ERROR records logged while attached to the gateway logger."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record) -> None:
        self.records.append(record)


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes; return everything the server sends before closing.

    A server still waiting for a body never closes, so the socket timeout
    fails the caller instead of hanging it.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def submit_head(content_length: str) -> bytes:
    return (
        "POST /experiments HTTP/1.1\r\nHost: localhost\r\n"
        f"X-Client: alice\r\nContent-Length: {content_length}\r\n\r\n"
    ).encode("latin-1")


class TestRequestLimits:
    def test_body_cap_is_what_a_spec_needs(self):
        assert MAX_BODY_BYTES == 1024 * 1024

    def test_over_cap_length_closes_without_reading_the_body(self, make_app):
        with running_server(make_app()) as server:
            reply = raw_exchange(server.port, submit_head(str(MAX_BODY_BYTES + 1)))
        assert reply == b""

    @pytest.mark.parametrize("declared", ["abc", "1_0", "-1", "\xb2", ""])
    def test_malformed_length_closes_cleanly(self, make_app, declared):
        errors = _ErrorRecords()
        logger = logging.getLogger("repro.gateway")
        logger.addHandler(errors)
        try:
            with running_server(make_app()) as server:
                reply = raw_exchange(server.port, submit_head(declared))
        finally:
            logger.removeHandler(errors)
        assert reply == b""
        assert [record.getMessage() for record in errors.records] == []

    def test_valid_submit_still_accepted(self, make_app):
        body = json.dumps(tiny_spec_dict()).encode()
        with running_server(make_app()) as server:
            reply = raw_exchange(server.port, submit_head(str(len(body))) + body)
        assert reply.startswith(b"HTTP/1.1 202 ")


class TestStalledClient:
    def test_stalled_client_delays_no_one_and_is_cut_off(
        self, make_app, monkeypatch
    ):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 1.0)
        with running_server(make_app()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as stalled:
                stalled.sendall(b"GET /heal")  # half a request line
                opened = time.monotonic()
                client = GatewayClient(port=server.port)
                assert client.health()["status"] == "ok"
                # Served while the stalled connection was still open.
                stalled.setblocking(False)
                with pytest.raises(BlockingIOError):
                    stalled.recv(1)
                stalled.settimeout(10)
                # The server closes it, with no reply, once a read has
                # waited out the timeout.
                assert stalled.recv(1) == b""
                assert time.monotonic() - opened >= 0.9


class TestConcurrentConnections:
    def test_many_clients_are_served_and_leave_no_handler_behind(self, make_app):
        # More client threads than cores, with frequent thread switches:
        # every request is answered, and every handler thread takes itself
        # off the server's set once its connection closes.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_server(make_app()) as server:
                statuses = []

                def probe() -> None:
                    client = GatewayClient(port=server.port)
                    for _ in range(25):
                        statuses.append(client.health()["status"])

                threads = [threading.Thread(target=probe) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert statuses == ["ok"] * 200
                deadline = time.monotonic() + 5.0
                while server._handlers and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not server._handlers
        finally:
            sys.setswitchinterval(previous)

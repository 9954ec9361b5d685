"""GatewayApp behavior: submit, dedup, quotas, breaker degradation, drain."""

import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.gateway import (
    CircuitBreaker,
    ClientQuotas,
    GatewayApp,
    GatewayDraining,
    QuotaExceeded,
    UnknownExperiment,
)
from repro.gateway.routes import Request, dispatch

from tests.gateway.conftest import tiny_spec_dict


def wait_done(app: GatewayApp, experiment_id: str, timeout: float = 60.0) -> str:
    status = app._get(experiment_id).wait(timeout=timeout)
    assert status != "running", "experiment did not finish in time"
    return status


class TestSubmit:
    def test_runs_an_experiment_to_done(self, make_app):
        app = make_app()
        status = app.submit(tiny_spec_dict(), client="alice")
        assert status["total_cells"] == 2
        assert status["enqueued_cells"] == 2
        assert wait_done(app, status["id"]) == "done"
        final = app.status(status["id"])
        assert final["completed"] == 2
        assert final["failed"] == []
        assert len(app.results(status["id"])) == 2

    def test_event_stream_shape(self, make_app):
        app = make_app()
        status = app.submit(tiny_spec_dict(), client="alice")
        wait_done(app, status["id"])
        events, done = app.events_since(status["id"], 0)
        assert done
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "experiment_accepted"
        assert kinds[-1] == "experiment_done"
        assert kinds.count("cell_started") == 2
        assert kinds.count("cell_completed") == 2
        assert kinds.count("cell_outcome") == 2
        outcomes = [e for e in events if e["kind"] == "cell_outcome"]
        assert all(e["ok"] and not e["cached"] for e in outcomes)
        assert all(e["summary"] is not None for e in outcomes)

    def test_cursor_pagination(self, make_app):
        app = make_app()
        status = app.submit(tiny_spec_dict(), client="alice")
        wait_done(app, status["id"])
        head, _ = app.events_since(status["id"], 0)
        tail, done = app.events_since(status["id"], len(head) - 1)
        assert done
        assert tail == head[-1:]

    def test_invalid_spec_rejected_before_any_state(self, make_app):
        app = make_app()
        with pytest.raises(ConfigurationError):
            app.submit({"schema": 1, "protocols": []}, client="alice")
        assert app.list_experiments() == []
        assert app.quotas.snapshot() == {}

    def test_wrongly_typed_spec_is_a_400(self, make_app):
        app = make_app()
        inline = {"name": "inline", "description": "typed body"}
        cases = [
            ({"arrival_rates": [[70]]}, "arrival_rates"),
            ({"scenario_def": {**inline, "arrivals": 5}}, "arrivals"),
            ({"scenario_def": {**inline, "access": [1]}}, "access"),
            ({"scenario_def": {**inline, "arrival_rates": 5}}, "arrival_rates"),
            ({"scenario_def": {**inline, "num_pages": "x"}}, "num_pages"),
            ({"scenario_def": {**inline, "deadlines": "x"}}, "deadlines"),
            ({"scenario_def": {**inline, "name": 5}}, "name"),
        ]
        for fields, named in cases:
            body = json.dumps(tiny_spec_dict(**fields)).encode()
            response = dispatch(
                app, Request(method="POST", path="/experiments", body=body)
            )
            assert response.status == 400, fields
            assert f"{named!r} must be" in response.body["error"], fields
        assert app.list_experiments() == []

    def test_unknown_experiment_raises(self, make_app):
        app = make_app()
        with pytest.raises(UnknownExperiment):
            app.status("missing")
        with pytest.raises(UnknownExperiment):
            app.events_since("missing", 0)


class TestDedup:
    def test_resubmission_is_fully_cached(self, make_app):
        app = make_app()
        first = app.submit(tiny_spec_dict(), client="alice")
        wait_done(app, first["id"])
        stored = len(app.results(first["id"]))
        second = app.submit(tiny_spec_dict(), client="bob")
        # Every cell served from the store: terminal synchronously.
        assert second["status"] == "done"
        assert second["cached_cells"] == 2
        assert second["enqueued_cells"] == 0
        events, _ = app.events_since(second["id"], 0)
        outcomes = [e for e in events if e["kind"] == "cell_outcome"]
        assert len(outcomes) == 2 and all(e["cached"] for e in outcomes)
        assert len(app.results(second["id"])) == stored

    def test_in_flight_cells_are_shared_not_recomputed(self, make_app):
        release = threading.Event()
        app = make_app(fault_hook=lambda cell: release.wait(30))
        first = app.submit(tiny_spec_dict(), client="alice")
        second = app.submit(tiny_spec_dict(), client="bob")
        # Bob's grid is already in flight for alice: nothing re-enqueued.
        assert second["enqueued_cells"] == 0
        assert second["shared_cells"] + second["cached_cells"] == 2
        release.set()
        assert wait_done(app, first["id"]) == "done"
        assert wait_done(app, second["id"]) == "done"
        # One record per cell, not one per client.
        with app._store_lock:
            assert len(app._store) == 2
        events, _ = app.events_since(second["id"], 0)
        outcomes = [e for e in events if e["kind"] == "cell_outcome"]
        assert len(outcomes) == 2 and all(e["cached"] for e in outcomes)

    def test_cached_cells_do_not_charge_quota(self, make_app):
        app = make_app(quotas=ClientQuotas(max_queued_cells=2))
        first = app.submit(tiny_spec_dict(), client="alice")
        wait_done(app, first["id"])
        # 2 cached cells cost nothing, so a 2-cell cap still admits them.
        second = app.submit(tiny_spec_dict(), client="alice")
        assert second["status"] == "done"


class TestQuotas:
    def test_over_quota_client_rejected_others_undisturbed(self, make_app):
        release = threading.Event()
        app = make_app(
            quotas=ClientQuotas(max_experiments=1),
            fault_hook=lambda cell: release.wait(30),
        )
        running = app.submit(tiny_spec_dict(), client="alice")
        with pytest.raises(QuotaExceeded):
            app.submit(tiny_spec_dict(seed=99), client="alice")
        # Bob has his own budget and is admitted.
        other = app.submit(tiny_spec_dict(seed=42), client="bob")
        release.set()
        assert wait_done(app, running["id"]) == "done"
        assert wait_done(app, other["id"]) == "done"

    def test_experiment_slot_released_on_completion(self, make_app):
        app = make_app(quotas=ClientQuotas(max_experiments=1))
        first = app.submit(tiny_spec_dict(), client="alice")
        wait_done(app, first["id"])
        second = app.submit(tiny_spec_dict(seed=9), client="alice")
        assert wait_done(app, second["id"]) == "done"


class TestBreaker:
    def test_failing_worker_parks_and_experiment_degrades(self, make_app):
        def explode(cell):
            raise RuntimeError("poisoned cell")

        app = make_app(
            workers=1,
            breaker=CircuitBreaker(failure_threshold=2),
            fault_hook=explode,
        )
        spec = tiny_spec_dict(
            protocols=["scc-2s", "occ-bc", "wait-50"], replications=2
        )
        status = app.submit(spec, client="alice")
        assert wait_done(app, status["id"]) == "partial"
        final = app.status(status["id"])
        # 2 real failures trip the breaker; the rest degrade without
        # running.  Every cell is accounted for, none computed.
        assert final["completed"] == final["total_cells"] == 6
        assert len(final["failed"]) == 6
        assert len(app.results(status["id"])) == 0
        events, _ = app.events_since(status["id"], 0)
        kinds = [event["kind"] for event in events]
        assert "worker_lost" in kinds
        degraded = [
            e for e in events
            if e["kind"] == "cell_outcome"
            and e.get("error", {}).get("type") == "GatewayDegraded"
        ]
        assert len(degraded) == 4
        health = app.health()
        assert health["workers"]["gw-0"]["state"] == "parked"
        assert health["breaker"]["gw-0"]["state"] == "open"

    def test_success_keeps_the_circuit_closed(self, make_app):
        app = make_app(workers=1, breaker=CircuitBreaker(failure_threshold=2))
        status = app.submit(tiny_spec_dict(), client="alice")
        assert wait_done(app, status["id"]) == "done"
        assert app.health()["workers"]["gw-0"]["state"] in ("idle", "busy")

    def test_cooldown_breaker_half_opens_and_recovers(self, make_app):
        failing = threading.Event()
        failing.set()

        def flaky(cell):
            if failing.is_set():
                raise RuntimeError("transient poison")

        app = make_app(
            workers=1,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_seconds=0.1),
            fault_hook=flaky,
        )
        first = app.submit(tiny_spec_dict(protocols=["scc-2s"]), client="alice")
        assert wait_done(app, first["id"]) == "partial"
        deadline = time.monotonic() + 10
        while app.health()["workers"]["gw-0"]["state"] != "parked":
            assert time.monotonic() < deadline, "worker never parked"
            time.sleep(0.01)
        # The park is temporary: new work waits for the half-open probe
        # instead of degrading to synthetic failures.
        failing.clear()
        second = app.submit(tiny_spec_dict(seed=11), client="alice")
        assert wait_done(app, second["id"]) == "done"
        health = app.health()
        assert health["breaker"]["gw-0"]["state"] == "closed"
        assert health["workers"]["gw-0"]["state"] in ("idle", "busy")
        assert app.status(second["id"])["failed"] == []


class TestDrain:
    def test_drain_finishes_leased_cells_and_rejects_submissions(
        self, make_app
    ):
        started = threading.Event()
        release = threading.Event()

        def hold(cell):
            started.set()
            release.wait(30)

        app = make_app(workers=1, fault_hook=hold)
        status = app.submit(tiny_spec_dict(), client="alice")
        assert started.wait(10)
        drained = threading.Thread(target=app.drain)
        drained.start()
        deadline = time.monotonic() + 10
        while not app.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(GatewayDraining):
            app.submit(tiny_spec_dict(seed=5), client="bob")
        release.set()
        drained.join(30)
        assert not drained.is_alive()
        # The leased cell finished and persisted; the rest stayed queued
        # on the board, and the experiment was marked interrupted.
        final = app.status(status["id"])
        assert final["status"] == "interrupted"
        assert 1 <= final["completed"] < final["total_cells"]
        assert len(app.results(status["id"])) == final["completed"]
        events, done = app.events_since(status["id"], 0)
        assert done
        assert events[-1]["kind"] == "experiment_interrupted"

    def test_drain_is_idempotent(self, make_app):
        app = make_app()
        app.drain()
        app.drain()
        assert app.health()["status"] == "draining"

    def test_health_after_drain_reports_closed_store_and_board(self, make_app):
        app = make_app()
        app.drain()
        health = app.health()
        assert health["status"] == "draining"
        assert health["store"] is None
        assert health["board"] is None


class TestRecovery:
    def test_replacement_instance_adopts_pending_cells(self, tmp_path):
        workdir = str(tmp_path / "work")
        store_path = str(tmp_path / "store.jsonl")
        started = threading.Event()
        release = threading.Event()

        def hold(cell):
            started.set()
            release.wait(30)

        first = GatewayApp(
            store=store_path, workers=1, workdir=workdir, fault_hook=hold
        )
        try:
            status = first.submit(tiny_spec_dict(), client="alice")
            assert started.wait(10)
            drained = threading.Thread(target=first.drain)
            drained.start()
            # Workers stop claiming once the stop flag is up, so exactly
            # the leased cell finishes and the rest stay pending.
            deadline = time.monotonic() + 10
            while not first._stop.is_set():
                assert time.monotonic() < deadline, "drain never started"
                time.sleep(0.01)
            release.set()
            drained.join(30)
            assert not drained.is_alive()
            interrupted = first.status(status["id"])
            assert interrupted["status"] == "interrupted"
            orphans = interrupted["total_cells"] - interrupted["completed"]
            assert orphans >= 1
        finally:
            first.close()

        # A replacement instance on the same workdir adopts the orphans
        # under their original experiment id and runs them to completion.
        second = GatewayApp(store=store_path, workers=1, workdir=workdir)
        try:
            recovered = second.status(status["id"])
            assert recovered["client"] == "alice"
            assert recovered["total_cells"] == orphans
            assert recovered["enqueued_cells"] == orphans
            assert wait_done(second, status["id"]) == "done"
            events, done = second.events_since(status["id"], 0)
            assert done
            assert events[0]["kind"] == "experiment_recovered"
            assert events[-1]["kind"] == "experiment_done"
            kinds = [event["kind"] for event in events]
            assert kinds.count("cell_outcome") == orphans
            # Both instances' cells landed in the shared store: the
            # whole grid now replays from cache.
            resubmit = second.submit(tiny_spec_dict(), client="carol")
            assert resubmit["status"] == "done"
            assert resubmit["cached_cells"] == interrupted["total_cells"]
            # The board is fully resolved: no orphan left to busy-spin on.
            with second._lock:
                counts = second._board.counts()
            assert counts["pending"] == 0 and counts["claimed"] == 0
        finally:
            second.close()

    def test_undecodable_orphan_payloads_are_failed_not_spun(self, tmp_path):
        from repro.experiments.distributed import JobBoard

        workdir = tmp_path / "work"
        workdir.mkdir()
        board = JobBoard(workdir / "board.sqlite")
        # A pre-recovery board format: no spec to rebuild from.
        board.add(0, {"experiment": "deadbeef", "fingerprint": "ff" * 16,
                      "cell": {"index": 0, "protocol": "scc-2s",
                               "arrival_rate": 60.0, "replication": 0}})
        board.close()
        app = GatewayApp(
            store=str(tmp_path / "store.jsonl"), workers=1,
            workdir=str(workdir),
        )
        try:
            assert app.list_experiments() == []
            with app._lock:
                counts = app._board.counts()
            assert counts["failed"] == 1
            assert counts["pending"] == 0
        finally:
            app.close()

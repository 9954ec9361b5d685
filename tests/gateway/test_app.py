"""GatewayApp behavior: submit, dedup, quotas, breaker degradation, drain."""

import gc
import json
import sys
import threading
import time
import weakref

import pytest

import repro.gateway.app as gateway_app
from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import build_cells, normalize_protocols
from repro.experiments.spec import ExperimentSpec
from repro.gateway import (
    CircuitBreaker,
    ClientQuotas,
    GatewayApp,
    GatewayDraining,
    QuotaExceeded,
    UnknownExperiment,
)
from repro.gateway.routes import Request, dispatch
from repro.results.fingerprint import cell_fingerprint, config_payload

from tests.gateway.conftest import tiny_spec_dict


def wait_done(app: GatewayApp, experiment_id: str, timeout: float = 60.0) -> str:
    status = app._get(experiment_id).wait(timeout=timeout)
    assert status != "running", "experiment did not finish in time"
    return status


def events_of(app: GatewayApp, experiment_id: str) -> tuple:
    """The experiment's events so far, decoded, and whether they are all."""
    lines, done = app.wait_events(experiment_id, 0, 0)
    return [json.loads(line) for line in lines], done


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
        events, done = events_of(app, status["id"])
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
        head, _ = app.wait_events(status["id"], 0, 0)
        tail, done = app.wait_events(status["id"], len(head) - 1, 0)
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

    def test_repeated_cells_are_a_400(self, make_app):
        # One computation, one record: a spec whose grid would hold one
        # fingerprint twice is refused before anything is enqueued.
        app = make_app()
        cases = [
            ({"arrival_rates": [60, 60]}, "repeat"),
            ({"protocols": ["scc-ks", "scc-ks?k=2"]}, "same spec"),
        ]
        for fields, named in cases:
            body = json.dumps(tiny_spec_dict(**fields)).encode()
            response = dispatch(
                app, Request(method="POST", path="/experiments", body=body)
            )
            assert response.status == 400, fields
            assert named in response.body["error"], fields
        assert app.list_experiments() == []
        assert len(app._store) == 0

    def test_axes_that_cannot_run_are_a_400(self, make_app):
        # A rate that is not positive and finite, or a negative seed,
        # would fail every cell and trip the worker breaker; it is
        # refused before anything is enqueued.
        app = make_app()
        breaker = app.breaker.snapshot()
        for field in ('"arrival_rates": [-5]', '"arrival_rates": [1e309]',
                      '"seed": -1'):
            body = b'{"schema": 1, "protocols": ["scc-2s"], %s}' % field.encode()
            response = dispatch(
                app, Request(method="POST", path="/experiments", body=body)
            )
            assert response.status == 400, field
        assert app.list_experiments() == []
        assert app.breaker.snapshot() == breaker

    def test_deeply_nested_body_is_a_400(self, make_app):
        app = make_app()
        response = dispatch(
            app,
            Request(method="POST", path="/experiments", body=b"[" * 100_000),
        )
        assert response.status == 400
        assert "too deeply" in response.body["error"]

    def test_callable_protocol_entry_rejected(self, make_app):
        from repro.core.scc_2s import SCC2S

        app = make_app()
        for entry in (SCC2S, lambda: SCC2S()):
            with pytest.raises(ConfigurationError, match="register_protocol"):
                app.submit(tiny_spec_dict(protocols=[entry]), client="alice")
        assert app.list_experiments() == []

    def test_object_engine_spec_is_a_400(self, make_app):
        app = make_app()
        body = json.dumps({**tiny_spec_dict(), "engine": "object"}).encode()
        response = dispatch(
            app, Request(method="POST", path="/experiments", body=body)
        )
        assert response.status == 400
        assert "object engine was removed" in response.body["error"]
        assert app.list_experiments() == []

    def test_unknown_experiment_raises(self, make_app):
        app = make_app()
        with pytest.raises(UnknownExperiment):
            app.status("missing")
        with pytest.raises(UnknownExperiment):
            app.wait_events("missing", 0, 0)


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
        events, _ = events_of(app, second["id"])
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
        events, _ = events_of(app, second["id"])
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

    @pytest.mark.parametrize("replications", [1_000_000, 10**20])
    def test_hopeless_grid_refused_before_it_is_built(
        self, make_app, replications
    ):
        # The cell count is arithmetic: a grid whose fresh cells must
        # exceed the quota gets its 429 without building, fingerprinting
        # or looking up a single cell, and changes nothing.  One worker
        # holds the first cell inside its hook, so no cell starts (and
        # publishes an event) between the two snapshots.
        release = threading.Event()
        held = threading.Event()

        def hold(cell):
            held.set()
            release.wait(30)

        app = make_app(workers=1, fault_hook=hold)
        app.submit(tiny_spec_dict(), client="alice")
        assert held.wait(30), "no worker claimed the first cell"
        before = (app.list_experiments(), app.quotas.snapshot(),
                  dict(app._inflight), dict(app._cells))
        started = time.monotonic()
        with pytest.raises(QuotaExceeded, match="at least"):
            app.submit(tiny_spec_dict(replications=replications), client="alice")
        assert time.monotonic() - started < 1.0
        after = (app.list_experiments(), app.quotas.snapshot(),
                 dict(app._inflight), dict(app._cells))
        assert after == before
        response = dispatch(
            app,
            Request(
                method="POST",
                path="/experiments",
                body=json.dumps(tiny_spec_dict(replications=replications)).encode(),
                headers={"x-client": "bob"},
            ),
        )
        assert response.status == 429
        assert "bob" not in app.quotas.snapshot()
        release.set()

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
        events, _ = events_of(app, status["id"])
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
        events, done = events_of(app, status["id"])
        assert done
        assert events[-1]["kind"] == "experiment_interrupted"

    def test_cell_in_flight_past_the_drain_still_lands_in_the_store(
        self, make_app
    ):
        # The drain gives up on the held worker and interrupts the
        # experiment; the worker then completes its cell, which reads
        # the interrupted experiment's config.
        started = threading.Event()
        release = threading.Event()

        def hold(cell):
            started.set()
            release.wait(30)

        app = make_app(workers=1, fault_hook=hold)
        status = app.submit(tiny_spec_dict(), client="alice")
        assert started.wait(10)
        app.drain(timeout=0.1)
        assert app.status(status["id"])["status"] == "interrupted"
        release.set()
        app._workers[0].thread.join(30)
        records = app.results(status["id"])
        assert len(records) == 1
        assert records[0]["fingerprint"] == app._get(status["id"]).fingerprints[0]

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


class TestFinishedExperiments:
    def test_every_stored_line_re_encodes_to_itself(self, make_app):
        app = make_app()
        status = app.submit(tiny_spec_dict(), client="alice")
        assert wait_done(app, status["id"]) == "done"
        lines, done = app.wait_events(status["id"], 0, 0)
        assert done and len(lines) == app.status(status["id"])["events"]
        for line in lines:
            event = json.loads(line)
            assert line == (json.dumps(event, sort_keys=True) + "\n").encode()

    def test_finished_experiment_lets_its_config_go(self, make_app):
        release = threading.Event()
        app = make_app(fault_hook=lambda cell: release.wait(30))
        status = app.submit(tiny_spec_dict(), client="alice")
        config = weakref.ref(app._get(status["id"]).config)
        release.set()
        assert wait_done(app, status["id"]) == "done"
        gc.collect()
        assert config() is None

    def test_finished_experiment_reads_the_same(self, make_app):
        # Status, events and results come from what a finished
        # experiment keeps: labels, counters and fingerprints.
        spec_dict = tiny_spec_dict()
        spec = ExperimentSpec.from_dict(spec_dict)
        config = spec.to_config()
        specs = normalize_protocols(spec.protocols)
        cells = build_cells(list(specs), tuple(config.arrival_rates), 1)
        fingerprints = [
            cell_fingerprint(
                config_payload(config), specs[cell.protocol],
                cell.arrival_rate, cell.replication,
            )
            for cell in cells
        ]
        app = make_app()
        for cached in (False, True):
            status = app.submit(spec_dict, client="alice")
            assert wait_done(app, status["id"]) == "done"
            final = app.status(status["id"])
            assert final["protocols"] == ["SCC-2S", "OCC-BC"]
            assert final["scenario"] is None
            assert (final["total_cells"], final["completed"]) == (2, 2)
            assert final["cached_cells"] == (2 if cached else 0)
            assert final["failed"] == []
            events, done = events_of(app, status["id"])
            assert done and final["events"] == len(events)
            outcomes = [e for e in events if e["kind"] == "cell_outcome"]
            assert [e["cached"] for e in outcomes] == [cached, cached]
            assert events[-1] == {
                "kind": "experiment_done", "experiment": status["id"],
                "status": "done", "total": 2, "completed": 2, "failed": 0,
            }
            results = app.results(status["id"])
            assert [r["fingerprint"] for r in results] == fingerprints
            assert [r["protocol"] for r in results] == ["SCC-2S", "OCC-BC"]


class TestRetention:
    def test_earliest_finished_experiments_are_forgotten(
        self, make_app, monkeypatch
    ):
        monkeypatch.setattr(gateway_app, "MAX_FINISHED_EXPERIMENTS", 2)
        release = threading.Event()
        app = make_app(
            workers=1,
            fault_hook=lambda cell: cell.arrival_rate == 61.0 and release.wait(30),
        )
        first = app.submit(tiny_spec_dict(), client="alice")["id"]
        wait_done(app, first)
        running = app.submit(tiny_spec_dict(arrival_rates=[61.0]))["id"]
        # Served wholly from the store, so each is done on return.
        cached = [app.submit(tiny_spec_dict())["id"] for _ in range(4)]
        assert [app.status(i)["status"] for i in cached[2:]] == ["done"] * 2

        assert [exp["id"] for exp in app.list_experiments()] == [
            running, *cached[2:]
        ]
        for gone in (first, *cached[:2]):
            with pytest.raises(UnknownExperiment):
                app.status(gone)
            with pytest.raises(UnknownExperiment):
                app.results(gone)
            for path in (f"/experiments/{gone}", f"/experiments/{gone}/events",
                         f"/experiments/{gone}/results"):
                response = dispatch(app, Request(method="GET", path=path))
                assert response.body == {
                    "error": f"unknown experiment {gone!r}", "status": 404
                }, path
        counts = app.health()["experiments"]
        assert (counts["running"], counts["done"]) == (1, 2)

        # The running one was never evicted; finishing evicts the
        # earliest finished in its place.
        release.set()
        assert wait_done(app, running) == "done"
        assert [exp["id"] for exp in app.list_experiments()] == [
            running, cached[3]
        ]

    def test_concurrent_finishes_keep_the_bound(self, make_app, monkeypatch):
        # Experiments finish on many threads at once; a lost update to
        # the finish order would leave the registry off its bound.
        monkeypatch.setattr(gateway_app, "MAX_FINISHED_EXPERIMENTS", 5)
        app = make_app()
        wait_done(app, app.submit(tiny_spec_dict())["id"])
        errors = []

        def submit_cached(thread):
            try:
                for i in range(15):
                    status = app.submit(tiny_spec_dict(), client=f"c{thread}-{i}")
                    assert status["status"] == "done"
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_cached, args=(t,)) for t in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(app._finished) == 5
        assert set(app._finished) == {e["id"] for e in app.list_experiments()}
        assert app.health()["experiments"]["done"] == 5


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
            events, done = events_of(second, status["id"])
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

    def test_finished_orphan_releases_no_quota_of_its_client(self, tmp_path):
        # The instance that accepted the orphan charged for it; this one
        # did not, so the orphan finishing frees none of alice's charges
        # for her new experiment.
        from repro.experiments.distributed import JobBoard

        workdir = tmp_path / "work"
        workdir.mkdir()
        board = JobBoard(workdir / "board.sqlite")
        board.add(0, {"experiment": "cafef00d", "client": "alice",
                      "fingerprint": "ee" * 16,
                      "cell": {"index": 0, "protocol": "SCC-2S",
                               "rate_index": 0, "arrival_rate": 60.0,
                               "replication": 0},
                      "spec": tiny_spec_dict()})
        board.close()
        release_orphan = threading.Event()
        release_new = threading.Event()

        def hold(cell):
            (release_orphan if cell.arrival_rate == 60.0 else release_new).wait(30)

        app = GatewayApp(
            store=str(tmp_path / "store.jsonl"), workers=1,
            workdir=str(workdir), quotas=ClientQuotas(max_experiments=1),
            fault_hook=hold,
        )
        try:
            new = app.submit(
                tiny_spec_dict(arrival_rates=[61.0]), client="alice"
            )
            charged = app.quotas.snapshot()["alice"]
            assert charged == {"experiments": 1, "queued_cells": 2}
            release_orphan.set()
            assert wait_done(app, "cafef00d") == "done"
            assert app.status(new["id"])["status"] == "running"
            assert app.quotas.snapshot()["alice"] == charged
            with pytest.raises(QuotaExceeded):
                app.submit(tiny_spec_dict(seed=99), client="alice")
            release_new.set()
            assert wait_done(app, new["id"]) == "done"
            assert app.quotas.snapshot().get("alice", {}).get("experiments", 0) == 0
        finally:
            release_orphan.set()
            release_new.set()
            app.close()

    def test_orphan_spec_with_engine_null_is_adopted(self, tmp_path):
        from repro.experiments.distributed import JobBoard

        workdir = tmp_path / "work"
        workdir.mkdir()
        board = JobBoard(workdir / "board.sqlite")
        # A board persisted while specs still carried the engine choice.
        board.add(0, {"experiment": "cafef00d", "client": "alice",
                      "fingerprint": "ee" * 16,
                      "cell": {"index": 0, "protocol": "SCC-2S",
                               "rate_index": 0, "arrival_rate": 60.0,
                               "replication": 0},
                      "spec": {**tiny_spec_dict(), "engine": None}})
        board.close()
        app = GatewayApp(
            store=str(tmp_path / "store.jsonl"), workers=1,
            workdir=str(workdir),
        )
        try:
            recovered = app.status("cafef00d")
            assert recovered["client"] == "alice"
            assert wait_done(app, "cafef00d") == "done"
            with app._lock:
                counts = app._board.counts()
            assert counts["failed"] == 0
            assert counts["pending"] == 0 and counts["claimed"] == 0
        finally:
            app.close()

    @pytest.mark.parametrize("bad_payload", ["{not json", '["a", "list"]'])
    def test_one_damaged_orphan_row_fails_alone(self, tmp_path, bad_payload):
        import sqlite3

        from repro.experiments.distributed import JobBoard

        workdir = tmp_path / "work"
        workdir.mkdir()
        board = JobBoard(workdir / "board.sqlite")
        board.add(0, {"experiment": "cafef00d", "client": "alice",
                      "fingerprint": "ee" * 16,
                      "cell": {"index": 0, "protocol": "SCC-2S",
                               "rate_index": 0, "arrival_rate": 60.0,
                               "replication": 0},
                      "spec": tiny_spec_dict()})
        board.close()
        conn = sqlite3.connect(workdir / "board.sqlite")
        conn.execute("INSERT INTO cells (idx, payload) VALUES (1, ?)",
                     (bad_payload,))
        conn.commit()
        conn.close()
        app = GatewayApp(
            store=str(tmp_path / "store.jsonl"), workers=1,
            workdir=str(workdir),
        )
        try:
            assert app.status("cafef00d")["client"] == "alice"
            assert wait_done(app, "cafef00d") == "done"
            with app._lock:
                counts = app._board.counts()
            assert counts["failed"] == 1
            assert counts["pending"] == 0 and counts["claimed"] == 0
        finally:
            app.close()

    def test_garbage_board_file_is_one_typed_error(self, tmp_path):
        workdir = tmp_path / "work"
        workdir.mkdir()
        board_path = workdir / "board.sqlite"
        board_path.write_bytes(b"this is not a database" * 64)
        with pytest.raises(ReproError) as excinfo:
            GatewayApp(
                store=str(tmp_path / "store.jsonl"), workers=1,
                workdir=str(workdir),
            )
        assert str(board_path) in str(excinfo.value)
        assert "job board" in str(excinfo.value)

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

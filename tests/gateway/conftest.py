"""Shared helpers for the gateway tests: tiny specs, in-process servers,
and events a forked host can wait on."""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.gateway import GatewayApp, GatewayServer


def tiny_spec_dict(**overrides) -> dict:
    """A fast two-cell experiment spec (one rate, one replication)."""
    spec = {
        "schema": 1,
        "protocols": ["scc-2s", "occ-bc"],
        "arrival_rates": [60.0],
        "replications": 1,
        "num_transactions": 40,
        "warmup_commits": 4,
        "seed": 7,
    }
    spec.update(overrides)
    return spec


class FileEvent:
    """A ``threading.Event`` that also works across a fork.

    A gateway's ``fault_hook`` runs in a forked host, which an event of
    the test process never reaches.  This one is a file: :meth:`set`
    creates it and :meth:`wait` polls for it, from any process.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def set(self) -> None:
        self.path.touch()

    def is_set(self) -> bool:
        return self.path.exists()

    def wait(self, timeout=None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True


@pytest.fixture
def file_event(tmp_path):
    """Factory of fresh :class:`FileEvent` objects under ``tmp_path``."""
    count = itertools.count()
    return lambda: FileEvent(tmp_path / f"event-{next(count)}")


@pytest.fixture
def make_app(tmp_path):
    """Factory building gateway apps over a store in ``tmp_path``.

    Every app built is drained and closed at teardown, so tests never
    leak hosts.
    """
    apps = []

    def build(store_name: str = "store.jsonl", **kwargs) -> GatewayApp:
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("workdir", str(tmp_path / f"work-{len(apps)}"))
        app = GatewayApp(store=str(tmp_path / store_name), **kwargs)
        apps.append(app)
        return app

    yield build
    for app in apps:
        app.close()


@contextmanager
def running_server(app: GatewayApp):
    """Serve ``app`` on a background thread; yields the bound server.

    Shuts the server down (draining the app) on exit, and fails the test
    if its thread is still running afterwards.
    """
    server = GatewayServer(app, port=0)
    server.start()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.request_shutdown()  # idempotent: a test may have shut it down
        thread.join(30)
        assert not thread.is_alive(), "gateway server did not stop"

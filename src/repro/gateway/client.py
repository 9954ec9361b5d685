"""A thin stdlib client for the experiment gateway.

Wraps :mod:`http.client` — no dependencies, usable from tests, the smoke
script, and notebooks:

.. code-block:: python

    from repro.gateway import GatewayClient

    client = GatewayClient(port=8642, client_id="alice")
    accepted = client.submit(spec_dict)
    for event in client.events(accepted["id"]):
        print(event["kind"])
    records = client.results(accepted["id"])

:meth:`GatewayClient.events` consumes the chunked NDJSON stream
incrementally (``http.client`` de-chunks transparently), yielding each
event dict as the server emits it.  Error statuses raise
:class:`GatewayError` carrying the decoded error body.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ReproError

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(ReproError):
    """A non-2xx gateway response.

    Attributes
    ----------
    status : int
        The HTTP status code.
    payload : dict
        The decoded JSON error body (``{"error": ..., "status": ...}``,
        plus ``retry_after`` on 429s).
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        message = payload.get("error", f"gateway returned HTTP {status}")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload

    @property
    def retry_after(self) -> Optional[float]:
        """The 429 backoff hint, when the gateway sent one."""
        return self.payload.get("retry_after")


class GatewayClient:
    """Talk JSON-over-HTTP to one gateway instance.

    Args:
        host: Gateway host.
        port: Gateway port.
        client_id: Sent as ``X-Client`` — the quota key. Distinct
            clients get independent quotas while still sharing the
            gateway's cell cache.
        timeout: Socket timeout per request (streams wait at most this
            long *between* events).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        client_id: str = "anonymous",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _headers(self) -> Dict[str, str]:
        return {
            "X-Client": self.client_id,
            "Content-Type": "application/json",
        }

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Any:
        conn = self._connection()
        try:
            conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers=self._headers(),
            )
            response = conn.getresponse()
            raw = response.read()
            payload = json.loads(raw) if raw else None
            if response.status >= 400:
                raise GatewayError(
                    response.status,
                    payload if isinstance(payload, dict) else {},
                )
            return payload
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``: service status, workers, quotas, board, store."""
        return self._request("GET", "/healthz")

    def submit(self, spec: dict) -> dict:
        """``POST /experiments``: submit one ``ExperimentSpec`` dict.

        Returns:
            The accepted experiment's status dict (its ``id`` keys every
            other call).

        Raises:
            GatewayError: 400 on an invalid spec, 429 over quota, 503
                while draining.
        """
        return self._request("POST", "/experiments", body=spec)

    def list_experiments(self) -> List[dict]:
        """``GET /experiments``: status dicts of every experiment."""
        return self._request("GET", "/experiments")["experiments"]

    def status(self, experiment_id: str) -> dict:
        """``GET /experiments/{id}``: one experiment's status dict."""
        return self._request("GET", f"/experiments/{experiment_id}")

    def results(self, experiment_id: str) -> List[dict]:
        """``GET /experiments/{id}/results``: stored records, cell order."""
        return self._request("GET", f"/experiments/{experiment_id}/results")[
            "records"
        ]

    def events(self, experiment_id: str) -> Iterator[dict]:
        """``GET /experiments/{id}/events``: yield events as they stream.

        Yields every event from the start of the experiment (the stream
        always replays from the first event) until the gateway closes
        the stream at a terminal state.
        """
        conn = self._connection()
        try:
            conn.request(
                "GET",
                f"/experiments/{experiment_id}/events",
                headers=self._headers(),
            )
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                payload = json.loads(raw) if raw else {}
                raise GatewayError(
                    response.status,
                    payload if isinstance(payload, dict) else {},
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def wait(self, experiment_id: str) -> dict:
        """Stream events until the experiment ends; return its final status."""
        for event in self.events(experiment_id):
            if event.get("kind") in (
                "experiment_done",
                "experiment_interrupted",
            ):
                break
        return self.status(experiment_id)

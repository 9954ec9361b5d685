"""HTTP routing for the gateway: pure request -> response dispatch.

The route table is deliberately transport-free: :func:`dispatch` maps a
parsed :class:`Request` onto :class:`~repro.gateway.app.GatewayApp`
calls and returns either a JSON :class:`Response` or an
:class:`EventStream` marker the server turns into a chunked stream.
Keeping it free of sockets makes the whole API surface testable without
a running server.

The error contract, in one place:

========================================  ======
condition                                 status
========================================  ======
malformed JSON / invalid spec             400
unknown experiment id / unknown path      404
method not allowed on a known path        405
client over quota (``QuotaExceeded``)     429
unexpected server-side failure            500
gateway draining (``GatewayDraining``)    503
========================================  ======

429 responses carry ``Retry-After`` when the violated gate is the
submission token bucket (hard caps clear only when work finishes, so
they send no hint).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Union

from repro._record import Record
from repro.errors import ReproError
from repro.gateway.app import GatewayApp, GatewayDraining, UnknownExperiment
from repro.gateway.quotas import QuotaExceeded
from repro.telemetry.log import get_logger

__all__ = ["EventStream", "Request", "Response", "STATUS_REASONS", "dispatch"]

_log = get_logger("gateway")

#: Reason phrases for every status the gateway emits.
STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: The header carrying the quota key; absent means ``"anonymous"``.
CLIENT_HEADER = "x-client"


class Request(Record):
    """One parsed HTTP request (header names lower-cased by the parser)."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> None:
        self.method = method
        self.path = path
        self.headers = {} if headers is None else headers
        self.body = body

    @property
    def client(self) -> str:
        """The quota key from ``X-Client`` (``"anonymous"`` when absent)."""
        value = self.headers.get(CLIENT_HEADER, "").strip()
        return value or "anonymous"

    def json(self) -> Any:
        """The body decoded as JSON.

        Raises:
            ValueError: On an empty or undecodable body, or one nested
                deeper than the decoder's recursion limit.
        """
        if not self.body:
            raise ValueError("request body is empty; expected JSON")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(
                "request body nests JSON arrays or objects too deeply"
            ) from None


class Response(Record):
    """One JSON response: status plus a JSON-ready body."""

    __slots__ = ("status", "body", "headers")

    def __init__(
        self, status: int, body: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self.status = status
        self.body = body
        self.headers = {} if headers is None else headers

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    def encode_body(self) -> bytes:
        return (json.dumps(self.body, sort_keys=True) + "\n").encode("utf-8")


class EventStream(Record):
    """Marker telling the server to stream an experiment's events chunked."""

    __slots__ = ("experiment_id",)

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id


def _error(status: int, message: str, **extra: Any) -> Response:
    body = {"error": message, "status": status}
    body.update(extra)
    return Response(status=status, body=body)


def dispatch(app: GatewayApp, request: Request) -> Union[Response, EventStream]:
    """Route one request against the gateway application.

    Never raises: every failure mode maps to an error response per the
    module-level contract table.
    """
    try:
        return _route(app, request)
    except ValueError as exc:
        # Undecodable request bodies (see Request.json).
        return _error(400, str(exc))
    except UnknownExperiment as exc:
        return _error(404, str(exc))
    except QuotaExceeded as exc:
        headers = {}
        if exc.retry_after is not None:
            headers["Retry-After"] = str(max(1, round(exc.retry_after)))
        response = _error(
            429, str(exc), client=exc.client, retry_after=exc.retry_after
        )
        response.headers.update(headers)
        return response
    except GatewayDraining as exc:
        return _error(503, str(exc))
    except ReproError as exc:
        # The spec layer's ConfigurationError and friends: a bad payload.
        return _error(400, str(exc))
    except Exception as exc:  # noqa: BLE001 - the server must not die
        _log.error("unhandled error for %s %s: %s", request.method,
                   request.path, exc)
        return _error(500, f"internal error: {type(exc).__name__}: {exc}")


def _route(app: GatewayApp, request: Request) -> Union[Response, EventStream]:
    path = request.path.split("?", 1)[0].rstrip("/") or "/"
    parts = [part for part in path.split("/") if part]

    if path == "/healthz":
        if request.method != "GET":
            return _error(405, "use GET /healthz")
        return Response(status=200, body=app.health())

    if parts[:1] == ["experiments"]:
        if len(parts) == 1:
            if request.method == "POST":
                status = app.submit(request.json(), client=request.client)
                return Response(status=202, body=status)
            if request.method == "GET":
                return Response(
                    status=200, body={"experiments": app.list_experiments()}
                )
            return _error(405, "use GET or POST /experiments")
        if len(parts) == 2:
            if request.method != "GET":
                return _error(405, "use GET /experiments/{id}")
            return Response(status=200, body=app.status(parts[1]))
        if len(parts) == 3 and parts[2] == "events":
            if request.method != "GET":
                return _error(405, "use GET /experiments/{id}/events")
            app.status(parts[1])  # 404 before committing to a stream
            return EventStream(experiment_id=parts[1])
        if len(parts) == 3 and parts[2] == "results":
            if request.method != "GET":
                return _error(405, "use GET /experiments/{id}/results")
            return Response(
                status=200,
                body={
                    "experiment": parts[1],
                    "records": app.results(parts[1]),
                },
            )

    return _error(404, f"no route for {request.method} {path}")

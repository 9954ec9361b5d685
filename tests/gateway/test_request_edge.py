"""Fuzz the gateway's request edge: any byte stream, parsed then routed.

``repro.gateway.server._read_request`` parses whatever a client sends, and
:func:`~repro.gateway.routes.dispatch` routes what it parses.  For every
input the parser must return a :class:`~repro.gateway.routes.Request` or
a clean ``None`` (the server then closes the connection), and no parsed
request may be answered with a 500: malformed input is the client's
error, a 4xx.
"""

import io
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayApp
from repro.gateway.routes import EventStream, Request, dispatch
from repro.gateway.server import _read_request

from tests.gateway.conftest import running_server, tiny_spec_dict

METHODS = [b"GET", b"POST", b"PUT", b"get", b"DELETE"]
PATHS = [
    b"/experiments",
    b"/experiments/abc",
    b"/experiments/abc/events",
    b"/experiments/abc/results",
    b"/experiments/abc/other",
    b"/healthz",
    b"/",
    b"/experiments?x=1",
]
BODIES = [
    b"",
    b"{}",
    b"[]",
    b"null",
    b"[" * 100_000,
    b'{"schema": 1, "protocols": []}',
    b'{"schema": 1, "protocols": [{}]}',
    b'{"schema": 1, "protocols": ["scc-2s"], "arrival_rates": [-5]}',
    b'{"schema": 1, "protocols": ["scc-2s"], "replications": 100000000000}',
    b"\xff\xfe\x00",
]


@st.composite
def http_requests(draw):
    """Request-shaped byte streams with every part open to garbage."""
    def part(known, size):
        return draw(st.one_of(st.sampled_from(known), st.binary(max_size=size)))

    body = part(BODIES, 200)
    length = part([str(len(body)).encode(), b"0", b"1_0", b"-1", b" 5"], 8)
    headers = draw(
        st.lists(
            st.tuples(
                st.sampled_from([b"X-Client", b"Host", b"Content-Length"])
                | st.binary(max_size=12),
                st.binary(max_size=24),
            ),
            max_size=3,
        )
    )
    head = b" ".join(
        [part(METHODS, 8), part(PATHS, 24), part([b"HTTP/1.1"], 10)]
    )
    for name, value in headers:
        head += b"\r\n" + name + b": " + value
    head += b"\r\nContent-Length: " + length
    return head + b"\r\n\r\n" + body


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    def refuse(cell):
        raise RuntimeError("fuzzed submissions never run")

    root = tmp_path_factory.mktemp("fuzz")
    app = GatewayApp(
        store=str(root / "store.jsonl"),
        workers=1,
        workdir=str(root / "work"),
        fault_hook=refuse,
    )
    yield app
    app.close()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=300), http_requests()))
def test_any_byte_stream_parses_cleanly_and_never_500s(app, data):
    request = _read_request(io.BytesIO(data))
    if request is None:
        return
    assert isinstance(request, Request)
    result = dispatch(app, request)
    if not isinstance(result, EventStream):
        assert result.status != 500, result.body


def test_request_sent_one_byte_per_write_is_served(make_app):
    body = json.dumps(tiny_spec_dict()).encode()
    request = (
        "POST /experiments HTTP/1.1\r\nHost: localhost\r\n"
        f"X-Client: alice\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body
    with running_server(make_app()) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in request:
                sock.sendall(bytes([byte]))
            reply = sock.makefile("rb").read()
    assert reply.startswith(b"HTTP/1.1 202 ")
    accepted = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert accepted["client"] == "alice"
    assert accepted["total_cells"] == 2

"""Edits addressed by index, malformed requests and keep-alive latency."""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.serve import start_background


@pytest.fixture
def server(app):
    server, thread = start_background(app, port=0)
    yield server
    server.shutdown()
    thread.join(timeout=10.0)
    server.server_close()


@pytest.fixture
def connection(server):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    yield conn
    conn.close()


def exchange(conn, method, path, body=b"", headers=None):
    """One request on ``conn`` → (status, decoded JSON payload)."""
    conn.putrequest(method, path)
    for name, value in (headers or {"Content-Length": str(len(body))}).items():
        conn.putheader(name, value)
    conn.endheaders(body or None)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestGaEditsByIndex:
    def test_accept_then_drop_by_index(self, app):
        _, created = app.dispatch("POST", "/sessions", {"iterations": 4})
        sid = created["session_id"]
        status, solved = app.dispatch("POST", f"/sessions/{sid}/solve", {})
        assert status == 200
        first = solved["solution"]["schema"][0]

        status, applied = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "accept_ga", "ga": 0}]},
        )
        assert status == 200, applied
        # Index 0 of the payload is the GA the session now requires.
        session = app.sessions.get(sid).session
        (accepted,) = session.problem().ga_constraints
        assert sorted(
            (ref.source_id, ref.index) for ref in accepted.attributes
        ) == [(ref["source_id"], ref["index"]) for ref in first]

        status, applied = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "drop_ga", "ga": 0}]},
        )
        assert status == 200, applied
        assert session.problem().ga_constraints == ()

    @pytest.mark.parametrize("index", [-1, 10_000, "0", None, 1.0])
    def test_bad_accept_index_is_a_400(self, app, index):
        _, created = app.dispatch("POST", "/sessions", {"iterations": 2})
        sid = created["session_id"]
        app.dispatch("POST", f"/sessions/{sid}/solve", {})
        status, payload = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "accept_ga", "ga": index}]},
        )
        assert status == 400, payload
        assert payload["error"]["code"] == "bad_request"


MALFORMED = [
    # (case, method, path, raw body, headers or None for a correct length)
    ("array body", "POST", "/sessions", b"[1, 2]", None),
    ("string body", "POST", "/sessions", b'"x"', None),
    ("number body", "POST", "/solve", b"7", None),
    (
        "edits as array",
        "POST",
        "/sessions/{sid}/edits",
        b'[{"op": "release_source", "source": 1}]',
        None,
    ),
    ("edit op not a string", "POST", "/sessions/{sid}/edits",
     b'{"edits": [{"op": [1]}]}', None),
    ("seed not an integer", "POST", "/sessions", b'{"seed": "x"}', None),
    ("theta not a number", "POST", "/sessions", b'{"theta": "x"}', None),
    ("universe not a name", "POST", "/sessions", b'{"universe": []}', None),
    ("stop_quality not a number", "POST", "/sessions/{sid}/solve",
     b'{"stop_quality": "x"}', None),
    ("non-integer Content-Length", "POST", "/sessions", b"",
     {"Content-Length": "abc"}),
    ("negative Content-Length", "POST", "/sessions", b"",
     {"Content-Length": "-5"}),
]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "method,path,body,headers",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_refused_with_4xx_never_500(
        self, app, connection, method, path, body, headers
    ):
        _, created = app.dispatch("POST", "/sessions", {})
        path = path.format(sid=created["session_id"])
        status, payload = exchange(connection, method, path, body, headers)
        assert 400 <= status < 500, payload
        assert "error" in payload
        assert app.telemetry.metrics.counter_value("serve.errors") == 0


class TestKeepAlive:
    def test_sequential_requests_do_not_wait_for_delayed_acks(
        self, connection
    ):
        # Headers and body leave in separate writes; with Nagle's
        # algorithm on, each body waits ~40 ms for the client's ACK.
        exchange(connection, "GET", "/health")
        started = time.perf_counter()
        for _ in range(20):
            status, payload = exchange(connection, "GET", "/health")
            assert status == 200 and payload["status"] == "ok"
        assert time.perf_counter() - started < 0.8

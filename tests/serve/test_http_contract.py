"""One route contract, both ways in.

The same request/response assertions run against each entry point:

* ``inproc`` — :class:`StdlibApp.handle`, the dispatch layer itself;
* ``socket`` — :class:`StdlibApp` behind a real asyncio socket server,
  exercising the HTTP/1.1 parser.

Both funnel through :func:`repro.serve.http.dispatch`; these tests pin
the contract itself.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import ROUTES, StdlibApp
from repro.engine.result import SolveResult

BACKENDS = ["inproc", "socket"]


async def _socket_request(host, port, method, path, body):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, tail = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(tail)


class _Client:
    """One request interface over whichever backend is under test."""

    def __init__(self, backend, service, server=None):
        self.backend = backend
        self.service = service
        self.server = server

    async def request(self, method, path, body=None):
        if self.backend == "inproc":
            return await StdlibApp(self.service).handle(
                method, path, body
            )
        host, port = self.server.sockets[0].getsockname()[:2]
        return await _socket_request(host, port, method, path, body)


def contract_test(test_body):
    """Run ``test_body(client)`` against one started service + backend."""

    def wrapper(self, backend, make_service):
        async def main():
            async with make_service(drift_threshold=0.2) as service:
                server = None
                if backend == "socket":
                    app = StdlibApp(service)
                    server = await asyncio.start_server(
                        app._client_connected, "127.0.0.1", 0
                    )
                try:
                    await test_body(
                        self, _Client(backend, service, server)
                    )
                finally:
                    if server is not None:
                        server.close()
                        await server.wait_closed()

        asyncio.run(main())

    return wrapper


@pytest.mark.parametrize("backend", BACKENDS)
class TestRouteContract:
    @contract_test
    async def test_healthz(self, client):
        status, payload = await client.request("GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "policy_version": 1}

    @contract_test
    async def test_status(self, client):
        status, payload = await client.request("GET", "/status")
        assert status == 200
        assert payload["resolves_completed"] == 1
        assert payload["worker_running"] is True
        assert payload["policy"]["version"] == 1

    @contract_test
    async def test_policy_round_trips(self, client):
        status, payload = await client.request("GET", "/policy")
        assert status == 200
        assert payload["version"] == 1
        restored = SolveResult.from_dict(payload["result"])
        active = client.service.active()
        assert restored.objective == active.result.objective
        assert (
            restored.policy.thresholds.tolist()
            == active.result.policy.thresholds.tolist()
        )

    @contract_test
    async def test_policy_version_reads(self, client):
        status, payload = await client.request("GET", "/policy/1")
        assert status == 200
        assert payload["version"] == 1
        status, payload = await client.request("GET", "/policy/99")
        assert status == 404
        assert "not retained" in payload["error"]
        status, payload = await client.request("GET", "/policy/abc")
        assert status == 400
        assert "integer" in payload["error"]

    @contract_test
    async def test_score(self, client):
        status, payload = await client.request(
            "POST", "/score", {"alerts": [[3, 1, 4, 1]]}
        )
        assert status == 200
        assert payload["policy_version"] == 1
        assert payload["rows"] == 1
        direct = client.service.score([[3, 1, 4, 1]])
        assert payload["detection"] == direct["detection"]
        assert payload["spent"] == direct["spent"]

    @contract_test
    async def test_score_validation(self, client):
        status, payload = await client.request(
            "POST", "/score", {"alerts": [[1, 2]]}
        )
        assert status == 400
        assert "shape" in payload["error"]
        status, payload = await client.request("POST", "/score", {})
        assert status == 400
        assert "'alerts'" in payload["error"]

    @contract_test
    async def test_alerts(self, client):
        status, payload = await client.request(
            "POST", "/alerts", {"counts": [[3, 1, 4, 1], [2, 1, 3, 1]]}
        )
        assert status == 200
        assert payload["observed"] == 2
        assert payload["events_ingested"] == 2
        assert "drift" in payload
        status, payload = await client.request(
            "POST", "/alerts", {"counts": [[-1, 1, 1, 1]]}
        )
        assert status == 400

    @contract_test
    async def test_resolve(self, client):
        status, payload = await client.request("POST", "/resolve")
        assert status == 200
        assert payload["version"] == 2
        assert payload["meta"]["reason"] == "manual"

    @contract_test
    async def test_unknown_path_is_404(self, client):
        status, payload = await client.request("GET", "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    @contract_test
    async def test_wrong_method_is_405(self, client):
        status, payload = await client.request("POST", "/healthz")
        assert status == 405
        assert "GET" in payload["error"]
        status, payload = await client.request("GET", "/score")
        assert status == 405
        assert "POST" in payload["error"]


class TestStdlibParser:
    """Socket-level behaviors specific to the stdlib HTTP parser."""

    def _serve(self, make_service):
        class _Ctx:
            async def __aenter__(ctx):
                ctx.service = make_service()
                await ctx.service.start()
                app = StdlibApp(ctx.service)
                ctx.server = await asyncio.start_server(
                    app._client_connected, "127.0.0.1", 0
                )
                return ctx

            async def __aexit__(ctx, *exc):
                ctx.server.close()
                await ctx.server.wait_closed()
                await ctx.service.stop()

            @property
            def address(ctx):
                return ctx.server.sockets[0].getsockname()[:2]

        return _Ctx()

    def test_invalid_json_body_is_400(self, make_service):
        async def main():
            async with self._serve(make_service) as ctx:
                host, port = ctx.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /score HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]
                assert b"invalid JSON" in raw

        asyncio.run(main())

    def test_malformed_request_line_is_400(self, make_service):
        async def main():
            async with self._serve(make_service) as ctx:
                host, port = ctx.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"garbage\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]

        asyncio.run(main())

    def test_oversized_body_is_413(self, make_service, monkeypatch):
        monkeypatch.setattr(StdlibApp, "MAX_BODY", 16)

        async def main():
            async with self._serve(make_service) as ctx:
                host, port = ctx.address
                status, payload = await _socket_request(
                    host, port, "POST", "/score",
                    {"alerts": [[1, 1, 1, 1]] * 10},
                )
                assert status == 413
                assert "exceeds" in payload["error"]

        asyncio.run(main())


def test_route_table_is_complete():
    patterns = {(r.method, r.pattern) for r in ROUTES}
    assert patterns == {
        ("GET", "/healthz"),
        ("GET", "/status"),
        ("GET", "/metrics"),
        ("GET", "/policy"),
        ("GET", "/policy/{version}"),
        ("POST", "/score"),
        ("POST", "/alerts"),
        ("POST", "/resolve"),
    }


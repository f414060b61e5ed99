"""``GET /metrics``: Prometheus text on every backend, consistent with /status.

The route returns the service-local registry rendered as text exposition
v0.0.4.  Three properties are pinned, each across the same backend
matrix as the route-contract suite:

* the body parses as Prometheus text and carries the score-latency
  histogram buckets and the re-solve counters;
* the Content-Type declares the exposition version (socket — the
  in-proc interface returns the body only);
* every counter surfaced in ``/status`` equals the corresponding metric
  sample, because both read the same registry.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.serve import StdlibApp

BACKENDS = ["inproc", "socket"]


async def _socket_raw(host, port, method, path, body=None):
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
    status = int(head.split()[1])
    content_type = ""
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            content_type = value.strip()
    return status, content_type, tail.decode()


class _RawClient:
    """Raw (status, content_type, text) requests over one backend."""

    def __init__(self, backend, service, server=None):
        self.backend = backend
        self.service = service
        self.server = server

    async def request(self, method, path, body=None):
        if self.backend == "inproc":
            status, payload = await StdlibApp(self.service).handle(
                method, path, body
            )
            content_type = (
                obs.CONTENT_TYPE
                if isinstance(payload, str)
                else "application/json"
            )
            text = (
                payload if isinstance(payload, str)
                else json.dumps(payload)
            )
            return status, content_type, text
        host, port = self.server.sockets[0].getsockname()[:2]
        return await _socket_raw(host, port, method, path, body)


def metrics_test(test_body):
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
                        self, _RawClient(backend, service, server)
                    )
                finally:
                    if server is not None:
                        server.close()
                        await server.wait_closed()

        asyncio.run(main())

    return wrapper


def parse_samples(text):
    """Prometheus sample lines -> {metric{labels}: float}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


@pytest.mark.parametrize("backend", BACKENDS)
class TestMetricsRoute:
    @metrics_test
    async def test_exposition_carries_score_and_resolve_metrics(
        self, client
    ):
        status, _, _ = await client.request(
            "POST", "/score", {"alerts": [[1, 1, 1, 1]] * 3}
        )
        assert status == 200
        status, _, _ = await client.request("POST", "/resolve")
        assert status == 200

        status, content_type, text = await client.request(
            "GET", "/metrics"
        )
        assert status == 200
        assert content_type == obs.CONTENT_TYPE
        assert "# TYPE repro_serve_score_seconds histogram" in text
        assert 'repro_serve_score_seconds_bucket{le="+Inf"} 1' in text
        samples = parse_samples(text)
        assert samples["repro_serve_score_requests_total"] == 1
        assert samples["repro_serve_rows_scored_total"] == 3
        assert (
            samples['repro_serve_resolves_scheduled_total{reason="manual"}']
            == 1
        )
        # The startup solve (reason="initial") plus the manual one.
        assert samples["repro_serve_resolves_completed_total"] == 2
        assert "repro_serve_resolve_lag_seconds" in samples

    @metrics_test
    async def test_status_and_metrics_agree(self, client):
        for _ in range(2):
            status, _, _ = await client.request(
                "POST", "/score", {"alerts": [[1, 1, 1, 1]] * 2}
            )
            assert status == 200
        status, _, _ = await client.request(
            "POST", "/alerts", {"counts": [[1, 0, 2, 1]] * 3}
        )
        assert status == 200

        status, _, body = await client.request("GET", "/status")
        assert status == 200
        payload = json.loads(body)
        status, _, text = await client.request("GET", "/metrics")
        assert status == 200
        samples = parse_samples(text)

        assert (
            samples["repro_serve_score_requests_total"]
            == payload["score_requests"]
        )
        assert (
            samples["repro_serve_rows_scored_total"]
            == payload["rows_scored"]
        )
        assert (
            samples["repro_serve_events_ingested_total"]
            == payload["events_ingested"]
        )
        assert samples["repro_serve_drift"] == payload["drift"]
        assert (
            samples["repro_serve_score_seconds_count"]
            == payload["score_requests"]
        )

    @metrics_test
    async def test_metrics_is_get_only(self, client):
        status, content_type, text = await client.request(
            "POST", "/metrics"
        )
        assert status == 405
        assert "application/json" in content_type
        assert "not allowed" in json.loads(text)["error"]

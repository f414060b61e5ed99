"""HTTP layer: one route contract, served by one stdlib app.

The contract is a table of :class:`Route` records — method, path
pattern, handler — where every handler is an async function over the
framework-agnostic :class:`~repro.serve.service.AuditService`.
:func:`dispatch` routes one request through that table, and
:class:`StdlibApp` serves it on ``asyncio`` stream servers with minimal
HTTP/1.1 parsing and no third-party dependency.

Routes
------
========  =====================  =============================================
method    path                   purpose
========  =====================  =============================================
GET       /healthz               liveness + current policy version
GET       /status                counters, drift, worker state
GET       /metrics               Prometheus text exposition of the registry
GET       /policy                current published policy (full serialization)
GET       /policy/{version}      stale-version read from the retained history
POST      /score                 score alert-count rows against the policy
POST      /alerts                ingest observed counts (feeds the estimator)
POST      /resolve               force a re-solve and await the publish
========  =====================  =============================================
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping

from .. import obs
from .service import AuditService

__all__ = [
    "Route",
    "ROUTES",
    "dispatch",
    "StdlibApp",
]

# Handlers return ``(status, payload)``; a ``dict`` payload is rendered
# as JSON, a ``str`` payload as Prometheus text (``obs.CONTENT_TYPE``).
Handler = Callable[
    [AuditService, Mapping[str, str], object],
    Awaitable[tuple[int, dict | str]],
]


@dataclass(frozen=True)
class Route:
    """One entry of the shared route contract."""

    method: str
    pattern: str
    handler: Handler

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(
            s for s in self.pattern.strip("/").split("/") if s
        )

    def match(self, path: str) -> Mapping[str, str] | None:
        """Path params when ``path`` matches the pattern, else None."""
        parts = tuple(p for p in path.strip("/").split("/") if p)
        pattern = self.segments
        if len(parts) != len(pattern):
            return None
        params: dict[str, str] = {}
        for want, got in zip(pattern, parts, strict=True):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = got
            elif want != got:
                return None
        return params


# ----------------------------------------------------------------------
# Handlers (async, framework-free)
# ----------------------------------------------------------------------


async def _healthz(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    active = service.active()
    return 200, {
        "status": "ok",
        "policy_version": None if active is None else active.version,
    }


async def _status(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    return 200, service.status()


async def _metrics(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, str]:
    return 200, obs.render_prometheus(service.metrics)


async def _policy(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    active = service.active()
    if active is None:
        return 404, {"error": "no policy published yet"}
    return 200, {**active.describe(), "result": active.result.to_dict()}


async def _policy_version(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    active = service.active()
    if active is None:
        return 404, {"error": "no policy published yet"}
    try:
        version = int(params["version"])
    except ValueError:
        return 400, {
            "error": f"version must be an integer, got "
            f"{params['version']!r}"
        }
    try:
        record = service.store.get(active.key, version)
    except KeyError as exc:
        return 404, {"error": str(exc.args[0])}
    return 200, {**record.describe(), "result": record.result.to_dict()}


def _rows_from(body: object, field: str) -> object:
    if not isinstance(body, Mapping) or field not in body:
        raise ValueError(
            f"request body must be a JSON object with {field!r}"
        )
    return body[field]


async def _score(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    try:
        payload = service.score(_rows_from(body, "alerts"))
    except ValueError as exc:
        return 400, {"error": str(exc)}
    except RuntimeError as exc:
        return 409, {"error": str(exc)}
    return 200, payload


async def _alerts(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    try:
        payload = service.ingest(_rows_from(body, "counts"))
    except ValueError as exc:
        return 400, {"error": str(exc)}
    except RuntimeError as exc:
        return 409, {"error": str(exc)}
    return 200, payload


async def _resolve(
    service: AuditService, params: Mapping[str, str], body: object
) -> tuple[int, dict]:
    published = await service.resolve_now()
    return 200, published.describe()


ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", _healthz),
    Route("GET", "/status", _status),
    Route("GET", "/metrics", _metrics),
    Route("GET", "/policy", _policy),
    Route("GET", "/policy/{version}", _policy_version),
    Route("POST", "/score", _score),
    Route("POST", "/alerts", _alerts),
    Route("POST", "/resolve", _resolve),
)


async def dispatch(
    service: AuditService, method: str, path: str, body: object = None
) -> tuple[int, dict | str]:
    """Route one request through the shared contract.

    Returns ``(status, payload)``; unknown paths get 404, known paths
    with the wrong method 405, and handler crashes a 500 envelope (the
    stdlib server must never die on a bad request).  A ``str`` payload
    (the ``/metrics`` exposition) is served as Prometheus text, every
    ``dict`` as JSON.
    """
    path = path.split("?", 1)[0]
    method = method.upper()
    allowed: list[str] = []
    for route in ROUTES:
        params = route.match(path)
        if params is None:
            continue
        if route.method != method:
            allowed.append(route.method)
            continue
        try:
            return await route.handler(service, params, body)
        except Exception as exc:  # noqa: BLE001 - envelope, not a crash
            service.metrics.counter(
                "repro_serve_handler_errors_total",
                route=route.pattern,
                error=type(exc).__name__,
            )
            return 500, {
                "error": f"{type(exc).__name__}: {exc}",
            }
    if allowed:
        return 405, {
            "error": f"{method} not allowed on {path}; "
            f"allowed: {', '.join(sorted(set(allowed)))}"
        }
    return 404, {"error": f"no route for {path}"}


# ----------------------------------------------------------------------
# Stdlib app (no third-party dependencies)
# ----------------------------------------------------------------------


class StdlibApp:
    """Asyncio stream-server app implementing the route contract.

    In-process callers use :meth:`handle` directly (the route-contract
    tests and the benchmark do); :meth:`serve` binds a real socket with
    a minimal HTTP/1.1 request parser on top of the same dispatch.
    """

    #: Refuse request bodies larger than this (bytes).
    MAX_BODY = 8 * 1024 * 1024

    def __init__(self, service: AuditService) -> None:
        self.service = service

    async def handle(
        self, method: str, path: str, body: object = None
    ) -> tuple[int, dict | str]:
        """In-process dispatch: ``(status, payload)`` for one request."""
        return await dispatch(self.service, method, path, body)

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8331
    ) -> asyncio.AbstractServer:
        """Bind and return an :class:`asyncio.AbstractServer` (started)."""
        return await asyncio.start_server(
            self._client_connected, host, port
        )

    async def run(
        self, host: str = "127.0.0.1", port: int = 8331
    ) -> None:
        """Serve forever (until cancelled)."""
        server = await self.serve(host, port)
        async with server:
            await server.serve_forever()

    async def _client_connected(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, payload = await self._one_request(reader)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            self.service.metrics.counter(
                "repro_serve_handler_errors_total",
                route="<parse>",
                error=type(exc).__name__,
            )
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        if isinstance(payload, str):
            body = payload.encode()
            content_type = obs.CONTENT_TYPE
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode() + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _one_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict | str]:
        request_line = (await reader.readline()).decode("latin-1")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0], parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if content_length > self.MAX_BODY:
            return 413, {
                "error": f"body of {content_length} bytes exceeds "
                f"{self.MAX_BODY}"
            }
        body: object = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
        return await dispatch(self.service, method, path, body)


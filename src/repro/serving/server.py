"""The stdlib-only JSON/HTTP front-end over a serving service.

:class:`ServingServer` is a small HTTP/1.1 server on ``asyncio`` streams (no
third-party web framework, matching the repo's no-new-dependencies rule)
exposing

* ``POST /generate`` — a :class:`~repro.serving.requests.GenerationRequest`
  payload; streams tokens back incrementally as newline-delimited JSON chunks
  (``Transfer-Encoding: chunked``), ending with a summary of the whole
  request.  ``"stream": false`` in the payload returns one final
  :class:`~repro.serving.requests.GenerationResult` JSON object instead.
* ``POST /experiment`` — a full :class:`~repro.pipeline.spec.ExperimentSpec`
  payload, run by the service's ``experiment`` without stalling decode.
* ``GET /stats`` — the service's ``stats()``, as the service reports them.
* ``GET /metrics`` — the service's :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text exposition format (scrape-ready);
  ``GET /metrics?format=json`` returns the structured snapshot instead.

The front-end serves any :class:`Service`; the single-process
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` and the
multi-process :class:`~repro.serving.fleet.manager.FleetManager` both are
one.  The protocol:

* ``start()``, ``stop()`` and ``experiment(payload)`` — coroutine functions
  are awaited; blocking ones run on the loop's default executor.
* ``stream(request)`` — validates and queues the request at the call, so an
  over-budget request or a full queue gets a 400 before any chunked head is
  written.  It returns an async iterator over the request's tokens that
  carries ``request_id``, ``finish_reason`` and ``result()``, the
  :class:`~repro.serving.requests.GenerationResult` once drained.
* ``cancel(request_id)`` — called when a streaming client disconnects.
* ``stats()`` and ``registry`` — behind ``/stats`` and ``/metrics``.

The front-end owns its service's lifecycle: :meth:`ServingServer.start`
starts the service and :meth:`ServingServer.stop` stops it.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import threading
import urllib.parse
from typing import Any, AsyncIterator, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.obs import MetricsRegistry
from repro.pipeline.spec import SpecError
from repro.serving.requests import GenerationRequest, GenerationResult, RequestError
from repro.utils.logging import get_logger

logger = get_logger("serving.server")

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024


class TokenSource(Protocol):
    """The async token stream a :class:`Service` returns from ``stream``."""

    @property
    def request_id(self) -> str: ...

    @property
    def finish_reason(self) -> Optional[str]: ...

    def __aiter__(self) -> AsyncIterator[int]: ...

    def result(self) -> GenerationResult: ...


class Service(Protocol):
    """What :class:`ServingServer` serves (see the module docstring)."""

    registry: MetricsRegistry

    def start(self) -> object: ...

    def stop(self) -> object: ...

    def experiment(self, payload: Any) -> object: ...

    def stream(self, request: GenerationRequest) -> TokenSource: ...

    def cancel(self, request_id: str) -> bool: ...

    def stats(self) -> Mapping[str, Any]: ...


async def _call(method: Callable[..., Any], *args: Any) -> Any:
    """Await a coroutine function; run a blocking one on the default executor."""
    if inspect.iscoroutinefunction(method):
        return await method(*args)
    return await asyncio.to_thread(method, *args)


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 500: "Internal Server Error"}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, query, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise _HTTPError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HTTPError(413, "headers too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise _HTTPError(413, "headers too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise _HTTPError(400, f"malformed request line: {lines[0]!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HTTPError(400, f"Content-Length must be a non-negative integer, got {raw_length!r}")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise _HTTPError(413, "body too large")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise _HTTPError(400, "truncated request body") from exc
    path, _, query_string = path.partition("?")
    query = dict(urllib.parse.parse_qsl(query_string))
    return method, path, query, body


def _json_object(body: bytes) -> Dict[str, Any]:
    """The request body as a JSON object (an empty body is ``{}``)."""
    try:
        payload = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HTTPError(400, f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _HTTPError(400, "request body must be a JSON object")
    return payload


def _response_head(status: int, content_type: str, extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\nConnection: close\r\n{extra}\r\n"
    ).encode("latin-1")


def _json_response(writer: asyncio.StreamWriter, status: int, payload: Any) -> None:
    body = (json.dumps(payload, sort_keys=True, default=str) + "\n").encode()
    writer.write(_response_head(status, "application/json", f"Content-Length: {len(body)}\r\n"))
    writer.write(body)


def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")


class ServingServer:
    """The HTTP endpoints over one :class:`Service`, whose lifecycle it owns."""

    def __init__(self, service: Service, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the service, then bind the port (``port=0`` picks a free one)."""
        await _call(self.service.start)
        try:
            self._server = await asyncio.start_server(self._handle, self.host, self.port)
        except OSError:
            await _call(self.service.stop)
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving %s on http://%s:%d", type(self.service).__name__, self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections, then stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await _call(self.service.stop)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None  # start() above binds it
        await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ----------------------------------------------------------------- routing
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, body = await _read_request(reader)
                if (method, path) == ("POST", "/generate"):
                    await self._handle_generate(writer, body)
                elif (method, path) == ("POST", "/experiment"):
                    result = await _call(self.service.experiment, _json_object(body))
                    _json_response(writer, 200, result)
                elif (method, path) == ("GET", "/stats"):
                    _json_response(writer, 200, self.service.stats())
                elif (method, path) == ("GET", "/metrics"):
                    self._handle_metrics(writer, query)
                elif path in ("/generate", "/experiment", "/stats", "/metrics"):
                    raise _HTTPError(405, f"{method} not allowed on {path}")
                else:
                    raise _HTTPError(
                        404,
                        f"unknown path {path!r}; use /generate, /experiment, /stats, /metrics",
                    )
            except _HTTPError as exc:
                _json_response(writer, exc.status, {"error": exc.message})
            except (RequestError, SpecError) as exc:
                _json_response(writer, 400, {"error": str(exc)})
            except (ConnectionResetError, BrokenPipeError):
                raise  # client went away mid-response: nothing left to write
            except Exception as exc:  # pragma: no cover - defensive
                logger.exception("request failed")
                _json_response(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # --------------------------------------------------------------- endpoints
    async def _handle_generate(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        payload = _json_object(body)
        stream = payload.pop("stream", True)
        if not isinstance(stream, bool):
            raise _HTTPError(400, f"'stream' must be true or false, got {stream!r}")
        request = GenerationRequest.from_dict(payload)
        # Queue (and validate) the request *before* committing to a response,
        # so queue-full / over-budget errors still go out as a clean 400.
        token_stream = self.service.stream(request)
        if not stream:
            async for _token in token_stream:
                pass
            _json_response(writer, 200, token_stream.result().to_dict())
            return
        writer.write(_response_head(200, "application/x-ndjson", "Transfer-Encoding: chunked\r\n"))
        tokens: List[int] = []
        final: Dict[str, Any] = {"done": True, "request_id": token_stream.request_id,
                                 "prompt": list(request.prompt), "tokens": tokens}
        try:
            async for token in token_stream:
                _write_chunk(writer, (json.dumps({"index": len(tokens), "token": token}) + "\n").encode())
                tokens.append(token)
                await writer.drain()
            final["finish_reason"] = token_stream.finish_reason
        except RuntimeError as exc:
            # Server-side decode failure after the chunked response started:
            # surface it as a terminal error line, never as a second HTTP head.
            final = {"done": True, "request_id": token_stream.request_id,
                     "error": str(exc), "tokens": tokens}
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # The client dropped the stream (or the server is shutting the
            # handler down): stop decoding for it and free its slot now.
            self.service.cancel(token_stream.request_id)
            raise
        _write_chunk(writer, (json.dumps(final, sort_keys=True) + "\n").encode())
        _write_chunk(writer, b"")  # terminal chunk

    def _handle_metrics(self, writer: asyncio.StreamWriter, query: Dict[str, str]) -> None:
        fmt = query.get("format", "prometheus")
        if fmt == "json":
            _json_response(writer, 200, self.service.registry.snapshot())
            return
        if fmt != "prometheus":
            raise _HTTPError(400, f"unknown metrics format {fmt!r}; use 'prometheus' or 'json'")
        body = self.service.registry.render_prometheus().encode()
        writer.write(_response_head(
            200, "text/plain; version=0.0.4; charset=utf-8", f"Content-Length: {len(body)}\r\n"
        ))
        writer.write(body)


class BackgroundServer:
    """Run a :class:`ServingServer` over ``service`` on a daemon thread (tests, demos).

    ::

        background = BackgroundServer(ContinuousBatchingScheduler(session))
        background.start()          # returns once the service is up and the port bound
        ... http requests against background.url ...
        background.stop()           # closes the port, then stops the service

    The fleet is hosted the same way, ``BackgroundServer(FleetManager(config))``.
    The server starts and stops its service, so pass one that is not running.
    """

    def __init__(self, service: Service) -> None:
        self.server = ServingServer(service)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return self.server.url

    def start(self, timeout: float = 60.0) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._main, name="repro-serving", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("serving thread did not come up")
        if self._error is not None:
            raise RuntimeError(f"serving thread failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is None or self._loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface start-up errors to start()
            loop.close()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

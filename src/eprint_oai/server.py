"""WSGI application binding the protocol handler and flow control.

Accepts GET and POST (form-encoded) with identical argument semantics.
Throttled requests, and requests the store cannot answer because a
record's abs file has vanished or no longer parses, are answered with 503
and a Retry-After header in seconds. The same app object serves both a
real HTTP socket and the in-process loopback transport used by the
harvester tests.
"""

from __future__ import annotations

import logging
import math
import time
from typing import Callable, Iterable
from urllib.parse import parse_qsl
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from .flowcontrol import ClientLedger, FlowPolicy
from .protocol import LIST_VERBS, ProtocolHandler, VerbResponse
from .store import StoreError

log = logging.getLogger("eprint_oai.server")

# a store failure (an abs file gone or corrupt since load) needs an operator,
# so a harvester is told to come back in a minute rather than at once
STORE_RETRY_AFTER_S = 60

_STATUS_LINE = {200: "200 OK", 400: "400 Bad Request", 503: "503 Service Unavailable"}


def remote_addr_key(environ: dict) -> str:
    return environ.get("REMOTE_ADDR", "unknown")


def make_app(
    handler: ProtocolHandler,
    policy: FlowPolicy | None = None,
    monotonic: Callable[[], float] = time.monotonic,
):
    """Build the WSGI callable. Without a policy no throttling happens;
    with one, each client (its remote address) is throttled on its own."""
    ledger = ClientLedger()

    def app(environ: dict, start_response) -> Iterable[bytes]:
        started = time.perf_counter()
        verb = ""
        try:
            params = _request_params(environ)
        except UnicodeDecodeError:
            response = handler.bad_request("request body is not valid UTF-8", [])
        else:
            verb = next((v for k, v in params if k == "verb"), "")
            response = _admit(environ, verb)
            if response is None:
                try:
                    response = handler.handle(params)
                except StoreError as exc:
                    log.error("store failure, answering 503: %s", exc)
                    response = VerbResponse(
                        503,
                        "text/plain; charset=utf-8",
                        [b"The record store is unavailable; retry later.\n"],
                        retry_after=STORE_RETRY_AFTER_S,
                    )
        headers = [
            ("Content-Type", response.content_type),
            ("Content-Length", str(sum(map(len, response.parts)))),
        ]
        if response.retry_after is not None:
            headers.append(("Retry-After", str(math.ceil(response.retry_after))))
        start_response(_STATUS_LINE[response.http_status], headers)
        log.info(
            "client=%s verb=%s status=%d duration_ms=%.1f",
            remote_addr_key(environ),
            verb or "-",
            response.http_status,
            (time.perf_counter() - started) * 1000,
        )
        return response.parts

    def _admit(environ: dict, verb: str) -> VerbResponse | None:
        if policy is None:
            return None
        client = remote_addr_key(environ)
        wait = ledger.admit(client, verb in LIST_VERBS, monotonic(), policy)
        if not wait:
            return None
        return VerbResponse(
            503,
            "text/plain; charset=utf-8",
            [f"Retry after {wait:.3f} seconds\n".encode()],
            retry_after=wait,
        )

    return app


def _request_params(environ: dict) -> list[tuple[str, str]]:
    if environ.get("REQUEST_METHOD", "GET").upper() == "POST":
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        # a negative length would read the socket to EOF
        body = environ["wsgi.input"].read(length) if length > 0 else b""
        return parse_qsl(body.decode("utf-8"), keep_blank_values=True)
    return parse_qsl(environ.get("QUERY_STRING", ""), keep_blank_values=True)


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, fmt, *args):  # request logging happens in the app
        pass


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    daemon_threads = True


def serve(app, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Run the app on a blocking threaded HTTP server."""
    with make_server(
        host, port, app, server_class=ThreadingWSGIServer, handler_class=_QuietHandler
    ) as httpd:
        log.info("listening on http://%s:%d/", host, port)
        httpd.serve_forever()

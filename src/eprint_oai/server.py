"""WSGI application binding the protocol handler and flow control.

Accepts GET and POST (form-encoded) with identical argument semantics.
Throttled requests are answered with 503 and a Retry-After header in
seconds. The same app object serves both a real HTTP socket and the
in-process loopback transport used by the harvester tests.
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

log = logging.getLogger("eprint_oai.server")

_STATUS_LINE = {200: "200 OK", 400: "400 Bad Request", 503: "503 Service Unavailable"}


def remote_addr_key(environ: dict) -> str:
    return environ.get("REMOTE_ADDR", "unknown")


def make_app(
    handler: ProtocolHandler,
    policy: FlowPolicy | None = None,
    ledger: ClientLedger | None = None,
    client_key: Callable[[dict], str] = remote_addr_key,
    monotonic: Callable[[], float] = time.monotonic,
):
    """Build the WSGI callable. Without a policy no throttling happens."""
    ledger = ledger if ledger is not None else ClientLedger()

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
                response = handler.handle(params)
        headers = [
            ("Content-Type", response.content_type),
            ("Content-Length", str(len(response.body))),
        ]
        if response.retry_after is not None:
            headers.append(("Retry-After", str(math.ceil(response.retry_after))))
        start_response(_STATUS_LINE[response.http_status], headers)
        log.info(
            "client=%s verb=%s status=%d duration_ms=%.1f",
            client_key(environ),
            verb or "-",
            response.http_status,
            (time.perf_counter() - started) * 1000,
        )
        return [response.body]

    def _admit(environ: dict, verb: str) -> VerbResponse | None:
        if policy is None:
            return None
        verb_class = "list" if verb in LIST_VERBS else "other"
        decision = ledger.admit(client_key(environ), verb_class, monotonic(), policy)
        if decision.allowed:
            return None
        return VerbResponse(
            503,
            "text/plain; charset=utf-8",
            f"Retry after {decision.retry_after:.3f} seconds\n".encode(),
            retry_after=decision.retry_after,
        )

    return app


def _request_params(environ: dict) -> list[tuple[str, str]]:
    if environ.get("REQUEST_METHOD", "GET").upper() == "POST":
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        body = environ["wsgi.input"].read(length) if length else b""
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

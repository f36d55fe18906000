"""WSGI application binding the protocol handler and flow control, and the
HTTP server that runs it.

Accepts GET and POST (form-encoded) with identical argument semantics.
Throttled requests, and requests the store cannot answer because a
record's abs file has vanished or no longer parses, are answered with 503
and a Retry-After header in seconds. The same app object serves both a
real HTTP socket and the in-process loopback transport used by the
harvester tests.

The server reads one HTTP/1.x request a connection, within fixed caps and
by one deadline for the whole request, and answers it as HTTP/1.0 through
``wsgiref.handlers``; any request it cannot read is answered 400. Each send
of the answer has the same deadline. An answer to a request not read to its
end is followed by a short drain, so that closing does not reset the
connection before the client reads the answer.

A response carries ``Content-Length`` when its parts are a list, as every
answer but a ListRecords 200 is. A ListRecords page is sent as it is
rendered, one part at a time, with no ``Content-Length``: HTTP/1.0 ends its
body where the server closes the connection, and the closing root tag ends
the XML, so a client can tell a page cut short. Every record of the page is
read before the status line goes out, so a store failure still turns the
whole page into a 503. Each request's log line is written once its body has
been sent. A ``HEAD`` request gets the status line and headers of the
matching ``GET`` and no body; a ListRecords page is then not rendered.
"""

from __future__ import annotations

import io
import logging
import math
import re
import socket
import socketserver
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sized
from urllib.parse import parse_qsl, unquote
from wsgiref.handlers import SimpleHandler

from .flowcontrol import ClientLedger, FlowPolicy
from .protocol import LIST_VERBS, ProtocolHandler, VerbResponse
from .store import StoreError

log = logging.getLogger("eprint_oai.server")

# a store failure (an abs file gone or corrupt since load) needs an operator,
# so a harvester is told to come back in a minute rather than at once
STORE_RETRY_AFTER_S = 60

_STATUS_LINE = {200: "200 OK", 400: "400 Bad Request", 503: "503 Service Unavailable"}

# What one connection may send. The longest legal request is a verb and at
# most four short arguments, far below every cap.
MAX_LINE = 8192  # bytes in the request line or in one header line
MAX_HEADERS = 100  # header lines, http.client's own limit
MAX_BODY = 65536  # bytes in a POST body
READ_TIMEOUT_S = 10.0  # to send a request, and to take each send of the answer
RECV_BYTES = 65536  # bytes one recv may take
# Bytes left unread at close make the kernel reset the connection, which can
# discard the answer unread; so the server drains the rest before it closes
DRAIN_BYTES = 65536  # for at most this many bytes
DRAIN_S = 1.0  # or this many seconds

_TOKEN = r"[-!#$%&'*+.^_`|~0-9A-Za-z]+"
_REQUEST_LINE_RE = re.compile(rf"({_TOKEN}) ([^\x00-\x20\x7f]+) (HTTP/1\.[0-9])")
_HEADER_LINE_RE = re.compile(rf"({_TOKEN}):(.*)")


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
        except ValueError as exc:
            response = handler.bad_request(str(exc), [])
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
        parts = response.parts
        headers = [("Content-Type", response.content_type)]
        if isinstance(parts, Sized):
            headers.append(("Content-Length", str(sum(map(len, parts)))))
        if response.retry_after is not None:
            headers.append(("Retry-After", str(math.ceil(response.retry_after))))
        start_response(_STATUS_LINE[response.http_status], headers)
        if environ.get("REQUEST_METHOD", "GET").upper() == "HEAD":
            # the GET's headers and no body. One empty part sends the headers
            # as they are: an empty body would make wsgiref add
            # "Content-Length: 0" where the GET has none
            parts = (b"",)
        return _logged(
            parts, remote_addr_key(environ), verb, response.http_status, started
        )

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


def _logged(
    parts: Iterable[bytes], client: str, verb: str, status: int, started: float
) -> Iterator[bytes]:
    """``parts``, then the request's log line once they are sent, or once the
    server gives up on sending them."""
    try:
        yield from parts
    finally:
        log.info(
            "client=%s verb=%s status=%d duration_ms=%.1f",
            client, verb or "-", status, (time.perf_counter() - started) * 1000,
        )


def _content_length(environ: dict) -> int:
    """The announced body length; 0 when it is missing, not a number or
    negative (``read(-1)`` on a socket would read to EOF)."""
    try:
        return max(int(environ.get("CONTENT_LENGTH") or 0), 0)
    except ValueError:
        return 0


def _request_params(environ: dict) -> list[tuple[str, str]]:
    """The request's arguments; ``ValueError`` says why a POST body is
    refused. A body over ``MAX_BODY`` is refused without reading it."""
    if environ.get("REQUEST_METHOD", "GET").upper() == "POST":
        length = _content_length(environ)
        if length > MAX_BODY:
            raise ValueError(f"request body over {MAX_BODY} bytes")
        body = environ["wsgi.input"].read(length) if length else b""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError("request body is not valid UTF-8") from None
        return parse_qsl(text, keep_blank_values=True)
    return parse_qsl(environ.get("QUERY_STRING", ""), keep_blank_values=True)


class _BadRequest(Exception):
    """A request the server cannot read; the message says why."""


def _line(raw: bytes) -> str:
    """One request or header line without its line break, as latin-1."""
    if len(raw) > MAX_LINE:
        raise _BadRequest(f"line over {MAX_LINE} bytes")
    if not raw.endswith(b"\n"):
        raise _BadRequest("request ends before its header does")
    return raw.decode("latin-1").removesuffix("\n").removesuffix("\r")


class _Deadline:
    """A request's bytes from ``sock``, read by one deadline ``seconds``
    from now: each recv waits at most the time left, so a client that sends
    a byte at a time loses its connection when the deadline passes
    (``TimeoutError``), not only when it pauses."""

    def __init__(self, sock: socket.socket, seconds: float):
        self._sock = sock
        self._deadline = time.monotonic() + seconds
        self._buffer = bytearray()

    def _fill(self) -> bool:
        """Receive more bytes; False at the end of the stream."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self._sock.settimeout(left)
        chunk = self._sock.recv(RECV_BYTES)
        self._buffer += chunk
        return bool(chunk)

    def _take(self, n: int) -> bytes:
        data = bytes(self._buffer[:n])
        del self._buffer[:n]
        return data

    def readline(self, limit: int) -> bytes:
        """The bytes up to and including the next line break, at most
        ``limit`` of them; fewer at the end of the stream."""
        while True:
            end = self._buffer.find(b"\n", 0, limit)
            if end >= 0:
                return self._take(end + 1)
            if len(self._buffer) >= limit or not self._fill():
                return self._take(limit)

    def read(self, n: int) -> bytes:
        """``n`` bytes; fewer at the end of the stream."""
        while len(self._buffer) < n and self._fill():
            pass
        return self._take(n)


class _Answer(SimpleHandler):
    """wsgiref's handler, except that a send that times out is raised."""

    def handle_error(self) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, TimeoutError):
            raise exc  # run() closes the app's iterable and raises it on
        super().handle_error()


class _QuietHandler(socketserver.StreamRequestHandler):
    """One request a connection: the request line, the header and a POST
    body are read by a deadline ``timeout`` seconds after the connection
    is taken up, then the app's answer is written as HTTP/1.0, each send
    within ``timeout`` seconds, and the connection closes."""

    timeout = READ_TIMEOUT_S
    rbufsize = 0  # the request is read through _Deadline, never rfile

    def handle(self) -> None:
        client = self.client_address[0]
        try:
            request = self._read_request(_Deadline(self.connection, self.timeout))
        except TimeoutError:
            log.info("client=%s timeout", client)
            return
        except _BadRequest as exc:
            log.info("client=%s status=400 %s", client, exc)
            body = f"Bad request: {exc}\n".encode()
            self.wfile.write(
                b"HTTP/1.0 400 Bad Request\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            self._drain()
            return
        if request is None:  # closed without sending a request
            return
        environ, body = request
        self.connection.settimeout(self.timeout)  # for each send
        try:
            _Answer(io.BytesIO(body), self.wfile, sys.stderr, environ).run(
                self.server.application
            )
        except TimeoutError:
            log.info("client=%s write timeout", client)
            return
        if _content_length(environ) > len(body):  # a body left unread
            self._drain()

    def _drain(self) -> None:
        """Shut down the write side, then read and drop what the client
        still sends, up to its end, ``DRAIN_BYTES`` or ``DRAIN_S``."""
        try:
            self.connection.shutdown(socket.SHUT_WR)
            _Deadline(self.connection, DRAIN_S).read(DRAIN_BYTES)
        except OSError:  # a timeout or a reset: close all the same
            pass

    def _read_request(self, source: _Deadline) -> tuple[dict, bytes] | None:
        """The WSGI environ, without its ``wsgi.*`` keys, and the body."""
        raw = source.readline(MAX_LINE + 1)
        if not raw:
            return None
        match = _REQUEST_LINE_RE.fullmatch(_line(raw))
        if match is None:
            raise _BadRequest("malformed request line")
        method, target, version = match.groups()
        path, _, query = target.partition("?")
        host, port = self.server.server_address[:2]
        environ = {
            "REQUEST_METHOD": method,
            "SCRIPT_NAME": "",
            "PATH_INFO": unquote(path, "latin-1"),
            "QUERY_STRING": query,
            "SERVER_NAME": host,
            "SERVER_PORT": str(port),
            "SERVER_PROTOCOL": version,
            "REMOTE_ADDR": self.client_address[0],
        }
        for _ in range(MAX_HEADERS + 1):
            text = _line(source.readline(MAX_LINE + 1))
            if not text:
                break
            match = _HEADER_LINE_RE.fullmatch(text)
            if match is None:  # no colon, or folded onto the line before
                raise _BadRequest("malformed header line")
            name, value = match.groups()
            if "_" in name:  # it would read as the same key as its "-" twin
                continue
            key = name.upper().replace("-", "_")
            if key not in ("CONTENT_TYPE", "CONTENT_LENGTH"):
                key = "HTTP_" + key
            value = value.strip(" \t")
            environ[key] = f"{environ[key]},{value}" if key in environ else value
        else:
            raise _BadRequest(f"over {MAX_HEADERS} header lines")
        length = _content_length(environ)
        if method.upper() != "POST" or length > MAX_BODY:
            return environ, b""  # the app refuses an over-cap body unread
        return environ, source.read(length)


class ThreadingWSGIServer(socketserver.ThreadingTCPServer):
    """One daemon thread a connection, each running the app set by
    ``set_app``."""

    daemon_threads = True
    allow_reuse_address = True
    application = None

    def server_bind(self) -> None:
        super().server_bind()
        self.server_port = self.server_address[1]

    def set_app(self, app) -> None:
        self.application = app


def serve(app, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Run the app on a blocking threaded HTTP server."""
    with ThreadingWSGIServer((host, port), _QuietHandler) as httpd:
        httpd.set_app(app)
        log.info("listening on http://%s:%d/", host, port)
        httpd.serve_forever()

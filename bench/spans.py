"""In-memory span recorder that wraps the program's public functions.

``Recorder.install()`` replaces each traced name where its caller looks it
up (``eprint_oai.protocol.to_format``, ``eprint_oai.store.sets_for``, ...)
and class methods on the class itself; ``uninstall()`` puts the originals
back. Each span holds name, start, end, parent span and request id, in flat
arrays so that a traced harvest of tens of thousands of records stays a few
megabytes. The client transport opens a new request id and sends it in the
``X-Bench-Request`` header, which the program ignores; the wrapped WSGI app
reads it so client and server spans of one request can be joined, also
across processes (``dump``/``merge``).

``xmlwriter.element`` is deliberately not wrapped: it runs about twenty
times per record, so a span around it would cost more than it measures.
Its time shows up in the self time of ``protocol.handle`` and of the
crosswalk spans.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

REQUEST_HEADER = "X-Bench-Request"
_ENVIRON_KEY = "HTTP_X_BENCH_REQUEST"

# spans that measure the process's own writes (wchar from /proc/self/io)
_IO_SPANS = frozenset(
    {"store.ingest", "store.mark_deleted", "harvester.upsert", "harvester.compact"}
)


def wchar() -> int:
    """Bytes this process has passed to write() so far."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.request = 0
        self.root = -1
        self.paused = False


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.io_bytes: dict[int, int] = {}  # span -> wchar delta
        self.page: dict[int, tuple[int, int]] = {}  # app span -> (bytes, records)
        self.dirty: set[int] = set()  # ids of stores written since their last scan
        self._client_span: dict[int, int] = {}
        self._next_request = 0
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._patched: list[tuple[object, str, object]] = []
        self.active = False

    # --- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        local = self._local
        parent = local.stack[-1] if local.stack else local.root
        nid = self._nid(name)
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(local.request)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        local.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name: str, name_of=None):
        """``fn`` inside a span; ``name_of(args, kwargs)`` may pick the name
        per call (the crosswalk span is named after the requested format)."""
        measure_io = name in _IO_SPANS

        def traced(*args, **kwargs):
            if self._local.paused:
                return fn(*args, **kwargs)
            idx = self.open(name_of(args, kwargs) if name_of else name)
            before = wchar() if measure_io else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if measure_io:
                    self.io_bytes[idx] = wchar() - before
                self.close(idx)

        return traced

    def client_request(self, send, params, headers: dict):
        """Time one client request in a span tagged with a fresh request id
        that travels in ``headers``."""
        with self._lock:
            self._next_request += 1
            rid = self._next_request
        self._local.request = rid
        headers[REQUEST_HEADER] = str(rid)
        idx = self.open("harvester.request")
        self._client_span[rid] = idx
        try:
            return send(params)
        finally:
            self.close(idx)
            self._local.request = 0
            headers.pop(REQUEST_HEADER, None)

    def wrap_app(self, app):
        """The WSGI app inside a ``server.app`` span joined to the client
        span through the request header."""

        def traced_app(environ, start_response):
            if not self.active:
                return app(environ, start_response)
            local = self._local
            rid = int(environ.get(_ENVIRON_KEY, 0) or 0)
            local.request = rid
            local.root = self._client_span.get(rid, -1)
            idx = self.open("server.app")
            try:
                body = b"".join(app(environ, start_response))
            finally:
                self.close(idx)
                local.request = 0
                local.root = -1
            head = body[:300]
            if b"<ListIdentifiers" in head:
                self.page[idx] = (len(body), body.count(b"<identifier>"))
            elif b"<ListRecords" in head:
                self.page[idx] = (len(body), body.count(b"<record"))
            return [body]

        return traced_app

    # --- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced name where its caller looks it up."""
        from eprint_oai import crosswalk, harvester, protocol, store
        from eprint_oai.flowcontrol import ClientLedger

        rec = self
        for owner, attr, name in (
            (protocol, "parse_request", "protocol.parse_request"),
            (protocol, "parse_oai_identifier", "ids.parse_oai_identifier"),
            (protocol.ProtocolHandler, "handle", "protocol.handle"),
            (store, "sets_for", "ids.sets_for"),
            (store, "parse_abs", "absfile.parse_abs"),
            (store, "format_abs", "absfile.format_abs"),
            (store.Store, "get", "store.get"),
            (crosswalk, "parse_authors", "authors.parse_authors"),
            (crosswalk, "tex_to_utf8", "texmap.tex_to_utf8"),
            (ClientLedger, "admit", "flowcontrol.admit"),
            (harvester, "run", "harvester.run"),
            (harvester.HarvestStore, "upsert", "harvester.upsert"),
            (harvester.HarvestStore, "compact", "harvester.compact"),
        ):
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(
            protocol,
            "to_format",
            self.wrap(
                protocol.to_format,
                "crosswalk",
                name_of=lambda a, k: "crosswalk." + (a[2] if len(a) > 2 else k["prefix"]),
            ),
        )
        # a store's first scan after loading or writing rebuilds its index
        Store = store.Store
        for attr, name in (
            ("__init__", "store.load"),
            ("ingest", "store.ingest"),
            ("mark_deleted", "store.mark_deleted"),
        ):
            inner = self.wrap(getattr(Store, attr), name)

            def writer(self_, *args, _inner=inner, **kwargs):
                try:
                    return _inner(self_, *args, **kwargs)
                finally:
                    rec.dirty.add(id(self_))

            self._patch(Store, attr, writer)
        scan = Store.scan
        plain = self.wrap(scan, "store.scan")
        after_write = self.wrap(scan, "store.scan_after_write")

        def traced_scan(self_, *args, **kwargs):
            if rec._local.paused:
                return scan(self_, *args, **kwargs)
            if id(self_) in rec.dirty:
                rec.dirty.discard(id(self_))
                return after_write(self_, *args, **kwargs)
            return plain(self_, *args, **kwargs)

        self._patch(Store, "scan", traced_scan)

        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls the benchmark makes for its own checks stay out of the
        trace."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    # --- output ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` as JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "io_bytes": {str(k): v for k, v in self.io_bytes.items()},
            "page": {str(k): v for k, v in self.page.items()},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    def merge(self, path: Path) -> None:
        """Append the spans another process dumped; request ids are shared,
        so its server spans join this process's client spans."""
        doc = json.loads(path.read_text(encoding="utf-8"))
        offset = len(self.start)
        nids = [self._nid(n) for n in doc["names"]]
        with self._lock:
            self.name.extend(nids[i] for i in doc["name"])
            self.start.extend(doc["start"])
            self.end.extend(doc["end"])
            self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
            self.request.extend(doc["request"])
        for key, value in doc["io_bytes"].items():
            self.io_bytes[int(key) + offset] = value
        for key, value in doc["page"].items():
            self.page[int(key) + offset] = tuple(value)

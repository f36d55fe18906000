from __future__ import annotations

import json
import os
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import closing
from dataclasses import replace
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT, make_meta
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import (
    MAX_EMPTY_PAGES,
    MAX_PAGE_BYTES,
    HarvestedRecord,
    HarvestJob,
    HarvestState,
    HarvestStore,
    HarvestStoreError,
    HttpTransport,
    PageCutShort,
    ProtocolError,
    TransportFailure,
    TransportResponse,
    WsgiTransport,
    _parse_page,
    _retry_after_seconds,
    incremental,
    run,
)
from eprint_oai.ids import EprintId, format_datestamp, parse_datestamp
from eprint_oai.protocol import ProtocolHandler
from eprint_oai.server import make_app
from eprint_oai.store import Store


@pytest.fixture()
def transport(demo_handler):
    return WsgiTransport(make_app(demo_handler))


def test_job_validation():
    with pytest.raises(ValueError):
        HarvestJob("GetRecord")
    with pytest.raises(ValueError):
        HarvestJob("ListRecords")  # prefix required
    with pytest.raises(ValueError):
        HarvestJob("ListIdentifiers", metadata_prefix="oai_dc")


def test_list_identifiers_end_to_end(transport, demo_store):
    records, report = run(HarvestJob("ListIdentifiers"), transport)
    assert report.pages == 2
    expected = [f"oai:arXiv:{e.identifier}" for e in demo_store.scan()]
    assert [r.identifier for r in records] == expected


def test_list_records_end_to_end(transport, demo_store):
    records, report = run(
        HarvestJob("ListRecords", metadata_prefix="oai_dc"), transport
    )
    by_id = {r.identifier: r for r in records}
    deleted = by_id["oai:arXiv:hep-lat/9201001"]
    assert deleted.deleted and deleted.metadata is None
    normal = by_id["oai:arXiv:cs.DL/0101027"]
    assert not normal.deleted
    assert normal.datestamp == date(2001, 1, 25)
    assert "Digital Libraries" in normal.metadata


def test_window_and_set_arguments(transport):
    records, _ = run(
        HarvestJob(
            "ListIdentifiers",
            from_=date(1992, 4, 1),
            until=date(1992, 4, 20),
            set_spec="math",
        ),
        transport,
    )
    idents = [r.identifier for r in records]
    assert idents == [
        "oai:arXiv:math.DS/9204240",
        "oai:arXiv:math.DS/9204241",
        "oai:arXiv:math.LO/9201250",
    ]


def test_503_obeyed_and_run_completes(demo_handler):
    now = [0.0]
    naps: list[float] = []

    def sleep(seconds):
        naps.append(seconds)
        now[0] += seconds

    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    transport = WsgiTransport(app)
    # burn the client's allowance so the first page draws a 503
    transport.request([("verb", "ListIdentifiers")])
    records, report = run(HarvestJob("ListIdentifiers"), transport, sleep=sleep)
    assert report.retries_503 >= 1
    assert naps and all(n > 0 for n in naps)
    assert len(records) == 13


def test_deleted_count_sums_every_page(taxonomy):
    store = Store(taxonomy)
    for n in range(1, 31):
        eid = EprintId("cs", 101, n, subject_class="DL")
        received = datetime(2001, 1, 1 + n // 3, 12, tzinfo=timezone.utc)
        store.ingest(format_abs(make_meta(eid, received.date())), received)
        if n % 4 == 0:
            store.mark_deleted(eid, "withdrawn", received)
    transport = WsgiTransport(make_app(ProtocolHandler(store, RepositoryConfig(page_size=5))))
    records, report = run(HarvestJob("ListRecords", metadata_prefix="oai_dc"), transport)
    assert report.pages > 3
    assert report.deleted == sum(r.deleted for r in records) == 7


@pytest.mark.parametrize(
    "value,seconds",
    [
        ("3", 3.0),
        ("0.25", 0.25),
        ("Wed, 21 Oct 2015 07:28:05 GMT", 5.0),
        ("Wed, 21 Oct 2015 07:28:05 -0000", 5.0),
        ("Wed, 21 Oct 2015 09:28:05 +0200", 5.0),
        ("Wed, 21 Oct 2015 07:27:00 GMT", 0.0),  # already past
    ],
)
def test_retry_after_seconds_and_http_date(value, seconds):
    now = datetime(2015, 10, 21, 7, 28, 0, tzinfo=timezone.utc)
    assert _retry_after_seconds(value, now) == seconds


EMPTY_LIST_IDENTIFIERS = (
    b'<?xml version="1.0" encoding="UTF-8"?>\n'
    b'<ListIdentifiers xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListIdentifiers">'
    b"</ListIdentifiers>\n"
)


@pytest.mark.parametrize(
    "value",
    ["-1", "-0.5", "nan", "inf", "-inf", "1e400", "1e300", "86401",
     "Fri, 31 Dec 9999 23:59:59 GMT"],
)
def test_retry_after_that_cannot_be_slept_is_protocol_error(value):
    now = datetime(2015, 10, 21, 7, 28, 0, tzinfo=timezone.utc)
    with pytest.raises(ProtocolError, match="Retry-After"):
        _retry_after_seconds(value, now)


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e400", "1e300"])
def test_run_with_real_sleep_reports_bad_retry_after(value):
    """The real ``time.sleep`` refuses these values with ValueError or
    OverflowError; the harvest must fail with a ProtocolError first."""

    class Busy:
        def request(self, params):
            return TransportResponse(503, {"Retry-After": value}, b"busy")

    with pytest.raises(ProtocolError):
        run(HarvestJob("ListIdentifiers"), Busy(), sleep=time.sleep)


def test_retry_after_http_date_obeyed():
    class DateThen200:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls == 1:
                return TransportResponse(
                    503, {"Retry-After": "Thu, 01 Jan 1970 00:00:00 GMT"}, b"busy"
                )
            return TransportResponse(200, {}, EMPTY_LIST_IDENTIFIERS)

    naps: list[float] = []
    _, report = run(HarvestJob("ListIdentifiers"), DateThen200(), sleep=naps.append)
    assert report.retries_503 == 1
    assert naps == [0.0]


def test_bad_retry_after_is_protocol_error():
    class Garbled:
        def request(self, params):
            return TransportResponse(503, {"Retry-After": "soon"}, b"busy")

    with pytest.raises(ProtocolError):
        run(HarvestJob("ListIdentifiers"), Garbled(), sleep=lambda s: None)


def test_retry_budget_exhausted_raises_transport_failure():
    class Always503:
        def request(self, params):
            return TransportResponse(503, {"Retry-After": "1"}, b"busy")

    with pytest.raises(TransportFailure) as info:
        run(HarvestJob("ListIdentifiers"), Always503(), sleep=lambda s: None)
    assert str(info.value) == "too many 503 replies"


def test_a_repeated_token_fails_the_run_at_its_first_repeat():
    """A provider that answers every request with one identifier and the
    token ``same`` would keep the harvest going forever."""

    class Looping:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls > 50:  # a run that never refuses the token ends here
                return TransportResponse(400, {}, b"")
            return TransportResponse(200, {}, (
                b'<?xml version="1.0" encoding="UTF-8"?>\n<ListIdentifiers '
                b'xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListIdentifiers">'
                b"<identifier>oai:arXiv:cs.DL/0101027</identifier>"
                b"<resumptionToken>same</resumptionToken></ListIdentifiers>\n"
            ))

    transport = Looping()
    with pytest.raises(ProtocolError, match="resumptionToken 'same' repeated"):
        run(HarvestJob("ListIdentifiers"), transport, sleep=lambda s: None)
    assert transport.calls == 2


@pytest.mark.parametrize("name", ["retry-after", "RETRY-AFTER", "Retry-After"])
def test_retry_after_name_in_any_case_is_obeyed(name):
    class Busy:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls == 1:
                return TransportResponse(503, {name: "7"}, b"busy")
            return TransportResponse(200, {}, EMPTY_LIST_IDENTIFIERS)

    naps: list[float] = []
    run(HarvestJob("ListIdentifiers"), Busy(), sleep=naps.append)
    assert naps == [7.0]


class CannedHttp:
    """A loopback HTTP server that reads one request per connection and
    answers the n-th connection with the n-th canned reply (the last one
    for every connection after), then closes it."""

    def __init__(self, replies: list[bytes]):
        self.replies = replies
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}/"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                reply = self.replies[min(self.connections, len(self.replies) - 1)]
                self.connections += 1
                conn.sendall(reply)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture()
def canned_http():
    servers: list[CannedHttp] = []

    def start(replies: list[bytes]) -> CannedHttp:
        servers.append(CannedHttp(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _reply(status: str, headers: str, body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        f"HTTP/1.1 {status}\r\n{headers}Content-Length: {length}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body


def test_http_transport_reads_retry_after_sent_in_lowercase(canned_http):
    server = canned_http([
        _reply("503 Service Unavailable", "retry-after: 7\r\n", b"busy"),
        _reply("200 OK", "Content-Type: text/xml\r\n", EMPTY_LIST_IDENTIFIERS),
    ])
    naps: list[float] = []
    _, report = run(HarvestJob("ListIdentifiers"), HttpTransport(server.url),
                    sleep=naps.append)
    assert naps == [7.0] and report.retries_503 == 1 and report.pages == 1


def test_http_transport_short_body_is_transport_failure(canned_http):
    """A connection closed before the body's declared length arrives fails
    like any other broken connection: retried, then a TransportFailure."""
    short = _reply("200 OK", "", EMPTY_LIST_IDENTIFIERS[:40],
                   length=len(EMPTY_LIST_IDENTIFIERS))
    server = canned_http([short])
    naps: list[float] = []
    with pytest.raises(TransportFailure):
        run(HarvestJob("ListIdentifiers"), HttpTransport(server.url),
            sleep=naps.append)
    assert naps == [1.0, 2.0, 4.0, 8.0, 16.0] and server.connections == 6


# the head of a reply whose body ends where the connection closes, as this
# provider sends a ListRecords page
_STREAMED = b"HTTP/1.0 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\n\r\n"


def test_page_cut_short_by_a_closed_connection_is_retried(canned_http):
    """A page with no Content-Length whose connection closes mid-page is
    read whole as far as it goes; its XML ends too soon, so it is fetched
    again after the first transport back-off, and the harvest completes."""
    page = _page(_record("<a/>")).encode("utf-8")
    server = canned_http([_STREAMED + page[: len(page) // 2], _STREAMED + page])
    naps: list[float] = []
    records, report = run(
        HarvestJob("ListRecords", metadata_prefix="oai_dc"),
        HttpTransport(server.url),
        sleep=naps.append,
    )
    assert naps == [1.0] and server.connections == 2
    assert [r.identifier for r in records] == ["oai:arXiv:cs.DL/0101027"]
    assert report.pages == 1


@pytest.mark.parametrize(
    "body",
    [
        b'<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords>\n',
        b'<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords>\n<rec',
        '<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords>\u00e9'.encode()[:-1],
        b'<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords><![CDATA[ab',
    ],
    ids=["no-element-found", "unclosed-token", "partial-character", "unclosed-cdata"],
)
def test_xml_that_ends_too_soon_is_a_page_cut_short(body):
    with pytest.raises(PageCutShort):
        _parse_page(body, "ListRecords")


def test_xml_broken_before_its_end_is_not_a_page_cut_short():
    body = b'<?xml version="1.0" encoding="UTF-8"?>\n<ListRecords><a></b>'
    with pytest.raises(ProtocolError) as info:
        _parse_page(body, "ListRecords")
    assert not isinstance(info.value, PageCutShort)


def test_a_page_cut_short_every_time_spends_the_retry_budget():
    class CutShort:
        calls = 0

        def request(self, params):
            self.calls += 1
            return TransportResponse(200, {}, EMPTY_LIST_IDENTIFIERS[:-20])

    transport = CutShort()
    naps: list[float] = []
    with pytest.raises(PageCutShort):
        run(HarvestJob("ListIdentifiers"), transport, sleep=naps.append)
    assert naps == [1, 2, 4, 8, 16] and transport.calls == 6


def test_http_transport_reads_a_body_of_the_cap(canned_http):
    server = canned_http([_STREAMED + b"x" * MAX_PAGE_BYTES])
    body = HttpTransport(server.url).request([("verb", "ListRecords")]).body
    assert len(body) == MAX_PAGE_BYTES


def test_http_transport_refuses_a_body_over_the_cap(canned_http):
    """One byte over MAX_PAGE_BYTES is a ProtocolError, not retried."""
    server = canned_http([_STREAMED + b"x" * (MAX_PAGE_BYTES + 1)])
    naps: list[float] = []
    with pytest.raises(ProtocolError, match=f"body over {MAX_PAGE_BYTES} bytes"):
        run(HarvestJob("ListIdentifiers"), HttpTransport(server.url),
            sleep=naps.append)
    assert naps == [] and server.connections == 1


def _identifiers_page(identifiers: list[str], token: str | None) -> bytes:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n<ListIdentifiers '
        'xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListIdentifiers">'
        + "".join(f"<identifier>{i}</identifier>" for i in identifiers)
        + (f"<resumptionToken>{token}</resumptionToken>" if token else "")
        + "</ListIdentifiers>\n"
    ).encode("utf-8")


def test_a_run_of_empty_pages_fails_at_the_bound():
    """A provider that answers empty pages with ever-new tokens makes no
    progress: the run fails at the MAX_EMPTY_PAGES-th, naming its token."""

    class Empty:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls > 10 * MAX_EMPTY_PAGES:  # an unbounded run ends here
                return TransportResponse(400, {}, b"")
            return TransportResponse(200, {}, _identifiers_page([], f"t{self.calls}"))

    transport = Empty()
    with pytest.raises(ProtocolError, match=f"'t{MAX_EMPTY_PAGES}'"):
        run(HarvestJob("ListIdentifiers"), transport, sleep=lambda s: None)
    assert transport.calls == MAX_EMPTY_PAGES


def test_a_page_with_a_record_restarts_the_empty_page_count():
    class MostlyEmpty:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls == 2 * MAX_EMPTY_PAGES:
                return TransportResponse(200, {}, _identifiers_page([], None))
            held = ["oai:arXiv:cs.DL/0101027"] if self.calls == MAX_EMPTY_PAGES else []
            return TransportResponse(
                200, {}, _identifiers_page(held, f"t{self.calls}")
            )

    records, report = run(
        HarvestJob("ListIdentifiers"), MostlyEmpty(), sleep=lambda s: None
    )
    assert len(records) == 1 and report.pages == 2 * MAX_EMPTY_PAGES


def test_garbage_body_is_protocol_error():
    class Garbage:
        def request(self, params):
            return TransportResponse(200, {}, b"this is not xml")

    with pytest.raises(ProtocolError):
        run(HarvestJob("ListIdentifiers"), Garbage())


# --- the page parser ----------------------------------------------------------


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def reference_parse_page(body: bytes, verb: str):
    """The ElementTree parser that ``_parse_page`` replaced, kept as the
    reference its records and tokens must equal; it stores each record's
    metadata re-serialised by ``ET.tostring``."""
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"response body does not parse as XML: {exc}") from exc
    if _localname(root.tag) != verb:
        raise ProtocolError(f"expected {verb} response, got {_localname(root.tag)!r}")
    records: list[HarvestedRecord] = []
    token = None
    for child in root:
        name = _localname(child.tag)
        if name == "identifier":
            records.append(HarvestedRecord(identifier=(child.text or "").strip()))
        elif name == "record":
            records.append(_reference_record(child))
        elif name == "resumptionToken":
            token = (child.text or "").strip() or None
    return records, token


def _reference_record(node) -> HarvestedRecord:
    ident, stamp, metadata = "", None, None
    for child in node:
        name = _localname(child.tag)
        if name == "header":
            for h in child:
                hname = _localname(h.tag)
                if hname == "identifier":
                    ident = (h.text or "").strip()
                elif hname == "datestamp":
                    stamp = parse_datestamp((h.text or "").strip())
        elif name == "metadata":
            inner = list(child)
            if inner:
                metadata = ET.tostring(inner[0], encoding="unicode").strip()
    if not ident:
        raise ProtocolError("record without header identifier")
    return HarvestedRecord(ident, stamp, node.get("status") == "deleted", metadata)


def _canonical(fragment: str) -> str:
    return ET.canonicalize(fragment, rewrite_prefixes=True)


def assert_same_as_reference(body: bytes, verb: str) -> list[HarvestedRecord]:
    """``_parse_page`` and the reference agree on every header field and
    the token, and every fragment parses on its own and means what the
    reference's does."""
    records, token = _parse_page(body, verb)
    expected, expected_token = reference_parse_page(body, verb)
    assert token == expected_token
    assert [(r.identifier, r.datestamp, r.deleted) for r in records] == [
        (r.identifier, r.datestamp, r.deleted) for r in expected
    ]
    for record, reference in zip(records, expected):
        assert (record.metadata is None) == (reference.metadata is None)
        if record.metadata is not None:
            ET.fromstring(record.metadata)
            assert _canonical(record.metadata) == _canonical(reference.metadata)
    return records


def _pages(transport, job: HarvestJob) -> list[bytes]:
    pages, params = [], job.initial_params()
    while True:
        body = transport.request(params).body
        pages.append(body)
        _, token = reference_parse_page(body, job.verb)
        if token is None:
            return pages
        params = [("verb", job.verb), ("resumptionToken", token)]


@pytest.mark.parametrize(
    "job",
    [
        HarvestJob("ListRecords", metadata_prefix="oai_dc"),
        HarvestJob("ListRecords", metadata_prefix="oai_rfc1807"),
        HarvestJob("ListRecords", metadata_prefix="arXiv"),
        HarvestJob("ListRecords", metadata_prefix="arXivOld"),
        HarvestJob("ListRecords", metadata_prefix="oai_dc", set_spec="math"),
        HarvestJob("ListIdentifiers"),
    ],
    ids=lambda job: f"{job.metadata_prefix or job.verb}-{job.set_spec or 'all'}",
)
def test_parse_page_matches_reference_on_demo_harvests(transport, job):
    pages = _pages(transport, job)
    assert len(pages) >= (1 if job.set_spec else 2)  # math fits on one page
    fragments = 0
    for body in pages:
        for record in assert_same_as_reference(body, job.verb):
            if record.metadata is not None:
                fragments += 1
                # the provider's bytes, from the start tag to the end tag
                assert record.metadata.encode("utf-8") in body
    assert fragments or job.verb == "ListIdentifiers"


def test_stored_metadata_is_the_providers_bytes(transport):
    records, _ = run(HarvestJob("ListRecords", metadata_prefix="arXiv"), transport)
    normal = {r.identifier: r for r in records}["oai:arXiv:cs.DL/0101027"]
    assert normal.metadata.startswith(
        '<arXiv xmlns="http://arXiv.org/OAI/"\n'
        '      xmlns:xsi="http://www.w3.org/2000/10/XMLSchema-instance"\n'
    )
    assert normal.metadata.endswith("</arXiv>")
    assert "ns0:" not in normal.metadata


def _page(records: str, root_attrs: str = "", declaration: str = "UTF-8") -> str:
    return (
        f'<?xml version="1.0" encoding="{declaration}"?>\n'
        f'<ListRecords xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListRecords"'
        f"{root_attrs}>\n<responseDate>2001-01-22T10:01:27+00:00</responseDate>\n"
        f"{records}</ListRecords>\n"
    )


def _record(metadata: str, ident: str = "oai:arXiv:cs.DL/0101027",
            stamp: str = "2001-01-25", status: str = "") -> str:
    return (
        f"<record{status}><header><identifier>{ident}</identifier>"
        f"<datestamp>{stamp}</datestamp></header>\n"
        f"<metadata>{metadata}</metadata></record>\n"
    )


def test_fragment_gets_the_bindings_it_inherits():
    """A prefix and a default namespace declared on ancestors are declared
    again on the fragment's root, and only those the fragment uses."""
    body = _page(
        _record('\n <dc:title xml:lang="en">T</dc:title>\n ')
        + _record(
            '<entry dc:lang="en"><dc:title>T</dc:title><x:y xmlns:x="urn:x"/></entry>',
            ident="oai:arXiv:cs.DL/0101028",
        ).replace("<metadata>", '<metadata xmlns="urn:meta">')
        + _record('<own xmlns="urn:own"><dc:title>T</dc:title></own>',
                  ident="oai:arXiv:cs.DL/0101029")
        + _record('<note xmlns="urn:n" dc:lang="en">T</note>',
                  ident="oai:arXiv:cs.DL/0101030"),
        ' xmlns:dc="http://purl.org/dc/elements/1.1/" xmlns:unused="urn:unused"',
    ).encode("utf-8")
    records = assert_same_as_reference(body, "ListRecords")
    assert [r.metadata for r in records] == [
        '<dc:title xmlns:dc="http://purl.org/dc/elements/1.1/" xml:lang="en">'
        "T</dc:title>",
        '<entry xmlns="urn:meta" xmlns:dc="http://purl.org/dc/elements/1.1/"'
        ' dc:lang="en"><dc:title>T</dc:title><x:y xmlns:x="urn:x"/></entry>',
        '<own xmlns:dc="http://purl.org/dc/elements/1.1/" xmlns="urn:own">'
        "<dc:title>T</dc:title></own>",
        '<note xmlns:dc="http://purl.org/dc/elements/1.1/" xmlns="urn:n"'
        ' dc:lang="en">T</note>',
    ]


def test_fragment_keeps_a_binding_it_uses_only_in_an_attribute_value():
    """A prefix that the fragment names only inside a QName value, as in
    ``xsi:type="dcterms:W3CDTF"``, is declared again on its root, so that
    the QName still resolves on its own."""
    body = _page(
        _record('<dc xmlns="urn:dc"><date xsi:type="dcterms:W3CDTF">2001</date></dc>'),
        ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xmlns:dcterms="http://purl.org/dc/terms/"',
    ).encode("utf-8")
    [record] = assert_same_as_reference(body, "ListRecords")
    canonical = ET.canonicalize(
        record.metadata,
        qname_aware_attrs=["{http://www.w3.org/2001/XMLSchema-instance}type"],
    )
    assert 'xmlns:dcterms="http://purl.org/dc/terms/"' in canonical
    assert 'xsi:type="dcterms:W3CDTF"' in canonical


def test_page_in_iso_8859_1():
    body = _page(
        _record('<dc xmlns="urn:dc"><title>Caf\u00e9 \u00e0 Orsay</title></dc>',
                ident="oai:arXiv:cs.DL/0101027\u00e9"),
        declaration="ISO-8859-1",
    ).encode("iso-8859-1")
    [record] = assert_same_as_reference(body, "ListRecords")
    assert record.identifier == "oai:arXiv:cs.DL/0101027\u00e9"
    assert record.metadata == (
        '<dc xmlns="urn:dc"><title>Caf\u00e9 \u00e0 Orsay</title></dc>'
    )


def test_utf16_page_is_protocol_error():
    """Fragments are found by single-byte "<" and ">", so a page in UTF-16
    is refused rather than sliced wrongly."""
    text = _page(_record('<dc xmlns="urn:dc"/>'), declaration="UTF-16")
    for body in (text.encode("utf-16"), text.encode("utf-16-be")):
        reference_parse_page(body, "ListRecords")
        with pytest.raises(ProtocolError, match="UTF-16"):
            _parse_page(body, "ListRecords")


@pytest.mark.parametrize("encoding", ["no-such-codec", "rot13", "shift_jis"])
def test_unusable_declared_encoding_is_protocol_error(encoding):
    """An encoding expat leaves to Python, and Python cannot give it as a
    one-byte text codec, is the provider's fault like any other bad page."""
    body = _page(_record('<dc xmlns="urn:dc"/>'), declaration=encoding)
    with pytest.raises(ProtocolError, match=f"unusable declared encoding '{encoding}'"):
        _parse_page(body.encode("ascii"), "ListRecords")


@pytest.mark.parametrize(
    "fragment",
    [
        '<empty xmlns="urn:e" note="a > b" other=\'/>\'/>',
        '<empty xmlns="urn:e" note="a > b" />',
        '<r xmlns="urn:r"><c note="/>"/></r>',
        '<r xmlns="urn:r">x/></r>',
        '<r xmlns="urn:r"></r >',
        '<d xmlns="urn:d"><!-- a <note> --><t><![CDATA[a <b> & c]]></t></d>',
    ],
)
def test_fragment_bytes_end_where_the_element_ends(fragment):
    """Empty-element roots (also with ">" inside an attribute value), roots
    whose content ends in "/>", CDATA and comments are kept byte for byte."""
    body = _page(_record(fragment + "\n") + _record(fragment, ident="oai:x:2"))
    records = assert_same_as_reference(body.encode("utf-8"), "ListRecords")
    assert [r.metadata for r in records] == [fragment, fragment]


@pytest.mark.parametrize(
    "fragment, kept",
    [
        # a root that undeclares the default namespace, with content and empty
        ('<r xmlns=""><c>t</c></r>', None),
        ('<r xmlns=""/>', None),
        # nested elements that declare the root's prefix again; the default
        # namespace <c> uses is inherited from the page
        (
            '<a:r xmlns:a="urn:a"><a:c xmlns:a="urn:b">t</a:c>'
            '<c xmlns:a="urn:a"/></a:r>',
            '<a:r xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListRecords"'
            ' xmlns:a="urn:a"><a:c xmlns:a="urn:b">t</a:c><c xmlns:a="urn:a"/></a:r>',
        ),
        # the root's expanded name inside it, under another prefix
        ('<a:x xmlns:a="urn:x" xmlns:b="urn:x"><b:x>t</b:x></a:x>', None),
        # elements named like the root inside it, empty and not
        ('<x xmlns="urn:x"><x><x/></x><x>t</x></x>', None),
        ('<x xmlns="urn:x"><x/></x>', None),
        # an end tag of the root's name in a comment and in CDATA
        ('<x xmlns="urn:x"><!-- </x> --><y><![CDATA[</x>]]></y></x>', None),
        # a root that declares nothing: its element depth is counted
        (
            '<dc:r><dc:c xmlns:e="urn:e"><e:d/></dc:c></dc:r>',
            '<dc:r xmlns:dc="urn:dc"><dc:c xmlns:e="urn:e"><e:d/></dc:c></dc:r>',
        ),
    ],
    ids=["undeclared-default", "undeclared-default-empty", "redeclared-prefix",
         "same-name-other-prefix", "same-name-nested", "same-name-empty",
         "end-tag-in-comment-and-cdata", "inherited-prefix-depth-count"],
)
def test_fragment_end_found_by_counting_bindings(fragment, kept):
    """A root that declares namespace bindings ends when the last of them
    goes out of scope; its bytes are kept as sent, with only the bindings
    it inherits added, and the records after it parse as before."""
    body = _page(
        _record(fragment + "\n") + _record(fragment, ident="oai:x:2"),
        ' xmlns:dc="urn:dc"',
    )
    records = assert_same_as_reference(body.encode("utf-8"), "ListRecords")
    assert [r.metadata for r in records] == [kept or fragment] * 2


def test_fragments_of_both_kinds_in_one_page():
    """After a fragment whose bindings were counted, the next fragment's
    nested declarations are not counted against it, and the bindings of
    the elements after it are seen again."""
    counted = '<x xmlns="urn:x"><y xmlns:e="urn:e"><e:z/></y></x>'
    by_depth = '<dc:r><dc:c xmlns:e="urn:e"><e:d/></dc:c><dc:t>t</dc:t></dc:r>'
    body = _page(
        _record(counted)
        + _record(by_depth, ident="oai:x:2")
        + _record(counted, ident="oai:x:3").replace(
            "<metadata>", '<metadata xmlns:dc="urn:other">')
        + _record(by_depth, ident="oai:x:4"),
        ' xmlns:dc="urn:dc"',
    )
    records = assert_same_as_reference(body.encode("utf-8"), "ListRecords")
    with_dc = by_depth.replace("<dc:r>", '<dc:r xmlns:dc="urn:dc">', 1)
    assert [r.metadata for r in records] == [counted, with_dc, counted, with_dc]


def test_empty_metadata_is_none():
    body = _page(_record("") + _record("", ident="oai:x:2").replace(
        "<metadata></metadata>", "<metadata/>"))
    records = assert_same_as_reference(body.encode("utf-8"), "ListRecords")
    assert [r.metadata for r in records] == [None, None]


def test_deleted_record_and_token():
    body = _page(
        _record("", status=' status="deleted"')
        + "<resumptionToken> 1992-05-01___ </resumptionToken>\n"
    ).encode("utf-8")
    [record] = assert_same_as_reference(body, "ListRecords")
    assert record.deleted and record.metadata is None
    assert _parse_page(body, "ListRecords")[1] == "1992-05-01___"


@pytest.mark.parametrize(
    "body",
    [
        _page(_record("<a/>")).encode("utf-8").replace(
            b"ListRecords", b"ListIdentifiers"),  # the wrong root element
        _page(_record("<a/>")).encode("utf-8")[:-40],  # truncated
        b"this is not xml",
        b"",
        _page(_record("<p:a/>")).encode("utf-8"),  # unbound prefix
        _page(_record("<a/>", ident="")).encode("utf-8"),
    ],
    ids=["wrong-root", "truncated", "not-xml", "empty", "unbound-prefix",
         "no-identifier"],
)
def test_unusable_page_is_protocol_error(body):
    with pytest.raises(ProtocolError):
        reference_parse_page(body, "ListRecords")
    with pytest.raises(ProtocolError):
        _parse_page(body, "ListRecords")


@pytest.mark.parametrize("stamp", ["2001-13-45", "2001-1-4", "", "2001-02-30"])
def test_malformed_header_datestamp_is_protocol_error(stamp):
    body = _page(_record("<a/>", stamp=stamp)).encode("utf-8")
    with pytest.raises(ValueError):
        reference_parse_page(body, "ListRecords")
    with pytest.raises(ProtocolError, match="datestamp"):
        _parse_page(body, "ListRecords")


def test_harvest_store_roundtrip(tmp_path, transport):
    records, _ = run(
        HarvestJob("ListRecords", metadata_prefix="oai_dc"), transport
    )
    store = HarvestStore(tmp_path / "h")
    store.upsert(records)
    store.upsert(records)  # idempotent
    assert len(store.latest()) == len(records)
    store.compact()
    reloaded = HarvestStore(tmp_path / "h")
    assert reloaded.latest() == store.latest()


def test_harvest_state_never_moves_backward(tmp_path):
    path = tmp_path / "harvest.sqlite"
    state = HarvestState(path)
    key = HarvestState.key("http://x/oai1", None, "oai_dc")
    assert state.last_completed(key) is None
    state.advance(key, date(2001, 1, 20))
    state.advance(key, date(2001, 1, 10))
    assert state.last_completed(key) == date(2001, 1, 20)
    assert HarvestState(path).last_completed(key) == date(2001, 1, 20)


@pytest.mark.parametrize(
    "table, day, message",
    [(None, None, "not a database"),
     ("state (key, other)", None, "no such column: day"),
     ("state (key, day)", "2001-13-45", "'k' is not a YYYY-MM-DD date: '2001-13-45'"),
     ("state (key, day)", 20010120, "'k' is not a YYYY-MM-DD date: 20010120"),
     ("state (key, day)", "2001-1-4", "'k' is not a YYYY-MM-DD date: '2001-1-4'"),
     ("state (key, day)", None, "'k' is not a YYYY-MM-DD date: None")],
    ids=["not-a-database", "wrong-table", "bad-date", "not-a-string",
         "unpadded", "null"],
)
def test_unusable_state_file_is_refused_on_open(tmp_path, table, day, message):
    path = tmp_path / "harvest.sqlite"
    if table is None:
        path.write_bytes(b"not a database\n" * 100)
    else:
        with closing(sqlite3.connect(path)) as db, db:
            db.execute(f"CREATE TABLE {table}")
            db.execute("INSERT INTO state VALUES ('k', ?)", (day,))
    with pytest.raises(HarvestStoreError, match=re.escape(message)) as info:
        HarvestState(path)
    assert str(path) in str(info.value)


def day_clock(day_holder):
    return lambda: datetime.combine(day_holder[0], datetime.min.time())


def test_incremental_overlap_catches_same_day_update(taxonomy, tmp_path):
    """An update made later on the day of the last harvest is caught by the
    1-day overlap and missed when the overlap is disabled."""

    def simulate(overlap_days):
        store = Store(taxonomy)
        day = [date(2001, 3, 1)]
        handler = ProtocolHandler(
            store, RepositoryConfig(page_size=500), clock=day_clock(day)
        )
        transport = WsgiTransport(make_app(handler))
        meta = make_meta(EprintId("hep-th", 103, 1), day[0])
        store.ingest(format_abs(meta), datetime(2001, 3, 1, 9, 0))
        state = HarvestState()
        key = HarvestState.key("loopback", None, "oai_dc")
        job = HarvestJob("ListRecords", metadata_prefix="oai_dc")
        harvested = HarvestStore(tmp_path / f"ov{overlap_days}")

        # harvest in the morning, then an afternoon update the same day
        incremental(state, key, job, day[0], transport, harvested,
                    overlap_days=overlap_days, sleep=lambda s: None)
        meta.comments = "revised version, 12 pages"
        store.ingest(format_abs(meta), datetime(2001, 3, 1, 15, 0))

        day[0] = date(2001, 3, 2)
        incremental(state, key, job, day[0], transport, harvested,
                    overlap_days=overlap_days, sleep=lambda s: None)
        entry = harvested.latest()["oai:arXiv:hep-th/0103001"]
        return "revised version" in (entry["metadata"] or "")

    assert simulate(overlap_days=1) is True
    assert simulate(overlap_days=-1) is False


def test_incremental_bounded_by_until_loses_no_record(transport, demo_store):
    """A run bounded by ``until`` completes ``until``, not the day it ran,
    so the next run, bounded or not, starts from there."""
    state = HarvestState()
    key = HarvestState.key("loopback", None, "oai_dc")
    today, until = date(2001, 2, 1), date(1995, 1, 1)
    bounded = HarvestJob("ListRecords", metadata_prefix="oai_dc", until=until)
    records, _ = incremental(state, key, bounded, today, transport)
    assert len(records) == 8 and state.last_completed(key) == until
    # the same bound again: from (the overlap) is not after until
    records, _ = incremental(state, key, bounded, today, transport)
    assert {r.datestamp for r in records} <= {date(1994, 12, 31), until}
    assert state.last_completed(key) == until
    later = sorted(
        f"oai:arXiv:{e.identifier}" for e in demo_store.scan()
        if e.datestamp > until
    )
    assert len(later) == 5
    unbounded = HarvestJob("ListRecords", metadata_prefix="oai_dc")
    records, _ = incremental(state, key, unbounded, today, transport)
    assert later == sorted(
        r.identifier for r in records if r.datestamp > until
    )
    assert state.last_completed(key) == today


def test_incremental_until_before_the_overlap_asks_for_nothing(transport):
    """A run whose ``until`` is before the saved day minus the overlap would
    send ``from`` > ``until``, which the provider refuses: it sends nothing,
    returns nothing and keeps the saved day, and the next run without
    ``until`` still starts from that day minus the overlap."""
    asked: list[dict[str, str]] = []

    class Recording:
        def request(self, params):
            asked.append(dict(params))
            return transport.request(params)

    state = HarvestState()
    key = HarvestState.key("loopback", None, "oai_dc")
    today = date(2001, 2, 1)
    job = HarvestJob("ListRecords", metadata_prefix="oai_dc")
    records, _ = incremental(state, key, job, today, Recording())
    assert len(records) == 13 and state.last_completed(key) == today
    asked.clear()
    early = replace(job, until=date(1995, 1, 1))
    records, report = incremental(state, key, early, today, Recording())
    assert (records, report.pages, asked) == ([], 0, [])
    assert state.last_completed(key) == today
    incremental(state, key, job, date(2001, 2, 3), Recording())
    assert asked[0]["from"] == "2001-01-31" and "until" not in asked[0]
    assert state.last_completed(key) == date(2001, 2, 3)


def test_failing_upsert_leaves_state_untouched(transport):
    state = HarvestState()
    key = "k"
    state.advance(key, date(2001, 1, 1))

    class Unwritable:
        def upsert(self, records):
            raise HarvestStoreError("cannot write harvest.sqlite: disk full")

    with pytest.raises(HarvestStoreError, match="disk full"):
        incremental(
            state, key, HarvestJob("ListIdentifiers"),
            date(2001, 2, 1), transport, Unwritable(), sleep=lambda s: None,
        )
    assert state.last_completed(key) == date(2001, 1, 1)


def test_incremental_failure_leaves_state_untouched(taxonomy):
    state = HarvestState()
    key = "k"
    state.advance(key, date(2001, 1, 1))

    class Fails:
        def request(self, params):
            raise TransportFailure("down")

    with pytest.raises(TransportFailure):
        incremental(
            state, key, HarvestJob("ListIdentifiers"),
            date(2001, 2, 1), Fails(), sleep=lambda s: None,
        )
    assert state.last_completed(key) == date(2001, 1, 1)


def test_transport_failures_back_off_exponentially():
    class FailsThenServes:
        calls = 0

        def request(self, params):
            self.calls += 1
            if self.calls <= 3:
                raise TransportFailure("connection reset")
            return TransportResponse(200, {}, EMPTY_LIST_IDENTIFIERS)

    naps: list[float] = []
    run(HarvestJob("ListIdentifiers"), FailsThenServes(), sleep=naps.append)
    assert naps == [1, 2, 4]


def test_transport_failures_spend_the_whole_retry_budget():
    class Down:
        calls = 0

        def request(self, params):
            self.calls += 1
            raise TransportFailure("down")

    down = Down()
    naps: list[float] = []
    with pytest.raises(TransportFailure, match="down"):
        run(HarvestJob("ListIdentifiers"), down, sleep=naps.append)
    assert naps == [1, 2, 4, 8, 16] and down.calls == 6


# --- local persistence -------------------------------------------------------


class ReferenceHarvestStore:
    """The dict-based store of the journal format that ``HarvestStore``
    replaced, kept as the reference its entries must equal."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / "journal.jsonl"
        self.latest_path = self.directory / "latest.json"
        self._latest: dict[str, dict] = {}
        if self.latest_path.exists():
            self._latest = json.loads(self.latest_path.read_text(encoding="utf-8"))
        if self.journal_path.exists():
            for line in self.journal_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    entry = json.loads(line)
                    self._latest[entry["identifier"]] = entry

    @staticmethod
    def _encode(record: HarvestedRecord) -> dict:
        return {
            "identifier": record.identifier,
            "datestamp": (
                format_datestamp(record.datestamp) if record.datestamp else None
            ),
            "deleted": record.deleted,
            "metadata": record.metadata,
        }

    def upsert(self, records):
        with self.journal_path.open("a", encoding="utf-8") as fh:
            for record in records:
                entry = self._encode(record)
                self._latest[record.identifier] = entry
                fh.write(json.dumps(entry) + "\n")

    def compact(self):
        tmp = self.latest_path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(self._latest, indent=1, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(self.latest_path)
        self.journal_path.write_text("", encoding="utf-8")

    def latest(self):
        return dict(sorted(self._latest.items()))


# quotes, backslashes, control characters, NUL, non-ASCII and astral
# characters. No lone surrogates: harvested text is decoded from the page's
# bytes and never holds one (an upsert of one is refused whole, below).
_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "/", "\n", "\x00", "\x7f", "é", "\u2028", "\U0001d49c"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)
_RECORD = st.builds(
    HarvestedRecord,
    identifier=st.one_of(st.sampled_from(["oai:arXiv:a", "oai:arXiv:b", ""]), _TEXT),
    datestamp=st.one_of(st.none(), st.dates(date(1991, 1, 1), date(2030, 12, 31))),
    deleted=st.booleans(),
    metadata=st.one_of(st.none(), _TEXT),
)
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), st.lists(_RECORD, max_size=6)),
        st.tuples(st.sampled_from(["compact", "reopen"]), st.none()),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_STORE_OPS)
def test_harvest_store_matches_reference(ops):
    """Over random upsert, compact and reopen sequences, the database holds
    the same entries, in the same order, as the journal-format reference."""
    with tempfile.TemporaryDirectory() as tmp:
        ours_dir, ref_dir = Path(tmp) / "ours", Path(tmp) / "ref"
        ours, ref = HarvestStore(ours_dir), ReferenceHarvestStore(ref_dir)
        for op, records in ops:
            if op == "upsert":
                ours.upsert(records)
                ref.upsert(records)
            elif op == "compact":
                ours.compact()
                ref.compact()
            else:
                ours.close()
                ours, ref = HarvestStore(ours_dir), ReferenceHarvestStore(ref_dir)
            latest = ours.latest()
            assert latest == ref.latest()
            assert list(latest) == list(ref.latest())
        ours.close()
        assert sorted(p.name for p in ours_dir.iterdir()) == ["harvest.sqlite"]


def _harvested(n: int, note: str = "") -> list[HarvestedRecord]:
    return [
        HarvestedRecord(f"oai:arXiv:hep-th/99{i:05d}", date(1999, 1, 1 + i % 28),
                        metadata=f"<dc>r\u00e9sum\u00e9 {i}{note}</dc>")
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "bad",
    [
        # text SQLite cannot hold as UTF-8
        HarvestedRecord("oai:arXiv:hep-th/9900005", metadata="<dc>\ud800</dc>"),
        # not a record at all
        None,
    ],
    ids=["surrogate", "not-a-record"],
)
def test_upsert_that_raises_partway_changes_no_entry(tmp_path, bad):
    store = HarvestStore(tmp_path)
    store.upsert(_harvested(3))
    before = store.latest()
    # the first record replaces an entry and the second adds one before
    # the third raises
    batch = _harvested(5, note=" revised")[2:4] + [bad]
    with pytest.raises((ValueError, AttributeError)):
        store.upsert(batch)
    assert store.latest() == before
    assert HarvestStore(tmp_path).latest() == before
    store.upsert(batch[:2])
    assert len(HarvestStore(tmp_path).latest()) == 4


# a child that upserts a batch too large for SQLite's page cache, so that
# changed pages reach the database file before the commit; it reports
# "mid" (paused half-way through the batch) or "after" (the upsert has
# returned), or starts unpaused ("none"), then waits to be killed
_UPSERT_CHILD = """
import sys, time
from datetime import date
from eprint_oai.harvester import HarvestedRecord, HarvestStore

directory, pause, n = sys.argv[1], sys.argv[2], int(sys.argv[3])

def batch():
    for i in range(n):
        if pause == "mid" and i == n // 2:
            print("mid", flush=True)
            time.sleep(60)
        yield HarvestedRecord(f"oai:arXiv:hep-th/99{i:05d}", date(2001, 2, 1),
                              metadata=f"<dc>{i} {'y' * 2000}</dc>")

store = HarvestStore(directory)
print("start", flush=True)
store.upsert(batch())
print("after", flush=True)
time.sleep(60)
"""


@pytest.mark.parametrize(
    "pause, delay_s",
    [("mid", 0), ("after", 0), ("none", 0.02), ("none", 0.06)],
    ids=["mid", "after", "unpaused-20ms", "unpaused-60ms"],
)
def test_killed_upsert_reopens_before_or_after(tmp_path, pause, delay_s):
    """A harvester SIGKILLed during a large upsert leaves the store as it
    was before the upsert or as the upsert made it, never a mix."""
    n = 4000
    store = HarvestStore(tmp_path)
    store.upsert(_harvested(200))
    before = store.latest()
    size = store.path.stat().st_size
    store.close()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # leaving the with block closes the child's pipe
    with subprocess.Popen(
        [sys.executable, "-c", _UPSERT_CHILD, str(tmp_path), pause, str(n)],
        env=env, stdout=subprocess.PIPE, text=True,
    ) as child:
        try:
            assert child.stdout.readline() == "start\n"
            if pause == "none":
                time.sleep(delay_s)
            else:
                assert child.stdout.readline() == pause + "\n"
            if pause == "mid":
                # the transaction is open and has spilled pages into the file
                assert (tmp_path / "harvest.sqlite-journal").exists()
                assert store.path.stat().st_size > size
        finally:
            child.kill()
            child.wait(timeout=10)
    assert child.returncode == -signal.SIGKILL
    latest = HarvestStore(tmp_path).latest()
    after = dict(before)
    for i in range(n):
        ident = f"oai:arXiv:hep-th/99{i:05d}"
        after[ident] = {"identifier": ident, "datestamp": "2001-02-01",
                        "deleted": False, "metadata": f"<dc>{i} {'y' * 2000}</dc>"}
    if pause == "mid":
        assert latest == before
    elif pause == "after":
        assert latest == after
    else:
        assert latest in (before, after)
    assert len(HarvestStore(tmp_path).latest()) in (len(before), len(after))


@pytest.mark.parametrize(
    "old",
    [["latest.json"], ["journal.jsonl"], ["journal.jsonl", "latest.json"]],
    ids=["latest", "journal", "both"],
)
def test_directory_in_the_old_format_opens_and_harvests_in_full(
    tmp_path, transport, old
):
    """No date is read from the older journal format's files, so such a
    directory opens with no completed day, and its next incremental run is a
    full harvest, which skips nothing. The old files are left as they were."""
    for name in old:
        (tmp_path / name).write_text('{"k": "2001-01-20"}\n', encoding="utf-8")
    key = HarvestState.key("loopback", None, "oai_dc")
    job = HarvestJob("ListRecords", metadata_prefix="oai_dc")
    with closing(HarvestStore(tmp_path)) as store:
        today = date(2001, 2, 1)
        records, _ = incremental(store, key, job, today, transport, store)
        assert len(records) == len(store.latest()) == 13
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([*old, "harvest.sqlite"])
    for name in old:
        assert (tmp_path / name).read_text(encoding="utf-8") == '{"k": "2001-01-20"}\n'


def test_file_that_is_not_a_database_is_refused(tmp_path):
    (tmp_path / "harvest.sqlite").write_bytes(b"not a database\n" * 100)
    with pytest.raises(HarvestStoreError, match="not a database"):
        HarvestStore(tmp_path)


def test_harvester_databases_commit_with_extra_sync(tmp_path):
    """A rollback journal, with each commit fsynced, and the directory too
    once the journal is deleted."""
    store = HarvestStore(tmp_path)
    state = HarvestState(store.path)
    for db in (store._db, state._db):
        assert db.execute("PRAGMA synchronous").fetchone() == (3,)  # EXTRA
        assert db.execute("PRAGMA journal_mode").fetchone() == ("delete",)


# a child that advances one harvest state, says so, then waits to be killed
_ADVANCE_CHILD = """
import sys, time
from datetime import date
from eprint_oai.harvester import HarvestState

HarvestState(sys.argv[1]).advance("k", date(2001, 1, 20))
print("after", flush=True)
time.sleep(60)
"""


def test_harvest_state_advance_is_durable(tmp_path):
    """A harvester SIGKILLed right after an advance returns leaves the new
    day in the database."""
    path = tmp_path / "harvest.sqlite"
    HarvestState(path).advance("k", date(2001, 1, 10))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, "-c", _ADVANCE_CHILD, str(path)],
        env=env, stdout=subprocess.PIPE, text=True,
    ) as child:
        try:
            assert child.stdout.readline() == "after\n"
        finally:
            child.kill()
            child.wait(timeout=10)
    assert child.returncode == -signal.SIGKILL
    assert not (tmp_path / "harvest.sqlite-journal").exists()
    assert HarvestState(path).last_completed("k") == date(2001, 1, 20)

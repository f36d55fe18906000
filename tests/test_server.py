from __future__ import annotations

import io
import logging
import time
import xml.etree.ElementTree as ET
from datetime import date, timedelta
from urllib.parse import quote

import pytest

from conftest import FIXED_CLOCK, make_meta
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import WsgiTransport
from eprint_oai.ids import EprintId
from eprint_oai.protocol import ProtocolHandler
from eprint_oai.server import make_app
from eprint_oai.store import Store, _rel_path


def get(app, query, addr="1.2.3.4"):
    environ = {
        "REQUEST_METHOD": "GET",
        "QUERY_STRING": query,
        "REMOTE_ADDR": addr,
        "wsgi.input": io.BytesIO(b""),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body


def post(app, form):
    environ = {
        "REQUEST_METHOD": "POST",
        "QUERY_STRING": "",
        "REMOTE_ADDR": "1.2.3.4",
        "CONTENT_LENGTH": str(len(form)),
        "wsgi.input": io.BytesIO(form),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body


def test_get_identify(demo_handler):
    app = make_app(demo_handler)
    status, headers, body = get(app, "verb=Identify")
    assert status == 200
    assert headers["Content-Type"].startswith("text/xml")
    assert int(headers["Content-Length"]) == len(body)
    assert b"<repositoryName>arXiv</repositoryName>" in body


def test_post_equivalent_to_get(demo_handler):
    app = make_app(demo_handler)
    _, _, via_get = get(app, "verb=ListSets")
    _, _, via_post = post(app, b"verb=ListSets")
    assert via_get == via_post


def test_bad_request_is_400(demo_handler):
    app = make_app(demo_handler)
    status, headers, _ = get(app, "verb=Nope")
    assert status == 400
    assert headers["Content-Type"].startswith("text/html")


def test_throttling_and_retry_after(demo_handler):
    now = [0.0]
    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    status, _, _ = get(app, "verb=ListIdentifiers")
    assert status == 200
    now[0] = 4.0
    status, headers, _ = get(app, "verb=ListIdentifiers")
    assert status == 503
    assert headers["Retry-After"] == "6"  # ceil of remaining 6.0s
    # sleeping the advertised delay succeeds
    now[0] = 4.0 + 6.0
    status, _, _ = get(app, "verb=ListIdentifiers")
    assert status == 200


def test_rejected_request_does_not_extend_wait(demo_handler):
    now = [0.0]
    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    get(app, "verb=ListIdentifiers")
    for t in (2.0, 4.0, 6.0, 8.0):
        now[0] = t
        status, _, _ = get(app, "verb=ListIdentifiers")
        assert status == 503
    now[0] = 10.0
    status, _, _ = get(app, "verb=ListIdentifiers")
    assert status == 200


def test_clients_throttled_independently(demo_handler):
    now = [0.0]
    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    assert get(app, "verb=ListIdentifiers", addr="1.1.1.1")[0] == 200
    assert get(app, "verb=ListIdentifiers", addr="2.2.2.2")[0] == 200
    assert get(app, "verb=ListIdentifiers", addr="1.1.1.1")[0] == 503


def test_identify_cheaper_than_list(demo_handler):
    now = [0.0]
    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    assert get(app, "verb=Identify")[0] == 200
    now[0] = 0.5
    assert get(app, "verb=Identify")[0] == 503
    now[0] = 1.5
    assert get(app, "verb=Identify")[0] == 200


def test_shared_ledger_across_verb_classes(demo_handler):
    # one ledger entry per client: a fulfilled Identify delays a list verb
    # by the list interval measured from that Identify
    now = [0.0]
    app = make_app(
        demo_handler,
        policy=FlowPolicy(min_interval_list=10.0, min_interval_other=1.0),
        monotonic=lambda: now[0],
    )
    assert get(app, "verb=Identify")[0] == 200
    now[0] = 5.0
    status, headers, _ = get(app, "verb=ListIdentifiers")
    assert status == 503
    assert headers["Retry-After"] == "5"


def test_wsgi_transport_matches_direct_call(demo_handler):
    app = make_app(demo_handler)
    transport = WsgiTransport(app)
    resp = transport.request([("verb", "ListSets")])
    _, _, direct = get(app, "verb=ListSets", addr="127.0.0.1")
    assert resp.status == 200
    assert resp.body == direct


def test_post_body_not_utf8_is_400(demo_handler):
    app = make_app(demo_handler)
    status, headers, body = post(app, b"verb=Identify&set=\xff\xfe")
    assert status == 400
    assert headers["Content-Type"].startswith("text/html")
    assert b"not valid UTF-8" in body


class _RecordingInput(io.BytesIO):
    """A request body that records the size of every read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes: list[int] = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("length", ["-1", "-20", "abc", "100000000"])
def test_unusable_content_length_reads_nothing(demo_handler, length):
    """A negative length is no length: ``read(-1)`` on a socket would wait
    for EOF, holding a server thread and buffering an unbounded body. A
    length over ``MAX_BODY`` is refused before any read."""
    body = _RecordingInput(b"verb=Identify")
    environ = {
        "REQUEST_METHOD": "POST",
        "QUERY_STRING": "",
        "REMOTE_ADDR": "1.2.3.4",
        "CONTENT_LENGTH": length,
        "wsgi.input": body,
    }
    statuses = []
    b"".join(make_app(demo_handler)(environ, lambda status, headers: statuses.append(status)))
    assert body.sizes == []
    assert statuses == ["400 Bad Request"]  # no verb was read


def test_control_characters_never_make_a_broken_200(demo_handler):
    app = make_app(demo_handler)
    for code in range(32):
        c = quote(chr(code))
        queries = [
            f"verb=ListRecords&metadataPrefix=oai_dc{c}",
            f"verb=ListIdentifiers&set=cs{c}",
            f"verb=ListMetadataFormats&identifier=oai:arXiv:{c}",
            f"verb=GetRecord&identifier=oai:arXiv:cs.DL/0101027&metadataPrefix={c}",
            f"verb=Identify&{c}=1",
        ]
        for query in queries:
            status, _, body = get(app, query)
            if chr(code) in "\t\n\r":  # allowed in XML, echoed as they are
                assert status in (200, 400), (code, query)
            else:
                assert status == 400, (code, query)
            if status == 200:
                ET.fromstring(body)


def test_store_failure_is_503_with_retry_after(taxonomy, demo_dir, caplog):
    """A record whose abs file vanished or was corrupted after load is a
    503 with Retry-After, for GetRecord and for a ListRecords page holding
    it; the log names the file."""
    data_dir = demo_dir
    # a load writes no row for a file changed in its own tick of the clock
    time.sleep(0.02)
    Store(taxonomy, data_dir)  # writes the rows, so the next load parses nothing
    handler = ProtocolHandler(
        Store(taxonomy, data_dir), RepositoryConfig(page_size=7), clock=lambda: FIXED_CLOCK
    )
    app = make_app(handler)
    gone = data_dir / "cs" / "0101" / "cs.DL.0101027.abs"
    gone.unlink()
    corrupt = data_dir / "hep-th" / "9901" / "hep-th.9901001.abs"
    corrupt.write_text("not an abs file\n", encoding="utf-8")
    for query, path in (
        ("verb=GetRecord&identifier=oai:arXiv:cs.DL/0101027&metadataPrefix=oai_dc", gone),
        ("verb=GetRecord&identifier=oai:arXiv:hep-th/9901001&metadataPrefix=arXiv", corrupt),
        ("verb=ListRecords&metadataPrefix=oai_dc&from=1999-01-01", corrupt),
    ):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="eprint_oai.server"):
            status, headers, _ = get(app, query)
        assert status == 503, query
        assert int(headers["Retry-After"]) > 0
        assert str(path) in caplog.text
    # records whose files are whole still answer
    status, _, body = get(app, "verb=ListRecords&metadataPrefix=oai_dc&until=1998-12-31")
    assert status == 200 and b"math.DS/9204240" in body


def test_a_page_with_one_broken_record_is_all_503(taxonomy, tmp_path):
    """Every record of a page is read before its first byte is sent: a page
    whose 300th record's abs file vanished after load is a 503 with
    Retry-After, not 299 records and a broken connection."""
    for serial in range(1, 401):
        eid = EprintId("hep-th", 9901, serial)
        meta = make_meta(eid, date(1999, 1, 1) + timedelta(days=serial % 28))
        path = tmp_path / _rel_path(eid.local())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(format_abs(meta), encoding="utf-8")
    store = Store(taxonomy, tmp_path)  # parses every file, keeps none
    app = make_app(ProtocolHandler(store, RepositoryConfig(page_size=500)))
    page = store.scan()
    (tmp_path / _rel_path(page[299].identifier)).unlink()
    status, headers, body = get(app, "verb=ListRecords&metadataPrefix=oai_dc")
    assert status == 503
    assert int(headers["Retry-After"]) > 0
    assert body == b"The record store is unavailable; retry later.\n"


def test_the_log_line_is_written_once_the_body_is_sent(demo_handler, caplog):
    """Its duration_ms covers rendering and sending the page, not only
    reading its records."""
    app = make_app(demo_handler)
    environ = {
        "REQUEST_METHOD": "GET",
        "QUERY_STRING": "verb=ListRecords&metadataPrefix=oai_dc",
        "REMOTE_ADDR": "1.2.3.4",
    }
    with caplog.at_level(logging.INFO, logger="eprint_oai.server"):
        parts = app(environ, lambda status, headers: None)
        assert caplog.records == []
        assert b"</ListRecords>" in b"".join(parts)
    [record] = caplog.records
    assert record.getMessage().startswith(
        "client=1.2.3.4 verb=ListRecords status=200 duration_ms="
    )

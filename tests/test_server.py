from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from urllib.parse import quote

from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import WsgiTransport
from eprint_oai.server import make_app


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

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXED_CLOCK, make_meta, synth_corpus
from eprint_oai.absfile import AbsParseError, format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.crosswalk import DEFAULT_FORMATS
from eprint_oai.ids import EprintId, load_taxonomy, parse_datestamp
from eprint_oai.protocol import (
    MalformedRequest,
    ProtocolHandler,
    ResumptionToken,
    parse_request,
)
from eprint_oai.store import Store

NS = "{http://www.openarchives.org/OAI/1.0/OAI_%s}"


def call(handler, **args):
    return handler.handle(list(args.items()))


def body_root(resp):
    assert resp.http_status == 200, resp.body
    return ET.fromstring(resp.body)


# --- request grammar --------------------------------------------------------


def test_parse_minimal_verbs():
    for verb in ("Identify", "ListSets", "Document"):
        req = parse_request([("verb", verb)])
        assert req.verb == verb and req.arguments == {}


def test_missing_verb():
    with pytest.raises(MalformedRequest, match="verb"):
        parse_request([("from", "2000-01-01")])


def test_unknown_verb():
    with pytest.raises(MalformedRequest, match="unknown verb"):
        parse_request([("verb", "ListFriends")])


def test_repeated_argument():
    with pytest.raises(MalformedRequest, match="repeated"):
        parse_request([("verb", "Identify"), ("verb", "Identify")])


def test_illegal_argument_combo():
    with pytest.raises(MalformedRequest, match="illegal"):
        parse_request([("verb", "Identify"), ("from", "2000-01-01")])
    with pytest.raises(MalformedRequest, match="illegal"):
        parse_request([("verb", "GetRecord"), ("set", "cs"),
                       ("identifier", "x"), ("metadataPrefix", "oai_dc")])


def test_token_refused_on_listsets_and_formats():
    for verb in ("ListSets", "ListMetadataFormats"):
        with pytest.raises(MalformedRequest, match="resumptionToken"):
            parse_request([("verb", verb), ("resumptionToken", "x___")])


def test_token_exclusive():
    with pytest.raises(MalformedRequest, match="exclusive"):
        parse_request(
            [("verb", "ListRecords"), ("resumptionToken", "2000-01-01___dc"),
             ("metadataPrefix", "oai_dc")]
        )


def test_getrecord_requires_both_arguments():
    with pytest.raises(MalformedRequest, match="metadataPrefix"):
        parse_request([("verb", "GetRecord"), ("identifier", "x")])
    with pytest.raises(MalformedRequest, match="identifier"):
        parse_request([("verb", "GetRecord"), ("metadataPrefix", "oai_dc")])


def test_list_records_requires_metadata_prefix():
    with pytest.raises(MalformedRequest, match="ListRecords requires metadataPrefix"):
        parse_request([("verb", "ListRecords"), ("from", "2000-01-01")])
    req = parse_request([("verb", "ListRecords"), ("resumptionToken", "2000-01-01___")])
    assert req.arguments == {"resumptionToken": "2000-01-01___"}


# --- resumption tokens ------------------------------------------------------


def test_token_encodings():
    t1 = ResumptionToken(next_from=date(1992, 5, 1))
    assert t1.encode() == "1992-05-01___"
    t2 = ResumptionToken(next_from=date(1992, 5, 1), format_tag="dc")
    assert t2.encode() == "1992-05-01___dc"
    t3 = ResumptionToken(
        next_from=date(1992, 5, 1),
        until=date(1993, 1, 1),
        set_spec="math",
        format_tag="rfc1807",
    )
    assert t3.encode() == "1992-05-01_1993-01-01_math_rfc1807"


@given(
    st.dates(date(1991, 1, 1), date(2099, 12, 31)),
    st.one_of(st.none(), st.dates(date(1991, 1, 1), date(2099, 12, 31))),
    st.one_of(st.none(), st.sampled_from(["nlin", "math", "physics", "cs"])),
    st.one_of(st.none(), st.sampled_from(["dc", "rfc1807", "arXiv", "arXivOld"])),
)
def test_token_roundtrip(next_from, until, set_spec, tag):
    token = ResumptionToken(next_from, until, set_spec, tag)
    assert ResumptionToken.decode(token.encode()) == token


def test_bad_tokens_rejected():
    for bad in ("", "x", "1992-05-01__", "1992-5-1___", "not-a-date___dc"):
        with pytest.raises(MalformedRequest):
            ResumptionToken.decode(bad)


# --- verb behaviour on the demo corpus -------------------------------------


def test_identify(demo_handler):
    root = body_root(call(demo_handler, verb="Identify"))
    ns = NS % "Identify"
    assert root.findtext(f"{ns}repositoryName") == "arXiv"
    assert root.findtext(f"{ns}protocolVersion") == "1.0"


def test_list_sets_order(demo_handler):
    root = body_root(call(demo_handler, verb="ListSets"))
    ns = NS % "ListSets"
    specs = [s.findtext(f"{ns}setSpec") for s in root.findall(f"{ns}set")]
    assert specs == ["nlin", "math", "physics", "cs"]


def test_list_metadata_formats_order(demo_handler):
    root = body_root(call(demo_handler, verb="ListMetadataFormats"))
    ns = NS % "ListMetadataFormats"
    prefixes = [
        f.findtext(f"{ns}metadataPrefix")
        for f in root.findall(f"{ns}metadataFormat")
    ]
    assert prefixes == ["arXivOld", "arXiv", "oai_rfc1807", "oai_dc"]


def test_list_metadata_formats_unknown_item_empty(demo_handler):
    root = body_root(
        call(demo_handler, verb="ListMetadataFormats",
             identifier="oai:arXiv:hep-th/7001001")
    )
    ns = NS % "ListMetadataFormats"
    assert root.findall(f"{ns}metadataFormat") == []


def test_getrecord_outcome_normal(demo_handler):
    root = body_root(
        call(demo_handler, verb="GetRecord",
             identifier="oai:arXiv:cs.DL/0101027", metadataPrefix="oai_dc")
    )
    ns = NS % "GetRecord"
    record = root.find(f"{ns}record")
    assert record is not None and record.get("status") is None
    assert record.find(f"{ns}header") is not None
    assert record.find(f"{ns}metadata") is not None
    assert (
        record.findtext(f"{ns}header/{ns}datestamp") == "2001-01-25"
    )


def test_getrecord_outcome_unknown(demo_handler):
    root = body_root(
        call(demo_handler, verb="GetRecord",
             identifier="oai:arXiv:hep-th/7001001", metadataPrefix="oai_dc")
    )
    assert root.find(f"{NS % 'GetRecord'}record") is None


def test_getrecord_outcome_malformed_identifier_is_unknown(demo_handler):
    resp = call(demo_handler, verb="GetRecord",
                identifier="urn:isbn:12345", metadataPrefix="oai_dc")
    root = body_root(resp)
    assert root.find(f"{NS % 'GetRecord'}record") is None


def test_getrecord_outcome_deleted(demo_handler):
    root = body_root(
        call(demo_handler, verb="GetRecord",
             identifier="oai:arXiv:hep-lat/9201001", metadataPrefix="oai_dc")
    )
    ns = NS % "GetRecord"
    record = root.find(f"{ns}record")
    assert record.get("status") == "deleted"
    assert record.find(f"{ns}header") is not None
    assert record.find(f"{ns}metadata") is None


def test_getrecord_outcome_unsupported_format(demo_handler):
    root = body_root(
        call(demo_handler, verb="GetRecord",
             identifier="oai:arXiv:cs.DL/0101027", metadataPrefix="oai_marc")
    )
    ns = NS % "GetRecord"
    record = root.find(f"{ns}record")
    assert record is not None and record.get("status") is None
    assert record.find(f"{ns}header") is not None
    assert record.find(f"{ns}metadata") is None


def test_no_about_container_ever(demo_handler):
    root = body_root(
        call(demo_handler, verb="GetRecord",
             identifier="oai:arXiv:cs.DL/0101027", metadataPrefix="arXiv")
    )
    assert not [e for e in root.iter() if e.tag.endswith("about")]


def test_list_identifiers_first_page_and_token(demo_handler):
    root = body_root(call(demo_handler, verb="ListIdentifiers"))
    ns = NS % "ListIdentifiers"
    idents = [e.text for e in root.findall(f"{ns}identifier")]
    assert idents[0] == "oai:arXiv:math.DS/9204240"
    assert len(idents) == 7
    assert root.findtext(f"{ns}resumptionToken") == "1992-05-01___"


def test_list_records_first_page_and_token(demo_handler):
    root = body_root(
        call(demo_handler, verb="ListRecords", metadataPrefix="oai_dc")
    )
    ns = NS % "ListRecords"
    records = root.findall(f"{ns}record")
    assert len(records) == 7
    assert root.findtext(f"{ns}resumptionToken") == "1992-05-01___dc"
    first = records[0]
    assert (
        first.findtext(f"{ns}header/{ns}identifier")
        == "oai:arXiv:math.DS/9204240"
    )
    assert first.findtext(f"{ns}header/{ns}datestamp") == "1992-04-01"


def test_token_resume_completes_without_gaps(demo_handler):
    ns = NS % "ListIdentifiers"
    collected = []
    resp = call(demo_handler, verb="ListIdentifiers")
    while True:
        root = body_root(resp)
        collected += [e.text for e in root.findall(f"{ns}identifier")]
        token = root.findtext(f"{ns}resumptionToken")
        if token is None:
            break
        resp = call(demo_handler, verb="ListIdentifiers", resumptionToken=token)
    full = [
        f"oai:arXiv:{e.identifier}" for e in demo_handler.store.scan()
    ]
    assert collected == full


def test_list_records_deleted_record_in_window(demo_handler):
    root = body_root(
        call(demo_handler, verb="ListRecords", metadataPrefix="oai_dc",
             **{"from": "1992-04-22", "until": "1992-04-22"})
    )
    ns = NS % "ListRecords"
    (record,) = root.findall(f"{ns}record")
    assert record.get("status") == "deleted"


def test_list_window_set_filter(demo_handler):
    root = body_root(
        call(demo_handler, verb="ListIdentifiers", set="cs")
    )
    ns = NS % "ListIdentifiers"
    assert [e.text for e in root.findall(f"{ns}identifier")] == [
        "oai:arXiv:cs.DL/0101027"
    ]


def test_unknown_set_is_400(demo_handler):
    resp = call(demo_handler, verb="ListIdentifiers", set="biology")
    assert resp.http_status == 400


def test_bad_range_is_400(demo_handler):
    resp = call(demo_handler, verb="ListIdentifiers",
                **{"from": "1999-01-01", "until": "1992-01-01"})
    assert resp.http_status == 400


def test_list_records_unsupported_prefix_is_legal(demo_handler):
    root = body_root(
        call(demo_handler, verb="ListRecords", metadataPrefix="oai_marc")
    )
    ns = NS % "ListRecords"
    records = root.findall(f"{ns}record")
    assert records
    for record in records:
        if record.get("status") != "deleted":
            assert record.find(f"{ns}metadata") is None


def harvest(handler, verb, **args):
    """Follow every token from a first request; the pages' roots."""
    roots = [body_root(call(handler, verb=verb, **args))]
    while (token := roots[-1].findtext(f"{NS % verb}resumptionToken")) is not None:
        roots.append(body_root(call(handler, verb=verb, resumptionToken=token)))
    return roots


def test_token_tags_resume_every_format(demo_handler):
    """Each format's token names it by its prefix without ``oai_``, and
    resuming that token renders every later page in the same format."""
    ns = NS % "ListRecords"
    full = [f"oai:arXiv:{e.identifier}" for e in demo_handler.store.scan()]
    tags = {"oai_dc": "dc", "oai_rfc1807": "rfc1807", "arXiv": "arXiv",
            "arXivOld": "arXivOld"}
    assert set(tags) == {f.prefix for f in DEFAULT_FORMATS}
    for prefix, tag in tags.items():
        roots = harvest(demo_handler, "ListRecords", metadataPrefix=prefix)
        assert len(roots) > 1
        assert roots[0].findtext(f"{ns}resumptionToken") == f"1992-05-01___{tag}"
        records = [r for root in roots for r in root.findall(f"{ns}record")]
        assert [r.findtext(f"{ns}header/{ns}identifier") for r in records] == full
        for record in records:
            if record.get("status") != "deleted":
                (payload,) = record.find(f"{ns}metadata")
                assert payload.tag.endswith("}" + prefix)
    resp = call(demo_handler, verb="ListRecords", resumptionToken="1992-05-01___nope")
    assert resp.http_status == 400


def test_unsupported_prefix_harvest_resumes_header_only(demo_handler):
    ns = NS % "ListRecords"
    roots = harvest(demo_handler, "ListRecords", metadataPrefix="oai_marc")
    assert len(roots) > 1
    assert roots[0].findtext(f"{ns}resumptionToken") == "1992-05-01___"
    records = [r for root in roots for r in root.findall(f"{ns}record")]
    assert [r.findtext(f"{ns}header/{ns}identifier") for r in records] == [
        f"oai:arXiv:{e.identifier}" for e in demo_handler.store.scan()
    ]
    assert all(r.find(f"{ns}header") is not None for r in records)
    assert all(r.find(f"{ns}metadata") is None for r in records)


@pytest.mark.parametrize(
    "identifier",
    ["oai:arXiv:cs.DL/0101027\n", "oai:arXiv:cs.DL/\u0660\u0661\u0660\u0661027"],
)
def test_getrecord_identifier_grammar_is_ascii_and_whole(demo_handler, identifier):
    root = body_root(call(demo_handler, verb="GetRecord", identifier=identifier,
                          metadataPrefix="oai_dc"))
    assert root.find(f"{NS % 'GetRecord'}record") is None


def test_non_ascii_digits_in_datestamps_are_400(demo_handler):
    arabic = "\u0661\u0669\u0669\u0662-\u0660\u0665-\u0660\u0661"  # 1992-05-01
    for args in ({"from": arabic}, {"until": arabic},
                 {"resumptionToken": arabic + "___"}):
        resp = call(demo_handler, verb="ListIdentifiers", **args)
        assert resp.http_status == 400, args


def test_characters_xml_forbids_in_abs_fields_never_break_a_body(taxonomy):
    """Every C0 control and U+FFFE in each free-text abs field, in every
    format: each body parses, and in arXivOld, which echoes every field, a
    character that is not a line break shows as U+FFFD. A header field
    cannot hold a line break at all."""
    eid = EprintId("cs", 101, 27, subject_class="DL")
    for char in [chr(code) for code in range(32)] + ["\ufffe"]:
        line_break = len(f"a{char}b".splitlines()) > 1
        for name in ("title", "authors_raw", "comments", "abstract"):
            text = f"Odd{char}text (Inst{char}X) and B{char} Author"
            meta = make_meta(eid, date(2001, 1, 3), **{name: text})
            store = Store(taxonomy)
            try:
                store.ingest(format_abs(meta), FIXED_CLOCK)
            except AbsParseError:
                assert line_break and name != "abstract", (hex(ord(char)), name)
                continue
            handler = ProtocolHandler(store, clock=lambda: FIXED_CLOCK)
            for fmt in DEFAULT_FORMATS:
                resp = call(handler, verb="GetRecord", metadataPrefix=fmt.prefix,
                            identifier="oai:arXiv:cs.DL/0101027")
                body_root(resp)
                if fmt.prefix == "arXivOld" and char != "\t" and not line_break:
                    assert "\ufffd".encode() in resp.body, (hex(ord(char)), name)


def test_document_is_400_html(demo_handler):
    resp = call(demo_handler, verb="Document")
    assert resp.http_status == 400
    assert resp.content_type.startswith("text/html")
    assert b"<html>" in resp.body
    assert demo_handler.config.base_url.encode() in resp.body


def test_error_page_is_html(demo_handler):
    resp = call(demo_handler, verb="ListFriends")
    assert resp.http_status == 400
    assert resp.content_type.startswith("text/html")


def test_request_url_echoed_with_escaped_ampersand(demo_handler):
    resp = call(demo_handler, verb="ListRecords", metadataPrefix="oai_dc")
    assert (
        b"<requestURL>http://arXiv.org/oai1?verb=ListRecords"
        b"&amp;metadataPrefix=oai_dc</requestURL>" in resp.body
    )


def test_response_date_from_clock(demo_handler):
    resp = call(demo_handler, verb="Identify")
    assert FIXED_CLOCK.isoformat(timespec="seconds").encode() in resp.body


# --- pagination properties --------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 10, 50]))
def test_pagination_sound_and_complete(seed, page_size):
    """Following tokens from an argument-driven first request yields exactly
    the full scan, in order, with no duplicates and no omissions."""
    rng = random.Random(seed)
    store = Store(load_taxonomy())
    synth_corpus(store, 80, rng, span_days=200)
    handler = ProtocolHandler(
        store, RepositoryConfig(page_size=page_size), clock=lambda: FIXED_CLOCK
    )
    ns = NS % "ListIdentifiers"
    collected = []
    pages = 0
    resp = call(handler, verb="ListIdentifiers")
    while True:
        pages += 1
        assert pages < 500
        root = body_root(resp)
        collected += [e.text for e in root.findall(f"{ns}identifier")]
        token = root.findtext(f"{ns}resumptionToken")
        if token is None:
            break
        # tokens resume on a datestamp boundary, never splitting a day
        next_from = parse_datestamp(token.split("_")[0])
        assert collected, "token on an empty page"
        resp = call(handler, verb="ListIdentifiers", resumptionToken=token)
    full = [f"oai:arXiv:{e.identifier}" for e in store.scan()]
    assert collected == full

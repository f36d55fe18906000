from __future__ import annotations

import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import FIXED_CLOCK, make_meta, synth_corpus
from eprint_oai.absfile import AbsParseError, format_abs
from eprint_oai.config import (
    EprintsDescription,
    PolicyText,
    RepositoryConfig,
    repository_config,
)
from eprint_oai.crosswalk import DEFAULT_FORMATS
from eprint_oai.ids import EprintId, load_taxonomy, parse_datestamp
from eprint_oai.protocol import (
    PART_CHARS,
    MalformedRequest,
    ProtocolHandler,
    ResumptionToken,
    parse_request,
)
from eprint_oai.store import DATESTAMP_TABLE, DELETED_TABLE, Store

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


def test_token_with_a_cursor():
    token = ResumptionToken(date(1992, 5, 1), None, "cs", "dc", "cs.DL/0101027")
    assert token.encode() == "1992-05-01__cs_dc_cs.DL/0101027"
    assert ResumptionToken.decode(token.encode()) == token


@pytest.mark.parametrize("cursor", [
    "", "x", "cs.DL/0101027v1", "cs.DL/0101027 ", "cs.DL/0101027_cs.DL/0101028",
])
def test_a_fifth_field_that_is_not_a_canonical_id_is_400(demo_handler, cursor):
    resp = call(
        demo_handler, verb="ListIdentifiers", resumptionToken=f"1992-05-01____{cursor}"
    )
    assert resp.http_status == 400
    ok = call(
        demo_handler, verb="ListIdentifiers", resumptionToken="1992-05-01____cs.DL/0101027"
    )
    assert ok.http_status == 200


# --- verb behaviour on the demo corpus -------------------------------------


def test_identify(demo_handler):
    root = body_root(call(demo_handler, verb="Identify"))
    ns = NS % "Identify"
    assert root.findtext(f"{ns}repositoryName") == "arXiv"
    assert root.findtext(f"{ns}protocolVersion") == "1.0"


@pytest.mark.parametrize(
    "identity",
    [{}, {"repository_identifier": "demo", "eprints": None,
          "sample_identifier": "oai:demo:cs.DL/0101027"}],
    ids=["default", "renamed"],
)
def test_identify_advertises_the_identifiers_it_serves(demo_store, identity):
    """scheme, repositoryIdentifier and delimiter put together are the
    prefix of every identifier the repository lists, and its sample
    identifier is one it answers to."""
    handler = ProtocolHandler(
        demo_store, repository_config(identity), clock=lambda: FIXED_CLOCK
    )
    root = body_root(call(handler, verb="Identify"))
    oai = "{http://www.openarchives.org/OAI/oai-identifier}"
    scheme, repo, delimiter, sample = (
        root.findtext(f".//{oai}{tag}")
        for tag in ("scheme", "repositoryIdentifier", "delimiter", "sampleIdentifier")
    )
    prefix = f"{scheme}{delimiter}{repo}{delimiter}"
    listed = body_root(call(handler, verb="ListIdentifiers"))
    idents = [e.text for e in listed.findall(f"{NS % 'ListIdentifiers'}identifier")]
    assert idents and all(i.startswith(prefix) for i in idents)
    assert sample.startswith(prefix)
    described = {d[0].tag for d in root.findall(f"{NS % 'Identify'}description")}
    assert ("{http://www.openarchives.org/OAI/eprints}eprints" in described) == (
        "eprints" not in identity
    )
    if "sample_identifier" in identity:
        got = body_root(
            call(handler, verb="GetRecord", identifier=sample, metadataPrefix="oai_dc")
        )
        assert got.findtext(f".//{NS % 'GetRecord'}identifier") == sample


def test_repository_config_refuses_a_sample_it_would_not_answer_to():
    for sample in ("oai:other:hep-th/9901001", "foo:arXiv:hep-th/9901001",
                   "oai:arXiv:hep-th/9901001v2", "oai/arXiv/hep-th/9901001"):
        with pytest.raises(ValueError, match="sample_identifier"):
            RepositoryConfig(sample_identifier=sample)


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


# every character XML forbids that a str can hold, and every line boundary
# str.splitlines() recognises
ODD_CHARS = [
    *map(chr, range(32)), "\x85", "\u2028", "\u2029", "\ufffe", "\uffff", "\udc80"
]


@pytest.mark.parametrize("char", ODD_CHARS, ids=lambda c: f"U+{ord(c):04X}")
def test_characters_xml_forbids_in_config_and_taxonomy_never_break_a_body(
    taxonomy, char
):
    """The character in every name and text of the repository's
    configuration and in a taxonomy group name and in display names: every
    200 body parses, and the repository name reads back with the character
    written as U+FFFD, or, for a line break, as a newline and the margin.
    (Identifiers are refused instead; see the test after this one.)"""
    odd = f"a{char}b"
    policy = PolicyText(odd, f"http://x/{odd}")
    config = RepositoryConfig(
        repository_name=odd,
        base_url=f"http://x/oai{char}",
        admin_email=odd,
        eprints=EprintsDescription(odd, policy, policy, policy),
        abs_url_prefix=f"http://x/abs{char}/",
        page_size=2,
    )
    taxonomy = replace(
        taxonomy,
        groups=(*taxonomy.groups, ("odd", odd)),
        archive_display={**taxonomy.archive_display, "cs": odd},
        subject_display={**taxonomy.subject_display, "cs.DL": odd},
    )
    store = Store(taxonomy)
    for n in (1, 2, 3):
        meta = make_meta(EprintId("cs", 101, n, subject_class="DL"), date(2001, 1, n))
        store.ingest(format_abs(meta), FIXED_CLOCK)
    handler = ProtocolHandler(store, config, clock=lambda: FIXED_CLOCK)
    requests = [
        {"verb": "Identify"},
        {"verb": "ListSets"},
        {"verb": "ListMetadataFormats"},
        {"verb": "ListIdentifiers"},
        *({"verb": "ListRecords", "metadataPrefix": f.prefix} for f in DEFAULT_FORMATS),
        *({"verb": "GetRecord", "metadataPrefix": f.prefix,
           "identifier": "oai:arXiv:cs.DL/0101002"} for f in DEFAULT_FORMATS),
    ]
    for args in requests:
        body_root(call(handler, **args))
    name = body_root(call(handler, verb="Identify")).find(
        f"{NS % 'Identify'}repositoryName"
    ).text
    forbidden = char not in "\t\n\r\x85\u2028\u2029"
    if len(odd.splitlines()) > 1:
        assert name == "a\n    b"
    else:
        assert name == ("a\ufffdb" if forbidden else odd)
    # the HTML page of a refused request holds no character XML forbids
    page = call(handler, verb="Identify", x=odd).body.decode()
    assert (char in page) != forbidden, page


@pytest.mark.parametrize(
    "text", [*(f"a{char}b" for char in ODD_CHARS), "", "a:b", "a b", "a/b", "é"],
    ids=repr,
)
def test_identifiers_that_would_not_come_back_unchanged_are_refused(taxonomy, text):
    """A repository identifier or group token is written into responses as
    it is and must come back in a harvester's arguments, so one holding a
    character outside A-Z a-z 0-9 - _ . ! ~ * ' ( ) is refused when it
    loads."""
    with pytest.raises(ValueError, match="repository_identifier"):
        RepositoryConfig(repository_identifier=text,
                         sample_identifier=f"oai:{text}:hep-th/9901001")
    with pytest.raises(ValueError, match="group token"):
        replace(taxonomy, groups=(*taxonomy.groups, (text, "Odd")))


# the characters a set token may hold, and characters it may not: controls,
# the oai delimiter, the token separator, white space, URL delimiters and
# non-ASCII, each drawn often
_TOKEN_CHARS = st.one_of(
    st.sampled_from("aZ09-.!~*'()"),
    st.sampled_from(":_ \t\n\r\x00\x07\x1f\x85\u2028\ufffe/?&=%#<\"é€"),
    st.characters(),
)
# OAI-PMH 2.0's setSpec characters (RFC 2396's unreserved) without "_"
_SET_TOKEN_RE = re.compile(r"[A-Za-z0-9\-.!~*'()]+")


@settings(max_examples=150, deadline=None)
@given(st.text(_TOKEN_CHARS, max_size=6))
def test_a_group_token_is_refused_or_round_trips(taxonomy, token):
    """A taxonomy whose math group has this token either is refused, just
    when the token holds a character outside the setSpec class or "_", or
    round-trips: ListSets advertises it, the setSpec read back through
    expat equals it, ListIdentifiers for the read-back set answers 200 with
    the set's records, and at one record a page each resumptionToken
    resumes with a 200."""
    assume(token not in {t for t, _ in taxonomy.groups if t != "math"})
    try:
        odd = replace(
            taxonomy,
            groups=tuple((token if t == "math" else t, n) for t, n in taxonomy.groups),
            archive_group={a: token if g == "math" else g
                           for a, g in taxonomy.archive_group.items()},
        )
    except ValueError:
        assert not _SET_TOKEN_RE.fullmatch(token)
        return
    assert _SET_TOKEN_RE.fullmatch(token)
    store = Store(odd)
    records = [  # (id, cross-lists, whether it is in the set)
        (EprintId("math", 101, 1, subject_class="AG"), [], True),
        (EprintId("cs", 101, 2, subject_class="DL"), [], False),
        (EprintId("hep-th", 101, 3), ["math.SG"], True),
        (EprintId("alg-geom", 101, 4), [], True),
    ]
    for day, (eid, crosslists, _) in enumerate(records, start=1):
        meta = make_meta(eid, date(2001, 1, day), crosslists)
        store.ingest(format_abs(meta), FIXED_CLOCK.replace(day=day))
    handler = ProtocolHandler(store, RepositoryConfig(page_size=1),
                              clock=lambda: FIXED_CLOCK)
    ns = NS % "ListSets"
    advertised = {
        s.findtext(f"{ns}setName"): s.findtext(f"{ns}setSpec")
        for s in body_root(call(handler, verb="ListSets")).findall(f"{ns}set")
    }
    spec = advertised["Mathematics"]
    assert spec == token
    ns = NS % "ListIdentifiers"
    got, args = [], {"verb": "ListIdentifiers", "set": spec}
    while True:
        root = body_root(call(handler, **args))
        got += [e.text for e in root.findall(f"{ns}identifier")]
        resume = root.findtext(f"{ns}resumptionToken")
        if resume is None:
            break
        args = {"verb": "ListIdentifiers", "resumptionToken": resume}
    assert got == [f"oai:arXiv:{eid.local()}" for eid, _, inside in records if inside]


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
        next_from = parse_datestamp(token.split("_")[0])
        assert collected, "token on an empty page"
        resp = call(handler, verb="ListIdentifiers", resumptionToken=token)
    full = [f"oai:arXiv:{e.identifier}" for e in store.scan()]
    assert collected == full


# a store on disk whose day 1995-03-01 holds 200 records, more than three
# pages of the largest page_size drawn below, beside 12 smaller days
CURSOR_DAYS = [date(1995, 3, 1)] * 200 + [date(1995, 3, 2 + i % 12) for i in range(160)]
_CURSOR_ARCHIVES = [("hep-th", None), ("math", "DS"), ("cs", "DL"), ("nlin", "CD")]


@pytest.fixture(scope="module")
def cursor_stores(tmp_path_factory):
    """The same on-disk store loaded twice: tokens of the first must
    resume the same on the second."""
    data_dir = tmp_path_factory.mktemp("cursor-store")
    rng = random.Random(23)
    stamps, deleted = [], []
    for i, day in enumerate(CURSOR_DAYS):
        archive, sc = _CURSOR_ARCHIVES[rng.randrange(len(_CURSOR_ARCHIVES))]
        eid = EprintId(archive, 9501 + i // 90, i % 90 + 1, subject_class=sc)
        crosslists = ["math.LO"] if rng.random() < 0.2 else []
        head = archive if sc is None else f"{archive}.{sc}"
        month = data_dir / archive / f"{eid.yymm:04d}"
        month.mkdir(parents=True, exist_ok=True)
        (month / f"{head}.{eid.yymm:04d}{eid.number:03d}.abs").write_text(
            format_abs(make_meta(eid, day, crosslists)), encoding="utf-8"
        )
        stamps.append(f"{eid.local()}\t{day}\n")
        if i % 37 == 5:
            deleted.append(f"{eid.local()}\t{day + timedelta(days=20)}\tgone\n")
    (data_dir / DATESTAMP_TABLE).write_text("".join(stamps), encoding="utf-8")
    (data_dir / DELETED_TABLE).write_text("".join(deleted), encoding="utf-8")
    taxonomy = load_taxonomy()
    stores = Store(taxonomy, data_dir), Store(taxonomy, data_dir)
    yield stores
    for store in stores:
        store.close()


def _follow(handler, params):
    """Every page of a ListIdentifiers harvest: (identifiers, token) each,
    the last token None."""
    ns = NS % "ListIdentifiers"
    pages = []
    resp = handler.handle(params)
    while True:
        assert len(pages) < 1000
        root = body_root(resp)
        token = root.findtext(f"{ns}resumptionToken")
        pages.append(([e.text for e in root.findall(f"{ns}identifier")], token))
        if token is None:
            return pages
        resp = call(handler, verb="ListIdentifiers", resumptionToken=token)


@settings(max_examples=30, deadline=None)
@given(
    page_size=st.sampled_from([1, 3, 7, 50]),
    set_spec=st.one_of(st.none(), st.sampled_from(["math", "cs", "physics", "nlin"])),
    from_=st.one_of(st.none(), st.dates(date(1995, 2, 25), date(1995, 3, 20))),
    until=st.one_of(st.none(), st.dates(date(1995, 2, 25), date(1995, 3, 30))),
)
def test_cursor_pages_are_bounded_and_complete(
    cursor_stores, page_size, set_spec, from_, until
):
    """No page holds more than ``page_size`` records, and the pages together
    are the store's window. A page whose next record starts a new day ends
    with a four-field token from that day; any other adds the page's last
    identifier. Each token resumes the same on the store loaded again from
    disk, and the four-field token of a cursor's day resumes that whole
    day, as tokens without a cursor always did."""
    assume(from_ is None or until is None or from_ <= until)
    store, reloaded = cursor_stores
    config = RepositoryConfig(page_size=page_size)
    handler = ProtocolHandler(store, config, clock=lambda: FIXED_CLOCK)
    again = ProtocolHandler(reloaded, config, clock=lambda: FIXED_CLOCK)
    params = [("verb", "ListIdentifiers")]
    for name, value in (("from", from_), ("until", until), ("set", set_spec)):
        if value is not None:
            params.append((name, str(value)))
    window = store.scan(from_, until, set_spec)
    assert window == reloaded.scan(from_, until, set_spec)
    pages = _follow(handler, params)
    assert [i for ids, _ in pages for i in ids] == [
        f"oai:arXiv:{e.identifier}" for e in window
    ]
    returned = 0
    day_resumed = False
    for ids, token in pages:
        assert 0 < len(ids) <= page_size or (not window and not ids)
        returned += len(ids)
        if token is None:
            continue
        last, following = window[returned - 1], window[returned]
        fields = token.split("_")
        if following.datestamp > last.datestamp:
            assert fields == ResumptionToken(
                following.datestamp, until, set_spec
            ).encode().split("_")
        else:
            assert fields[:4] == ResumptionToken(
                last.datestamp, until, set_spec
            ).encode().split("_")
            assert fields[4] == last.identifier
            if not day_resumed:  # one such harvest an example is enough
                day_resumed = True
                day_token = "_".join(fields[:4])
                assert [i for ids, _ in _follow(handler, [
                    ("verb", "ListIdentifiers"), ("resumptionToken", day_token)
                ]) for i in ids] == [
                    f"oai:arXiv:{e.identifier}"
                    for e in window if e.datestamp >= last.datestamp
                ]
        resumed = [("verb", "ListIdentifiers"), ("resumptionToken", token)]
        assert again.handle(resumed).body == handler.handle(resumed).body


# --- response assembly --------------------------------------------------------


@pytest.mark.parametrize("prefix", ["oai_dc", "arXiv"])
def test_page_render_peak_is_bounded_by_its_size(taxonomy, prefix):
    """A ListRecords page is rendered one part at a time as its parts are
    iterated: sending a warm page, each part dropped once sent, holds a few
    parts at a time, the same at page_size 500 and 2000, never the page."""
    store = Store(taxonomy)
    synth_corpus(store, 2100, random.Random(5))
    params = [("verb", "ListRecords"), ("metadataPrefix", prefix)]
    for page_size in (500, 2000):
        handler = ProtocolHandler(
            store, RepositoryConfig(page_size=page_size), clock=lambda: FIXED_CLOCK
        )
        handler.handle(params).body  # the page's records are parsed on first use
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sent, tail = 0, b""
            for part in handler.handle(params).parts:
                sent += len(part)
                tail = part
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert b"<resumptionToken>" in tail
        assert peak <= 6 * PART_CHARS, (page_size, peak, sent, peak / PART_CHARS)

from __future__ import annotations

import json
import os
import stat
import tempfile
import time
import xml.etree.ElementTree as ET
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_meta
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import (
    HarvestedRecord,
    HarvestJob,
    HarvestState,
    HarvestStore,
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
from test_store import Crash, crash_on_write


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
    assert report.completed and report.pages == 2
    expected = [f"oai:arXiv:{e.identifier}" for e in demo_store.scan()]
    assert [r.identifier for r in records] == expected


def test_list_records_end_to_end(transport, demo_store):
    records, report = run(
        HarvestJob("ListRecords", metadata_prefix="oai_dc"), transport
    )
    assert report.completed
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
    assert report.completed
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
        run(HarvestJob("ListIdentifiers", max_retries=1), Busy(), sleep=time.sleep)


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
    assert report.completed and report.retries_503 == 1
    assert naps == [0.0]


def test_bad_retry_after_is_protocol_error():
    class Garbled:
        def request(self, params):
            return TransportResponse(503, {"Retry-After": "soon"}, b"busy")

    with pytest.raises(ProtocolError):
        run(HarvestJob("ListIdentifiers"), Garbled(), sleep=lambda s: None)


def test_retry_budget_exhausted_attaches_partial():
    class Always503:
        def request(self, params):
            return TransportResponse(503, {"Retry-After": "1"}, b"busy")

    with pytest.raises(TransportFailure) as info:
        run(HarvestJob("ListIdentifiers", max_retries=2), Always503(),
            sleep=lambda s: None)
    assert info.value.partial_records == []


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
    assert len(store) == len(records)
    store.compact()
    reloaded = HarvestStore(tmp_path / "h")
    assert reloaded.latest() == store.latest()


def test_harvest_state_never_moves_backward(tmp_path):
    path = tmp_path / "state.json"
    state = HarvestState(path)
    key = HarvestState.key("http://x/oai1", None, "oai_dc")
    assert state.last_completed(key) is None
    state.advance(key, date(2001, 1, 20))
    state.advance(key, date(2001, 1, 10))
    assert state.last_completed(key) == date(2001, 1, 20)
    assert HarvestState(path).last_completed(key) == date(2001, 1, 20)


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


def test_incremental_failure_leaves_state_untouched(taxonomy):
    state = HarvestState()
    key = "k"
    state.advance(key, date(2001, 1, 1))

    class Fails:
        def request(self, params):
            raise TransportFailure("down")

    with pytest.raises(TransportFailure):
        incremental(
            state, key, HarvestJob("ListIdentifiers", max_retries=0),
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
    _, report = run(HarvestJob("ListIdentifiers"), FailsThenServes(), sleep=naps.append)
    assert report.completed
    assert naps == [1, 2, 4]


def test_transport_backoff_is_capped():
    class Down:
        def request(self, params):
            raise TransportFailure("down")

    naps: list[float] = []
    with pytest.raises(TransportFailure):
        run(HarvestJob("ListIdentifiers", max_retries=8), Down(), sleep=naps.append)
    assert naps == [1, 2, 4, 8, 16, 32, 60, 60]


# --- local persistence -------------------------------------------------------


class ReferenceHarvestStore:
    """The dict-based store that ``HarvestStore`` replaced, kept as the
    reference its files and entries must equal."""

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
        return dict(self._latest)

    def __len__(self):
        return len(self._latest)


# quotes, backslashes, control characters, non-ASCII, astral characters and
# lone surrogates, which JSON escapes in every way it can
_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "/", "\n", "\x00", "\x7f", "é", "\u2028", "\U0001d49c"]),
        st.characters(exclude_categories=()),
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
        st.tuples(st.sampled_from(["compact", "reload"]), st.none()),
    ),
    max_size=12,
)


def _files(directory: Path) -> dict[str, bytes]:
    return {
        name: (directory / name).read_bytes()
        for name in ("journal.jsonl", "latest.json")
        if (directory / name).exists()
    }


@settings(max_examples=60, deadline=None)
@given(_STORE_OPS)
def test_harvest_store_matches_reference(ops):
    """Over random upsert, compact and reload sequences, the text-keeping
    store writes the same bytes and returns the same entries, in the same
    order, as the dict-based reference."""
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
                ours, ref = HarvestStore(ours_dir), ReferenceHarvestStore(ref_dir)
            assert _files(ours_dir) == _files(ref_dir)
            assert len(ours) == len(ref)
            latest = ours.latest()
            assert latest == ref.latest()
            assert list(latest) == list(ref.latest())


def _harvested(n: int) -> list[HarvestedRecord]:
    return [
        HarvestedRecord(f"oai:arXiv:hep-th/99010{i:02d}", date(1999, 1, i + 1),
                        metadata=f"<dc>r\u00e9sum\u00e9 {i}</dc>")
        for i in range(n)
    ]


def _crash_mid_upsert(store: HarvestStore, records, monkeypatch) -> None:
    """The process dies in an upsert after the first record's line and part
    of the second."""
    first = len(json.dumps(ReferenceHarvestStore._encode(records[0]))) + 1
    with monkeypatch.context() as m:
        crash_on_write(m, "journal.jsonl", budget=first + 20)
        with pytest.raises(Crash):
            store.upsert(records)


def _journal_lines_whole(directory: Path) -> bool:
    lines = (directory / "journal.jsonl").read_bytes().split(b"\n")
    return lines[-1] == b"" and all(json.loads(line) for line in lines[:-1])


def test_torn_journal_line_is_ignored_and_cut(tmp_path, monkeypatch):
    """A harvester killed mid-upsert leaves a partial last line; the next
    load ignores it and the next upsert cuts it off."""
    records = _harvested(6)
    HarvestStore(tmp_path).upsert(records[:3])
    _crash_mid_upsert(HarvestStore(tmp_path), records[3:5], monkeypatch)
    assert not (tmp_path / "journal.jsonl").read_bytes().endswith(b"\n")
    reloaded = HarvestStore(tmp_path)
    assert list(reloaded.latest()) == [r.identifier for r in records[:4]]
    reloaded.upsert(records[5:])
    assert _journal_lines_whole(tmp_path)
    assert HarvestStore(tmp_path).latest() == reloaded.latest()
    assert len(reloaded) == 5


def test_malformed_journal_line_before_the_last_raises(tmp_path):
    store = HarvestStore(tmp_path)
    store.upsert(_harvested(1))
    journal = tmp_path / "journal.jsonl"
    journal.write_bytes(b"{not json\n" + journal.read_bytes())
    with pytest.raises(json.JSONDecodeError):
        HarvestStore(tmp_path)


def test_failed_upsert_is_cut_by_the_next(tmp_path, monkeypatch):
    """A process that survives a failed upsert changes no entry, and does
    not extend the partial line with its next upsert."""
    records = _harvested(6)
    store = HarvestStore(tmp_path)
    store.upsert(records[:3])
    before = store.latest()
    _crash_mid_upsert(store, records[3:5], monkeypatch)
    assert store.latest() == before
    store.upsert(records[5:])
    assert _journal_lines_whole(tmp_path)
    assert HarvestStore(tmp_path).latest() == store.latest()
    assert len(store) == 4


def _record_durability(monkeypatch, watched: Path) -> list[tuple[str, int]]:
    """Log each fsync of a file or directory and each rename, with the size
    ``watched`` had at that moment."""
    events: list[tuple[str, int]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def size() -> int:
        return watched.stat().st_size if watched.exists() else -1

    def fsync(fd):
        kind = "fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file"
        events.append((kind, size()))
        real_fsync(fd)

    def replace(src, dst, **kwargs):
        events.append(("rename", size()))
        real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def test_compact_is_durable_before_the_journal_goes(tmp_path, monkeypatch):
    store = HarvestStore(tmp_path)
    store.upsert(_harvested(3))
    journal = tmp_path / "journal.jsonl"
    size = journal.stat().st_size
    events = _record_durability(monkeypatch, journal)
    store.compact()
    assert events == [("fsync file", size), ("rename", size), ("fsync dir", size)]
    assert journal.read_bytes() == b""
    assert HarvestStore(tmp_path).latest() == store.latest()


def test_harvest_state_advance_is_durable(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    state = HarvestState(path)
    events = _record_durability(monkeypatch, path)
    state.advance("k", date(2001, 1, 20))
    assert [kind for kind, _ in events] == ["fsync file", "rename", "fsync dir"]
    assert HarvestState(path).last_completed("k") == date(2001, 1, 20)

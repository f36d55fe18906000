from __future__ import annotations

from datetime import date, datetime, timezone

import pytest

from conftest import make_meta
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import (
    HarvestJob,
    HarvestState,
    HarvestStore,
    ProtocolError,
    TransportFailure,
    TransportResponse,
    WsgiTransport,
    _retry_after_seconds,
    incremental,
    run,
)
from eprint_oai.ids import EprintId
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

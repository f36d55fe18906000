"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass or fail line in the terminal summary so the
overall gate can be read at a glance. Criteria with a time budget measure
wall-clock time and fail when the budget is exceeded.
"""

from __future__ import annotations

import random
import re
import time
import xml.etree.ElementTree as ET
from datetime import date, datetime, timedelta

import pytest

import conftest
from conftest import FIXED_CLOCK, GOLDEN, make_meta, synth_corpus
from eprint_oai.absfile import format_abs
from eprint_oai.authors import parse_authors
from eprint_oai.config import RepositoryConfig
from eprint_oai.crosswalk import detect_language
from eprint_oai.flowcontrol import FlowPolicy
from eprint_oai.harvester import (
    HarvestJob,
    HarvestState,
    WsgiTransport,
    incremental,
    run,
)
from eprint_oai.ids import EprintId
from eprint_oai.protocol import ProtocolHandler
from eprint_oai.server import make_app
from eprint_oai.store import Store
from eprint_oai.texmap import tex_to_utf8
from golden_requests import REQUESTS
from xmlcompare import structurally_equal


def record_result(num: int, title: str, failures: list[str], elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    conftest.ACCEPTANCE_RESULTS.append(
        f"[{status}] criterion {num}: {title}{timing}"
    )
    assert not failures, "; ".join(failures)


def collect_pages(handler, verb, extra=()):
    """Follow tokens to exhaustion; returns (identifiers, page count)."""
    ns = f"{{http://www.openarchives.org/OAI/1.0/OAI_{verb}}}"
    params = [("verb", verb), *extra]
    idents, pages = [], 0
    while True:
        resp = handler.handle(params)
        assert resp.http_status == 200, resp.body
        root = ET.fromstring(resp.body)
        pages += 1
        if verb == "ListIdentifiers":
            idents += [e.text for e in root.findall(f"{ns}identifier")]
        else:
            idents += [
                r.findtext(f"{ns}header/{ns}identifier")
                for r in root.findall(f"{ns}record")
            ]
        token = root.findtext(f"{ns}resumptionToken")
        if token is None:
            return idents, pages
        params = [("verb", verb), ("resumptionToken", token)]


def test_criterion_1_golden_fidelity(demo_handler):
    """Canonical verb responses match the recorded fixtures byte for byte
    (the fixed clock makes responseDate equal too). Budget: 5s."""
    started = time.monotonic()
    failures = []
    if sorted(REQUESTS) != sorted(p.name for p in GOLDEN.glob("*.xml")):
        failures.append("fixture set differs from the requests checked")
    for name, params in REQUESTS.items():
        resp = demo_handler.handle(params)
        if resp.http_status != 200:
            failures.append(f"{name}: HTTP {resp.http_status}")
            continue
        golden = (GOLDEN / name).read_bytes()
        body = resp.body  # a ListRecords page's parts can be read once
        if body == golden:
            continue
        if structurally_equal(body, golden):
            failures.append(f"{name}: same structure, different bytes")
        else:
            failures.append(f"{name}: structure differs from fixture")
    # the two documented continuation tokens must appear verbatim
    li = demo_handler.handle([("verb", "ListIdentifiers")]).body
    if b"<resumptionToken>1992-05-01___</resumptionToken>" not in li:
        failures.append("ListIdentifiers token is not 1992-05-01___")
    lr = demo_handler.handle(
        [("verb", "ListRecords"), ("metadataPrefix", "oai_dc")]
    ).body
    if b"<resumptionToken>1992-05-01___dc</resumptionToken>" not in lr:
        failures.append("ListRecords token is not 1992-05-01___dc")
    elapsed = time.monotonic() - started
    if elapsed >= 5.0:
        failures.append(f"budget exceeded: {elapsed:.1f}s >= 5s")
    record_result(1, "golden response fidelity", failures, elapsed)


def test_criterion_2_getrecord_outcomes(demo_handler):
    """All four GetRecord outcomes behave as specified."""
    ns = "{http://www.openarchives.org/OAI/1.0/OAI_GetRecord}"

    def get(ident, prefix):
        resp = demo_handler.handle(
            [("verb", "GetRecord"), ("identifier", ident),
             ("metadataPrefix", prefix)]
        )
        assert resp.http_status == 200
        return ET.fromstring(resp.body).find(f"{ns}record")

    failures = []
    if get("oai:arXiv:hep-th/7001001", "oai_dc") is not None:
        failures.append("unknown item produced a record container")
    deleted = get("oai:arXiv:hep-lat/9201001", "oai_dc")
    if deleted is None or deleted.get("status") != "deleted":
        failures.append("deleted item lacks status=deleted")
    elif deleted.find(f"{ns}metadata") is not None:
        failures.append("deleted item carries metadata")
    headeronly = get("oai:arXiv:cs.DL/0101027", "oai_marc")
    if headeronly is None or headeronly.find(f"{ns}header") is None:
        failures.append("unsupported format lost the header")
    elif headeronly.find(f"{ns}metadata") is not None:
        failures.append("unsupported format produced metadata")
    normal = get("oai:arXiv:cs.DL/0101027", "oai_dc")
    if normal is None or normal.find(f"{ns}metadata") is None:
        failures.append("normal dissemination lacks metadata")
    record_result(2, "GetRecord outcome matrix", failures)


@pytest.mark.parametrize(
    "n,page_size",
    [(1000, 1), (1000, 7), (10000, 100), (10000, 500)],
    ids=["1000x1", "1000x7", "10000x100", "10000x500"],
)
def test_criterion_3_pagination_equivalence(taxonomy, n, page_size):
    """Token-driven pagination returns exactly the full scan on randomized
    corpora. Budget: 60s per configuration."""
    started = time.monotonic()
    rng = random.Random(n * 31 + page_size)
    store = Store(taxonomy)
    synth_corpus(store, n, rng, span_days=2200)
    handler = ProtocolHandler(
        store, RepositoryConfig(page_size=page_size), clock=lambda: FIXED_CLOCK
    )
    failures = []
    full = [f"oai:arXiv:{e.identifier}" for e in store.scan()]
    got, pages = collect_pages(handler, "ListIdentifiers")
    if got != full:
        failures.append(
            f"paginated != full scan ({len(got)} vs {len(full)} entries)"
        )
    # window plus set filter against the same oracle
    lo = date(1996, 1, 1)
    hi = date(1999, 6, 30)
    oracle = [
        f"oai:arXiv:{e.identifier}" for e in store.scan(lo, hi, "math")
    ]
    got_set, _ = collect_pages(
        handler,
        "ListIdentifiers",
        [("from", "1996-01-01"), ("until", "1999-06-30"), ("set", "math")],
    )
    if got_set != oracle:
        failures.append("windowed set scan differs from oracle")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"budget exceeded: {elapsed:.1f}s >= 60s")
    record_result(
        3, f"pagination equivalence {n} records, page {page_size}",
        failures, elapsed,
    )


def test_criterion_4_incremental_harvest_simulation(taxonomy):
    """30 simulated days of ingests plus same-day late updates. The 1-day
    overlap misses nothing on any day; disabling the overlap provably
    loses updates. Budget: 30s."""
    started = time.monotonic()

    def simulate(overlap_days: int) -> int:
        rng = random.Random(42 + overlap_days)
        store = Store(taxonomy)
        day = [date(2001, 3, 1)]
        handler = ProtocolHandler(
            store,
            RepositoryConfig(page_size=50),
            clock=lambda: datetime.combine(day[0], datetime.min.time()),
        )
        transport = WsgiTransport(make_app(handler))
        state = HarvestState()
        key = "sim"
        job = HarvestJob("ListRecords", metadata_prefix="oai_dc")
        expected: dict[str, int] = {}  # oai id -> revision, oracle
        metas: dict[str, object] = {}
        harvested: dict[str, dict] = {}
        missed = 0
        serial = 0
        for day_no in range(30):
            day[0] = date(2001, 3, 1) + timedelta(days=day_no)
            morning = datetime.combine(day[0], datetime.min.time())
            # 08:00 new submissions
            for _ in range(3):
                serial += 1
                eid = EprintId("hep-th", 103, serial)
                meta = make_meta(eid, day[0], comments="r0")
                store.ingest(format_abs(meta), morning)
                oai = f"oai:arXiv:{eid.local()}"
                expected[oai] = 0
                metas[oai] = meta
            # 09:00 harvest
            records, report = incremental(
                state, key, job, day[0], transport,
                overlap_days=overlap_days, sleep=lambda s: None,
            )
            for rec in records:
                harvested[rec.identifier] = rec
            # 10:00 check everything known so far is current
            for oai, rev in expected.items():
                rec = harvested.get(oai)
                if rec is None or f">Comment: r{rev}<" not in (
                    ET.tostring(ET.fromstring(rec.metadata), encoding="unicode")
                    if rec.metadata else ""
                ):
                    missed += 1
            # 15:00 late updates to already-harvested records
            for oai in rng.sample(sorted(expected), min(2, len(expected))):
                expected[oai] += 1
                meta = metas[oai]
                meta.comments = f"r{expected[oai]}"
                store.ingest(
                    format_abs(meta),
                    datetime.combine(day[0], datetime.min.time())
                    + timedelta(hours=15),
                )
        return missed

    failures = []
    missed_with_overlap = simulate(overlap_days=1)
    if missed_with_overlap != 0:
        failures.append(
            f"1-day overlap missed {missed_with_overlap} updates"
        )
    missed_without = simulate(overlap_days=-1)
    if missed_without < 1:
        failures.append("disabling the overlap lost nothing; race not shown")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"budget exceeded: {elapsed:.1f}s >= 30s")
    record_result(
        4,
        f"incremental harvest simulation (0 vs {missed_without} missed)",
        failures, elapsed,
    )


class VirtualClock:
    """One clock for the server's ``monotonic`` and the harvester's
    ``sleep``: sleeping moves it forward at once, and nothing else does."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_criterion_5_flow_control_compliance(taxonomy):
    """A polite harvester finishes a 10,000-record corpus against a
    throttling server with no permanent failure; an impatient client is
    refused every premature retry. Both run on a virtual clock, so each
    Retry-After (rounded up to whole seconds) costs no real time. Budget:
    60s of wall-clock time."""
    started = time.monotonic()
    rng = random.Random(99)
    store = Store(taxonomy)
    synth_corpus(store, 10000, rng, span_days=2200)
    handler = ProtocolHandler(
        store, RepositoryConfig(page_size=500), clock=lambda: FIXED_CLOCK
    )
    policy = FlowPolicy(min_interval_list=0.05, min_interval_other=0.01)
    clock = VirtualClock()
    app = make_app(handler, policy=policy, monotonic=clock.monotonic)
    failures = []

    polite = WsgiTransport(app, remote_addr="10.0.0.1")
    records, report = run(HarvestJob("ListIdentifiers"), polite, sleep=clock.sleep)
    if len(records) != len(store.scan()):
        failures.append(
            f"polite harvester got {len(records)} of {len(store.scan())}"
        )

    impatient = WsgiTransport(app, remote_addr="10.0.0.2")
    first = impatient.request([("verb", "ListIdentifiers")])
    if first.status != 200:
        failures.append("impatient client's first request refused")
    premature_statuses = [
        impatient.request([("verb", "ListIdentifiers")]).status
        for _ in range(5)
    ]
    if premature_statuses.count(503) < 1:
        failures.append("no 503 for premature retries")
    if any(s == 200 for s in premature_statuses):
        failures.append("a premature retry was answered 200")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"budget exceeded: {elapsed:.1f}s >= 60s")
    record_result(
        5,
        f"flow control compliance ({report.retries_503} throttled retries)",
        failures, elapsed,
    )


def test_criterion_6_crosswalk_fixtures():
    """Author untangling, language detection and TeX conversion fixtures."""
    failures = []
    parsed = parse_authors("Fred A Bloggs, Mark Smith II (Univ A), T Sawyer (Univ B)")
    want = [
        ("Bloggs", "Fred A", None, None, "Univ A"),
        ("Smith", "Mark", None, "II", "Univ A"),
        ("Sawyer", "T", None, None, "Univ B"),
    ]
    got = [
        (a.keyname, a.forenames, a.prefix, a.suffix, a.affiliation)
        for a in parsed
    ]
    if got != want:
        failures.append(f"author untangling: {got}")

    for comments, code in [
        ("10 pages, in French", "fr"),
        ("15 pages, 3 figures", None),
        ("in Portuguese, minor typos fixed", "pt"),
    ]:
        if detect_language(comments) != code:
            failures.append(f"language of {comments!r} != {code!r}")

    tex_fixtures = [
        (r"J. Koll\'ar", "J. Kollár"),
        (r"J. Koll\'{a}r", "J. Kollár"),
        (r"Schr\"odinger", "Schrödinger"),
        (r"Schr\"{o}dinger", "Schrödinger"),
        (r"Erd\H{o}s", "Erdős"),
        (r"Poincar\'e", "Poincaré"),
        (r"G\"odel", "Gödel"),
        (r"\v{C}ech", "Čech"),
        (r"Dvo\v{r}\'ak", "Dvořák"),
        (r"Fran\c{c}ois", "François"),
        (r"Gau\ss", "Gauß"),
        (r"M\"uller", "Müller"),
        (r"Garc\'ia", "García"),
        (r"\'Alvarez", "Álvarez"),
        (r"Pe\~na", "Peña"),
        (r"Ku\.zniak", "Kużniak"),
        (r"\=Otani", "Ōtani"),
        (r"W\l{}adys\l{}aw", "Władysław"),
        (r"caf\'e", "café"),
        (r"\`a la carte", "à la carte"),
        (r"na\"ive", "naïve"),
        (r"\AA berg", "Å berg"),
    ]
    assert len(tex_fixtures) >= 20
    wrong = [
        f"{tex!r} -> {tex_to_utf8(tex)!r}"
        for tex, expected in tex_fixtures
        if tex_to_utf8(tex) != expected
    ]
    if wrong:
        failures.append("tex fixtures failed: " + "; ".join(wrong))
    not_idempotent = [
        tex for tex, _ in tex_fixtures
        if tex_to_utf8(tex_to_utf8(tex)) != tex_to_utf8(tex)
    ]
    if not_idempotent:
        failures.append(f"conversion not idempotent for {not_idempotent}")
    record_result(
        6, f"crosswalk fixtures ({len(tex_fixtures)} tex cases)", failures
    )


def test_criterion_7_error_paths(demo_handler):
    """Grammar violations draw HTTP 400; Document draws 400 with an HTML
    usage page."""
    failures = []
    bad_requests = [
        [("verb", "ListSets"), ("resumptionToken", "1992-05-01___")],
        [("verb", "ListMetadataFormats"), ("resumptionToken", "1992-05-01___")],
        [("verb", "Frobnicate")],
        [("verb", "Identify"), ("from", "2000-01-01")],
        [("verb", "GetRecord"), ("identifier", "oai:arXiv:cs.DL/0101027")],
        [("verb", "ListRecords"), ("resumptionToken", "1992-05-01___dc"),
         ("set", "cs")],
        [("verb", "ListIdentifiers"), ("from", "bogus")],
        [],
    ]
    for params in bad_requests:
        resp = demo_handler.handle(params)
        if resp.http_status != 400:
            failures.append(f"{params}: HTTP {resp.http_status}, wanted 400")
    doc = demo_handler.handle([("verb", "Document")])
    if doc.http_status != 400:
        failures.append(f"Document: HTTP {doc.http_status}, wanted 400")
    if not doc.content_type.startswith("text/html") or b"<html>" not in doc.body:
        failures.append("Document body is not an HTML page")
    record_result(7, "error paths answer 400", failures)


def test_criterion_8_scale_note():
    """Production-scale corpus sizes and multi-year operation are not
    reproduced here; the synthetic corpora above bound the behaviour at
    10,000 records."""
    conftest.ACCEPTANCE_RESULTS.append(
        "[NOTE] criterion 8: production scale not reproduced; "
        "synthetic corpora cover up to 10,000 records"
    )

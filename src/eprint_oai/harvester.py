"""Incremental harvesting client.

Follows resumptionTokens verbatim until a token-free page arrives, sleeps
the advertised Retry-After on 503 replies, and persists results to an
append-only journal plus a compacted latest-state file. Incremental runs
overlap the previous harvest by one day, so updates made later on the day
of the last harvest are re-fetched rather than missed; double-harvested
records simply overwrite identically.

The transport is injected: a real HTTP client or an in-process loopback
onto a WSGI app, so end-to-end runs need no network.
"""

from __future__ import annotations

import io
import json
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Protocol

from .ids import format_datestamp, parse_datestamp


class TransportFailure(RuntimeError):
    """Transport kept failing beyond the retry budget."""


class ProtocolError(RuntimeError):
    """The provider answered with something that does not parse."""


@dataclass(frozen=True)
class TransportResponse:
    status: int
    headers: dict[str, str]
    body: bytes


class Transport(Protocol):
    def request(self, params: list[tuple[str, str]]) -> TransportResponse: ...


class HttpTransport:
    """Real HTTP GET transport (requests)."""

    def __init__(self, base_url: str, session=None):
        import requests

        self.base_url = base_url
        self.session = session or requests.Session()

    def request(self, params: list[tuple[str, str]]) -> TransportResponse:
        import requests

        try:
            resp = self.session.get(self.base_url, params=params, timeout=60)
        except requests.RequestException as exc:
            raise TransportFailure(str(exc)) from exc
        return TransportResponse(
            resp.status_code, dict(resp.headers), resp.content
        )


class WsgiTransport:
    """In-process loopback onto a WSGI app."""

    def __init__(self, app, remote_addr: str = "127.0.0.1"):
        self.app = app
        self.remote_addr = remote_addr

    def request(self, params: list[tuple[str, str]]) -> TransportResponse:
        from urllib.parse import urlencode

        environ = {
            "REQUEST_METHOD": "GET",
            "QUERY_STRING": urlencode(params),
            "REMOTE_ADDR": self.remote_addr,
            "wsgi.input": io.BytesIO(b""),
        }
        captured: dict = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])
            captured["headers"] = dict(headers)

        chunks = self.app(environ, start_response)
        return TransportResponse(
            captured["status"], captured["headers"], b"".join(chunks)
        )


@dataclass(frozen=True)
class HarvestJob:
    verb: str  # ListIdentifiers | ListRecords
    metadata_prefix: str | None = None
    from_: date | None = None
    until: date | None = None
    set_spec: str | None = None
    max_retries: int = 5

    def __post_init__(self):
        if self.verb not in ("ListIdentifiers", "ListRecords"):
            raise ValueError(f"not a harvestable verb: {self.verb!r}")
        if (self.verb == "ListRecords") != (self.metadata_prefix is not None):
            raise ValueError("metadataPrefix is required iff verb is ListRecords")

    def initial_params(self) -> list[tuple[str, str]]:
        params = [("verb", self.verb)]
        if self.metadata_prefix:
            params.append(("metadataPrefix", self.metadata_prefix))
        if self.from_:
            params.append(("from", format_datestamp(self.from_)))
        if self.until:
            params.append(("until", format_datestamp(self.until)))
        if self.set_spec:
            params.append(("set", self.set_spec))
        return params


@dataclass(frozen=True)
class HarvestedRecord:
    identifier: str  # full oai identifier
    datestamp: date | None = None
    deleted: bool = False
    metadata: str | None = None  # raw XML fragment when present


@dataclass
class HarvestReport:
    fetched: int = 0
    deleted: int = 0
    pages: int = 0
    retries_503: int = 0
    elapsed: float = 0.0
    completed: bool = False


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_page(body: bytes, verb: str) -> tuple[list[HarvestedRecord], str | None]:
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"response body does not parse as XML: {exc}") from exc
    if _localname(root.tag) != verb:
        raise ProtocolError(
            f"expected {verb} response, got {_localname(root.tag)!r}"
        )
    records: list[HarvestedRecord] = []
    token: str | None = None
    for child in root:
        name = _localname(child.tag)
        if name == "identifier":
            records.append(HarvestedRecord(identifier=(child.text or "").strip()))
        elif name == "record":
            records.append(_parse_record(child))
        elif name == "resumptionToken":
            token = (child.text or "").strip() or None
    return records, token


def _parse_record(node: ET.Element) -> HarvestedRecord:
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
    return HarvestedRecord(
        identifier=ident,
        datestamp=stamp,
        deleted=node.get("status") == "deleted",
        metadata=metadata,
    )


def run(
    job: HarvestJob,
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[HarvestedRecord], HarvestReport]:
    """Run one harvest to completion, following tokens verbatim.

    503 replies are obeyed by sleeping the advertised Retry-After and
    retrying the same logical request; each page has ``max_retries``
    attempts before the run fails with partial progress attached to the
    raised :class:`TransportFailure`.
    """
    report = HarvestReport()
    records: list[HarvestedRecord] = []
    started = time.monotonic()
    params = job.initial_params()
    while True:
        page, token = _fetch_page(job, transport, params, sleep, report, records)
        records.extend(page)
        report.pages += 1
        report.fetched = len(records)
        report.deleted += sum(1 for r in page if r.deleted)
        if token is None:
            break
        params = [("verb", job.verb), ("resumptionToken", token)]
    report.elapsed = time.monotonic() - started
    report.completed = True
    return records, report


def _fetch_page(job, transport, params, sleep, report, partial):
    attempts = 0
    while True:
        try:
            resp = transport.request(params)
        except TransportFailure as exc:
            attempts += 1
            if attempts > job.max_retries:
                exc.partial_records = partial  # type: ignore[attr-defined]
                exc.report = report  # type: ignore[attr-defined]
                raise
            sleep(1.0)
            continue
        if resp.status == 503:
            report.retries_503 += 1
            attempts += 1
            if attempts > job.max_retries:
                exc = TransportFailure("too many 503 replies")
                exc.partial_records = partial  # type: ignore[attr-defined]
                exc.report = report  # type: ignore[attr-defined]
                raise exc
            sleep(_retry_after_seconds(resp.headers.get("Retry-After", "1")))
            continue
        if resp.status != 200:
            raise ProtocolError(f"unexpected HTTP status {resp.status}")
        return _parse_page(resp.body, job.verb)


def _retry_after_seconds(value: str, now: datetime | None = None) -> float:
    """Seconds to wait for a Retry-After value, which is either a number of
    seconds or an HTTP-date; a date already past means no wait."""
    try:
        return float(value)
    except ValueError:
        pass
    from email.utils import parsedate_to_datetime  # slow import, rarely needed

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad Retry-After header: {value!r}") from exc
    if when.tzinfo is None:  # "-0000": UTC with no source zone
        when = when.replace(tzinfo=timezone.utc)
    now = now or datetime.now(timezone.utc)
    return max(0.0, (when - now).total_seconds())


# --- local persistence -------------------------------------------------------


class HarvestStore:
    """Append-only journal plus a compacted latest-state file.

    ``journal.jsonl`` gets one JSON line per harvested record, in arrival
    order. ``latest.json`` maps identifier to its newest entry and is
    rewritten on compaction. Upserts are idempotent: re-fetching an
    identical record changes nothing observable.
    """

    def __init__(self, directory: str | Path):
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

    def upsert(self, records: list[HarvestedRecord]) -> None:
        with self.journal_path.open("a", encoding="utf-8") as fh:
            for record in records:
                entry = self._encode(record)
                self._latest[record.identifier] = entry
                fh.write(json.dumps(entry) + "\n")

    def compact(self) -> None:
        tmp = self.latest_path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(self._latest, indent=1, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(self.latest_path)
        self.journal_path.write_text("", encoding="utf-8")

    def latest(self) -> dict[str, dict]:
        return dict(self._latest)

    def __len__(self) -> int:
        return len(self._latest)


class HarvestState:
    """Per (baseURL, set, prefix) date of the last completed harvest,
    persisted as JSON. Dates never move backward."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._state: dict[str, str] = {}
        if self.path is not None and self.path.exists():
            self._state = json.loads(self.path.read_text(encoding="utf-8"))

    @staticmethod
    def key(base_url: str, set_spec: str | None, prefix: str | None) -> str:
        return "\t".join([base_url, set_spec or "", prefix or ""])

    def last_completed(self, key: str) -> date | None:
        raw = self._state.get(key)
        return parse_datestamp(raw) if raw else None

    def advance(self, key: str, day: date) -> None:
        prior = self.last_completed(key)
        if prior is not None and day < prior:
            return
        self._state[key] = format_datestamp(day)
        if self.path is not None:
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(self._state, indent=1, sort_keys=True), encoding="utf-8"
            )
            tmp.replace(self.path)


def incremental(
    state: HarvestState,
    state_key: str,
    job_template: HarvestJob,
    today: date,
    transport: Transport,
    store: HarvestStore | None = None,
    overlap_days: int = 1,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[HarvestedRecord], HarvestReport]:
    """One incremental harvest: from = last completed date minus the
    overlap, or a full harvest when never run. State advances to ``today``
    only when the run completes; failures leave it untouched.

    ``overlap_days=1`` is the safe default; ``overlap_days=-1`` starts the
    day after the last harvest, which loses same-day late updates (kept
    available so the race is demonstrable).
    """
    last = state.last_completed(state_key)
    job = job_template
    if last is not None:
        job = replace(job_template, from_=last - timedelta(days=overlap_days))
    records, report = run(job, transport, sleep=sleep)
    if store is not None:
        store.upsert(records)
    state.advance(state_key, today)
    return records, report

"""Incremental harvesting client.

Follows resumptionTokens verbatim until a token-free page arrives, sleeps
the advertised Retry-After on 503 replies, waits 1, 2, 4 ... s (capped)
after transport failures, and persists results to an append-only journal
plus a compacted latest-state file. Incremental runs
overlap the previous harvest by one day, so updates made later on the day
of the last harvest are re-fetched rather than missed; double-harvested
records simply overwrite identically.

The transport is injected: a real HTTP client or an in-process loopback
onto a WSGI app, so end-to-end runs need no network.
"""

from __future__ import annotations

import io
import json
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Protocol

from .durable import AppendLog, replace_durably
from .ids import format_datestamp, parse_datestamp

# longest wait, in seconds, between attempts after transport failures; the
# waits double from 1 s up to it
BACKOFF_CAP_S = 60.0


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
    attempts = failures = 0
    while True:
        try:
            resp = transport.request(params)
        except TransportFailure as exc:
            attempts += 1
            if attempts > job.max_retries:
                exc.partial_records = partial  # type: ignore[attr-defined]
                exc.report = report  # type: ignore[attr-defined]
                raise
            sleep(min(2.0**failures, BACKOFF_CAP_S))
            failures += 1
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
    order; each :meth:`upsert` appends its lines and fsyncs them. Loading
    ignores a torn last line (one with no trailing newline), which the next
    upsert cuts off; a malformed line anywhere else raises. ``latest.json``
    maps identifier to its newest entry, written as ``json.dumps(...,
    indent=1, sort_keys=True)`` would write it, and is rewritten on
    compaction: tmp + fsync, rename, directory fsync, and only then is the
    journal truncated. Upserts are idempotent: re-fetching an identical
    record changes nothing observable.

    Each entry is held as the text of its member of ``latest.json``, not as
    a dict, so that compaction re-encodes nothing: it writes the kept texts
    in identifier order. :meth:`latest` decodes them on demand.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / "journal.jsonl"
        self.latest_path = self.directory / "latest.json"
        self._journal = AppendLog(self.journal_path)
        # identifier -> '"<identifier>": {...}', its member of latest.json
        self._members: dict[str, str] = {}
        if self.latest_path.exists():
            self._members = _members_of(self.latest_path.read_text(encoding="utf-8"))
        for line in self._journal.read().split("\n"):
            if line.strip():
                entry = json.loads(line)
                ident = entry["identifier"]
                # the member as json.dumps writes it inside latest.json
                self._members[ident] = json.dumps(
                    {ident: entry}, indent=1, sort_keys=True
                )[3:-2]

    def upsert(self, records: list[HarvestedRecord]) -> None:
        members: dict[str, str] = {}

        def lines():
            for record in records:
                line, members[record.identifier] = _entry_texts(record)
                yield line.encode("utf-8")

        self._journal.append(lines())
        self._members.update(members)  # only once the journal holds them

    def compact(self) -> None:
        replace_durably(self.latest_path, _object_parts(self._members))
        self._journal.clear()

    def latest(self) -> dict[str, dict]:
        return json.loads("{" + ",".join(self._members.values()) + "}")

    def __len__(self) -> int:
        return len(self._members)


def _entry_texts(record: HarvestedRecord) -> tuple[str, str]:
    """The record's journal line, exactly ``json.dumps(entry) + "\\n"``, and
    its member of ``latest.json``, built from one encoding of each value."""
    ident = encode_basestring_ascii(record.identifier)
    stamp = (
        encode_basestring_ascii(format_datestamp(record.datestamp))
        if record.datestamp
        else "null"
    )
    deleted = "true" if record.deleted else "false"
    metadata = (
        "null" if record.metadata is None else encode_basestring_ascii(record.metadata)
    )
    line = (
        f'{{"identifier": {ident}, "datestamp": {stamp}, '
        f'"deleted": {deleted}, "metadata": {metadata}}}\n'
    )
    member = (
        f'{ident}: {{\n  "datestamp": {stamp},\n  "deleted": {deleted},\n'
        f'  "identifier": {ident},\n  "metadata": {metadata}\n }}'
    )
    return line, member


def _object_parts(members: dict[str, str]) -> Iterator[str]:
    """The text of the JSON object holding ``members``, piece by piece, in
    the layout of ``json.dumps(..., indent=1, sort_keys=True)``."""
    if not members:
        yield "{}"
        return
    separator = "{\n "
    for name in sorted(members):
        yield separator
        yield members[name]
        separator = ",\n "
    yield "\n}"


_scan_value = json.JSONDecoder().raw_decode
_skip_space = re.compile(r"[ \t\n\r]*").match


def _members_of(text: str) -> dict[str, str]:
    """Split the JSON object ``text`` into its members' texts, keyed by name.

    Each value is decoded once, to find where it ends and to reject a
    malformed file, and then dropped; the texts are kept as the file holds
    them.
    """
    members: dict[str, str] = {}
    pos = _skip_space(text).end()
    if text[pos : pos + 1] != "{":
        raise json.JSONDecodeError("expecting an object", text, pos)
    pos = _skip_space(text, pos + 1).end()
    if text[pos : pos + 1] == "}":
        pos += 1
    else:
        while True:
            start = pos
            if text[pos : pos + 1] != '"':
                raise json.JSONDecodeError("expecting a name", text, pos)
            name, pos = scanstring(text, pos + 1)
            pos = _skip_space(text, pos).end()
            if text[pos : pos + 1] != ":":
                raise json.JSONDecodeError("expecting ':'", text, pos)
            _, pos = _scan_value(text, _skip_space(text, pos + 1).end())
            members[name] = text[start:pos]
            pos = _skip_space(text, pos).end()
            if text[pos : pos + 1] == "}":
                pos += 1
                break
            if text[pos : pos + 1] != ",":
                raise json.JSONDecodeError("expecting ',' or '}'", text, pos)
            pos = _skip_space(text, pos + 1).end()
    if _skip_space(text, pos).end() != len(text):
        raise json.JSONDecodeError("extra data", text, pos)
    return members


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
            text = json.dumps(self._state, indent=1, sort_keys=True)
            replace_durably(self.path, [text])


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

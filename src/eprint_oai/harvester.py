"""Incremental harvesting client.

Follows resumptionTokens verbatim until a token-free page arrives, sleeps
the advertised Retry-After on 503 replies, waits 1, 2, 4 ... s (capped)
after transport failures, and persists results to an append-only journal
plus a compacted latest-state file. Incremental runs
overlap the previous harvest by one day, so updates made later on the day
of the last harvest are re-fetched rather than missed; double-harvested
records simply overwrite identically.

Each page is read in one expat pass, with no tree built. A record's
metadata is kept as the provider sent it: the bytes of the element inside
``<metadata>``, from its start tag to the end of its end tag, decoded with
the page's declared encoding. Only namespace bindings that element uses
but inherits from the page are added to its start tag, so that it parses
on its own.

The transport is injected: a real HTTP client or an in-process loopback
onto a WSGI app, so end-to-end runs need no network.
"""

from __future__ import annotations

import io
import json
import re
import time
import xml.parsers.expat as expat
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Protocol

from .durable import AppendLog, replace_durably
from .ids import format_datestamp, parse_datestamp
from .xmlwriter import escape

# longest wait, in seconds, between attempts after transport failures; the
# waits double from 1 s up to it
BACKOFF_CAP_S = 60.0
# longest Retry-After, in seconds, the harvester obeys: one day, the period
# of an incremental harvest. A longer wait, a negative one or one that is not
# finite is a ProtocolError rather than a sleep.
RETRY_AFTER_MAX_S = 86400.0


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
    metadata: str | None = None  # the provider's XML fragment when present


@dataclass
class HarvestReport:
    fetched: int = 0
    deleted: int = 0
    pages: int = 0
    retries_503: int = 0
    elapsed: float = 0.0
    completed: bool = False


# the end of the tag that starts where the match starts; attribute values may
# hold ">", so quoted runs are skipped whole
_TAG_END = re.compile(rb"""(?:[^>"']|"[^"]*"|'[^']*')*>""")


def _parse_page(body: bytes, verb: str) -> tuple[list[HarvestedRecord], str | None]:
    """The records and resumptionToken of one page, in one expat pass.

    Identifiers, datestamps, deletion flags and the token come from text
    events. A record's metadata is the page's own bytes from the start tag
    of ``<metadata>``'s first child to the end of that child's end tag,
    decoded with the page's declared encoding; inside that child the
    handlers only count depth. A namespace binding the child uses but an
    ancestor declares is added to its start tag (:func:`_declare_inherited`).
    """
    parser = expat.ParserCreate(namespace_separator="}")
    records: list[HarvestedRecord] = []
    token: str | None = None
    encoding = "utf-8"
    path: list[str] = []  # local names of the open elements outside fragments
    declared: list[tuple[str, str]] = []  # bindings the next element declares
    # bindings declared by the open elements at depths 0-2, the ancestors
    # a fragment has
    in_scope: list[list[tuple[str, str]]] = [[], [], []]
    text: list[str] | None = None  # character data being collected
    ident, stamp, deleted, metadata = "", None, False, None
    start = depth = 0  # where the open fragment starts, its depth
    inherited: dict[str, str] = {}

    def xml_decl(version, declared_encoding, standalone):
        nonlocal encoding
        if declared_encoding:
            encoding = declared_encoding

    def namespace(prefix, uri):
        declared.append((prefix or "", uri or ""))

    def collect():
        nonlocal text
        text = []
        parser.CharacterDataHandler = text.append

    def element_start(name, attrs):
        nonlocal declared, ident, stamp, deleted, metadata
        local = name.rpartition("}")[2]
        level = len(path)
        if level < 3:
            in_scope[level] = declared
        declared = []
        if level == 0:
            if local != verb:
                raise ProtocolError(f"expected {verb} response, got {local!r}")
        elif level == 1:
            if local == "record":
                ident, stamp, metadata = "", None, None
                deleted = attrs.get("status") == "deleted"
            elif local == "identifier" or local == "resumptionToken":
                collect()
        elif level == 2:
            if local == "metadata" and path[1] == "record":
                parser.StartElementHandler = fragment_start
        elif level == 3 and path[2] == "header" and path[1] == "record":
            if local == "identifier" or local == "datestamp":
                collect()
        path.append(local)

    def element_end(name):
        nonlocal text, token, ident, stamp
        local = path.pop()
        value = None
        if text is not None:
            value = "".join(text).strip()
            text = None
            parser.CharacterDataHandler = None
        level = len(path)
        if level == 1:
            if local == "record":
                record_end()
            elif local == "identifier":
                records.append(HarvestedRecord(identifier=value or ""))
            elif local == "resumptionToken":
                token = value or None
        elif level == 2:
            if local == "metadata":  # whether or not it held an element
                parser.StartElementHandler = element_start
        elif level == 3 and value is not None:
            if local == "identifier":
                ident = value
            elif local == "datestamp":
                stamp = value

    def record_end():
        if not ident:
            raise ProtocolError("record without header identifier")
        day = None
        if stamp is not None:
            try:
                day = parse_datestamp(stamp)
            except ValueError as exc:
                raise ProtocolError(
                    f"{ident}: bad header datestamp {stamp!r}: {exc}"
                ) from exc
        records.append(HarvestedRecord(ident, day, deleted, metadata))

    def fragment_start(name, attrs):
        nonlocal start, depth, declared, inherited
        start = parser.CurrentByteIndex
        own = {prefix for prefix, _ in declared}
        declared = []
        bindings = dict(in_scope[0])
        bindings.update(in_scope[1])
        bindings.update(in_scope[2])
        inherited = {p: u for p, u in bindings.items() if u and p not in own}
        depth = 1
        parser.StartElementHandler = inner_start
        parser.EndElementHandler = inner_end

    def inner_start(name, attrs):
        nonlocal depth
        depth += 1

    def inner_end(name):
        nonlocal depth
        depth -= 1
        if not depth:
            fragment_end()

    def fragment_end():
        nonlocal metadata, declared
        # expat reports the end of an element at the "<" of its end tag, or,
        # for an empty-element tag, just after that tag
        end = parser.CurrentByteIndex
        if not (
            body[end - 2 : end] == b"/>" and _TAG_END.match(body, start).end() == end
        ):
            end = body.index(b">", end) + 1
        fragment = body[start:end].decode(encoding)
        metadata = _declare_inherited(fragment, inherited) if inherited else fragment
        declared = []  # made inside the fragment
        parser.StartElementHandler = element_start
        parser.EndElementHandler = element_end

    # the slicing above finds "<", "/" and ">" as single bytes, as they are
    # in UTF-8 and every other encoding expat reads except UTF-16
    if body[:2] in (b"\xfe\xff", b"\xff\xfe") or b"\x00" in body[:4]:
        raise ProtocolError("UTF-16 and UTF-32 pages are not supported")
    parser.XmlDeclHandler = xml_decl
    parser.StartNamespaceDeclHandler = namespace
    parser.StartElementHandler = element_start
    parser.EndElementHandler = element_end
    try:
        parser.Parse(body, True)
    except expat.ExpatError as exc:
        raise ProtocolError(f"response body does not parse as XML: {exc}") from exc
    return records, token


def _declare_inherited(fragment: str, inherited: dict[str, str]) -> str:
    """``fragment`` with the bindings of ``inherited`` (prefix to URI, ""
    for the default namespace) that it uses without declaring them itself
    added to its root's start tag, so that it means on its own what it meant
    in the page."""
    root = ""  # the qualified name of the fragment's root
    used: set[str] = set()
    scopes: list[set[str]] = []  # the prefixes each open element declares

    def undeclared(prefix: str) -> bool:
        return prefix in inherited and not any(prefix in s for s in scopes)

    def start(name, attrs):
        nonlocal root
        root = root or name
        scopes.append({a[6:] for a in attrs if a == "xmlns" or a[:6] == "xmlns:"})
        prefix = name.rpartition(":")[0]
        if undeclared(prefix):
            used.add(prefix)
        for attr in attrs:
            prefix, colon, _ = attr.partition(":")
            if colon and prefix != "xmlns" and undeclared(prefix):
                used.add(prefix)

    parser = expat.ParserCreate()
    parser.StartElementHandler = start
    parser.EndElementHandler = lambda name: scopes.pop()
    try:
        parser.Parse(fragment, True)
    except expat.ExpatError as exc:
        raise ProtocolError(f"metadata does not parse on its own: {exc}") from exc
    if not used:
        return fragment
    bindings = "".join(
        f' xmlns{":" if prefix else ""}{prefix}="{escape(inherited[prefix])}"'
        for prefix in sorted(used)
    )
    return f"<{root}{bindings}{fragment[1 + len(root):]}"


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
    seconds or an HTTP-date; a date already past means no wait. A negative
    or non-finite number, or a wait longer than ``RETRY_AFTER_MAX_S``, is a
    :class:`ProtocolError`."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = _seconds_until(value, now or datetime.now(timezone.utc))
    # also false for NaN
    if not 0.0 <= seconds <= RETRY_AFTER_MAX_S:
        raise ProtocolError(f"Retry-After out of range: {value!r}")
    return seconds


def _seconds_until(value: str, now: datetime) -> float:
    from email.utils import parsedate_to_datetime  # slow import, rarely needed

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad Retry-After header: {value!r}") from exc
    if when.tzinfo is None:  # "-0000": UTC with no source zone
        when = when.replace(tzinfo=timezone.utc)
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

"""Incremental harvesting client.

Follows resumptionTokens verbatim until a token-free page arrives, sleeps
the advertised Retry-After on 503 replies, waits 1, 2, 4, 8 and 16 s
after transport failures and after pages cut short (a page is retried
:data:`MAX_RETRIES` times), and keeps the newest entry per identifier in
one SQLite database, ``harvest.sqlite``, where each upsert is one atomic,
durable transaction (:class:`HarvestStore`). The same database holds the
day each incremental harvest last completed (:class:`HarvestState`, which
a :class:`HarvestStore` is), so a harvest directory holds no other file and
is opened once. Incremental runs overlap the previous harvest by one day,
so updates made later on the day of the last harvest are re-fetched rather
than missed; double-harvested records simply overwrite identically.

Each page is read in one expat pass, with no tree built. A record's
metadata is kept as the provider sent it: the bytes of the element inside
``<metadata>``, from its start tag to the end of its end tag, decoded with
the page's declared encoding. Only namespace bindings that element uses
but inherits from the page are added to its start tag, so that it parses
on its own.

The end of that element is found without a Python call per element
inside it. When its start tag declares namespace bindings, as every
format of this provider's does, the element handlers are unset and only
bindings are counted: the element's own, plus those each inner element
opens and closes. The count falls to zero when the element's own bindings
go out of scope, at its end tag (or, for an empty-element tag, at its
start), and expat reports the byte offset of that tag. An element that
declares no binding has its inner elements counted instead. Each HTTP body
is read in one call, of at most :data:`MAX_PAGE_BYTES` bytes.

The transport is injected: a real HTTP client or an in-process loopback
onto a WSGI app, so end-to-end runs need no network.
"""

from __future__ import annotations

import io
import re
import sqlite3
import time
import xml.parsers.expat as expat
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Protocol

from .ids import format_datestamp, parse_datestamp
from .xmlwriter import escape

# retries of one page, after a transport failure or a 503 reply, before
# the harvest fails; the waits after transport failures double from 1 s,
# so they add up to 31 s
MAX_RETRIES = 5
# longest Retry-After, in seconds, the harvester obeys: one day, the period
# of an incremental harvest. A longer wait, a negative one or one that is not
# finite is a ProtocolError rather than a sleep.
RETRY_AFTER_MAX_S = 86400.0
# consecutive pages without a record after which a run that keeps getting
# tokens fails: this provider never sends one (a page with a token holds
# page_size records), and a provider that filters each page of its index
# after cutting it may send a few; twenty in a row is a provider that makes
# no progress
MAX_EMPTY_PAGES = 20
# longest body HttpTransport reads, in bytes: about seven times this
# provider's largest page (500 arXiv-format records, 1.18 MB on the bench
# corpus), so pages of far longer records, or of page_size 2000 (4.68 MB
# there), still fit
MAX_PAGE_BYTES = 8 * 2**20

# expat's errors for a document that is well-formed as far as it goes and
# ends too soon, as a body does when its connection closes mid-page
_CUT_SHORT = frozenset(
    expat.errors.codes[message]
    for message in (
        expat.errors.XML_ERROR_NO_ELEMENTS,
        expat.errors.XML_ERROR_UNCLOSED_TOKEN,
        expat.errors.XML_ERROR_PARTIAL_CHAR,
        expat.errors.XML_ERROR_UNCLOSED_CDATA_SECTION,
    )
)


class TransportFailure(RuntimeError):
    """Transport kept failing beyond the retry budget."""


class ProtocolError(RuntimeError):
    """The provider answered with something that does not parse."""


class PageCutShort(ProtocolError):
    """A page's XML ends before its root element does: the connection
    closed mid-page. Retried like a :class:`TransportFailure`."""


@dataclass(frozen=True)
class TransportResponse:
    """One HTTP reply. Header names are lowercased on construction, so that
    a lookup finds a header whatever case the provider, a proxy or HTTP/2
    gave its name."""

    status: int
    headers: dict[str, str]
    body: bytes

    def __post_init__(self) -> None:
        lowered = {name.lower(): value for name, value in self.headers.items()}
        object.__setattr__(self, "headers", lowered)


class Transport(Protocol):
    def request(self, params: list[tuple[str, str]]) -> TransportResponse: ...


class HttpTransport:
    """Real HTTP GET transport (requests)."""

    def __init__(self, base_url: str, session=None):
        import requests

        self.base_url = base_url
        self.session = session or requests.Session()

    def request(self, params: list[tuple[str, str]]) -> TransportResponse:
        """One GET, its body read in one call of at most
        :data:`MAX_PAGE_BYTES` plus one bytes rather than in the 10 KB
        chunks of ``Response.content``; a longer body is a
        :class:`ProtocolError`. A body shorter than its ``Content-Length``,
        like any other failure of the connection, is a
        :class:`TransportFailure`. A body sent without ``Content-Length``, as
        this provider sends a ListRecords page, ends where the connection
        closes, so one cut short shows only when its XML ends too soon:
        :func:`_parse_page` raises :class:`PageCutShort`, which :func:`run`
        retries."""
        import requests
        from urllib3.exceptions import HTTPError

        try:
            resp = self.session.get(
                self.base_url, params=params, timeout=60, stream=True
            )
            # a body sent as it is goes into one buffer; urllib3 copies a
            # decoded one once more
            encoded = bool(resp.headers.get("content-encoding"))
            body = resp.raw.read(MAX_PAGE_BYTES + 1, decode_content=encoded)
            if len(body) > MAX_PAGE_BYTES:
                resp.close()
                raise ProtocolError(f"response body over {MAX_PAGE_BYTES} bytes")
            if resp.raw.length_remaining:
                raise TransportFailure(
                    f"connection closed {resp.raw.length_remaining} bytes "
                    "short of the body's Content-Length"
                )
        except (requests.RequestException, HTTPError) as exc:
            raise TransportFailure(str(exc)) from exc
        return TransportResponse(resp.status_code, resp.headers, body)


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


# the end of the tag that starts where the match starts; attribute values may
# hold ">", so quoted runs are skipped whole
_TAG_END = re.compile(rb"""(?:[^>"']|"[^"]*"|'[^']*')*>""")


def _parse_page(body: bytes, verb: str) -> tuple[list[HarvestedRecord], str | None]:
    """The records and resumptionToken of one page, in one expat pass.

    Identifiers, datestamps, deletion flags and the token come from text
    events. A record's metadata is the page's own bytes from the start tag
    of ``<metadata>``'s first child to the end of that child's end tag,
    decoded with the page's declared encoding; inside that child the
    handlers only count the bindings it opens, or, when it declares none,
    its elements. A namespace binding the child uses but an ancestor
    declares is added to its start tag (:func:`_declare_inherited`).
    """
    parser = expat.ParserCreate(namespace_separator="}")
    records: list[HarvestedRecord] = []
    token: str | None = None
    encoding = "utf-8"
    path: list[str] = []  # local names of the open elements outside fragments
    declared: list[tuple[str, str]] = []  # bindings the next element declares
    # the bindings in scope at each of the open elements at depths 0-2, the
    # ancestors a fragment has; an element that declares none shares its
    # parent's dict
    in_scope: list[dict[str, str]] = [{}, {}, {}]
    text: list[str] | None = None  # character data being collected
    rooted = False  # whether the root element has started
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
        nonlocal declared, ident, stamp, deleted, metadata, rooted
        local = name.rpartition("}")[2]
        level = len(path)
        if level < 3:
            outer = in_scope[level - 1] if level else {}
            in_scope[level] = outer | dict(declared) if declared else outer
        declared = []
        if level == 0:
            rooted = True
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
        inherited = {p: u for p, u in in_scope[2].items() if u and p not in own}
        if declared:
            # count open bindings instead of elements: expat then passes over
            # the elements inside without calling Python, and the root ends
            # when the last of its own bindings does
            depth = len(declared)
            parser.StartElementHandler = None
            parser.EndElementHandler = None
            parser.StartNamespaceDeclHandler = binding_start
            parser.EndNamespaceDeclHandler = binding_end
        else:
            depth = 1
            parser.StartElementHandler = inner_start
            parser.EndElementHandler = inner_end
        declared = []

    def inner_start(name, attrs):
        nonlocal depth
        depth += 1

    def inner_end(name):
        nonlocal depth
        depth -= 1
        if not depth:
            fragment_end()

    def binding_start(prefix, uri):
        nonlocal depth
        depth += 1

    def binding_end(prefix):
        nonlocal depth
        depth -= 1
        if not depth:
            fragment_end()

    def fragment_end():
        nonlocal metadata, declared
        # expat reports the end of an element at the "<" of its end tag; an
        # empty-element tag at its own start when no element handler is set
        # (binding_end), or else just after the tag (inner_end)
        end = parser.CurrentByteIndex
        if end == start:
            end = _TAG_END.match(body, start).end()
        elif not (
            body[end - 2 : end] == b"/>" and _TAG_END.match(body, start).end() == end
        ):
            end = body.index(b">", end) + 1
        fragment = body[start:end].decode(encoding)
        metadata = _declare_inherited(fragment, inherited) if inherited else fragment
        declared = []  # made inside the fragment
        parser.StartElementHandler = element_start
        parser.EndElementHandler = element_end
        parser.StartNamespaceDeclHandler = namespace
        parser.EndNamespaceDeclHandler = None

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
        error = PageCutShort if exc.code in _CUT_SHORT else ProtocolError
        raise error(f"response body does not parse as XML: {exc}") from exc
    except (LookupError, ValueError) as exc:
        # expat asks Python for an encoding it does not know itself while it
        # reads the XML declaration; no codec, or not a one-byte text codec
        if rooted:
            raise
        raise ProtocolError(f"unusable declared encoding {encoding!r}: {exc}") from exc
    return records, token


def _declare_inherited(fragment: str, inherited: dict[str, str]) -> str:
    """``fragment`` with the bindings of ``inherited`` (prefix to URI, ""
    for the default namespace) that it uses without declaring them itself
    added to its root's start tag, so that it means on its own what it meant
    in the page. A prefix is used when it names an element or an attribute,
    or begins an attribute value, which may be a QName."""
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
        for attr, value in attrs.items():
            prefix, colon, _ = attr.partition(":")
            if colon and prefix != "xmlns" and undeclared(prefix):
                used.add(prefix)
            prefix, colon, _ = value.partition(":")
            if colon and undeclared(prefix):
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
    retrying the same logical request; each page is retried
    :data:`MAX_RETRIES` times before the run fails with
    :class:`TransportFailure`, or with :class:`PageCutShort` when the last
    try was cut short. A token that repeats within the run would make it
    loop, so it fails with :class:`ProtocolError` instead, as does a run
    whose last :data:`MAX_EMPTY_PAGES` pages held no record.
    """
    report = HarvestReport()
    records: list[HarvestedRecord] = []
    seen: set[str] = set()
    empty = 0  # consecutive pages without a record
    started = time.monotonic()
    params = job.initial_params()
    while True:
        page, token = _fetch_page(job, transport, params, sleep, report)
        records.extend(page)
        report.pages += 1
        report.fetched = len(records)
        report.deleted += sum(1 for r in page if r.deleted)
        if token is None:
            break
        if token in seen:
            raise ProtocolError(f"resumptionToken {token!r} repeated")
        empty = 0 if page else empty + 1
        if empty == MAX_EMPTY_PAGES:
            raise ProtocolError(
                f"{empty} pages in a row held no record; the last "
                f"resumptionToken was {token!r}"
            )
        seen.add(token)
        params = [("verb", job.verb), ("resumptionToken", token)]
    report.elapsed = time.monotonic() - started
    return records, report


def _fetch_page(job, transport, params, sleep, report):
    attempts = failures = 0
    while True:
        try:
            resp = transport.request(params)
            if resp.status == 200:
                return _parse_page(resp.body, job.verb)
        except (TransportFailure, PageCutShort):
            attempts += 1
            if attempts > MAX_RETRIES:
                raise
            sleep(2.0**failures)
            failures += 1
            continue
        if resp.status != 503:
            raise ProtocolError(f"unexpected HTTP status {resp.status}")
        report.retries_503 += 1
        attempts += 1
        if attempts > MAX_RETRIES:
            raise TransportFailure("too many 503 replies")
        sleep(_retry_after_seconds(resp.headers.get("retry-after", "1")))


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


class HarvestStoreError(RuntimeError):
    """The harvest directory cannot be used."""


# an upsert that rewrites a known identifier's row in place; SQLite writes no
# page for a row rewritten with the bytes it already holds, so re-fetching an
# unchanged record writes nothing
_UPSERT = (
    "INSERT INTO entry VALUES (?, ?, ?, ?) ON CONFLICT (identifier) DO UPDATE "
    "SET datestamp = excluded.datestamp, deleted = excluded.deleted, "
    "metadata = excluded.metadata"
)
# a completed date never moves backward; days compare as YYYY-MM-DD text
_ADVANCE = (
    "INSERT INTO state VALUES (?, ?) ON CONFLICT (key) DO UPDATE "
    "SET day = max(day, excluded.day)"
)
# the tables of harvest.sqlite, made in one transaction: the newest entry per
# identifier, and the day each incremental harvest last completed
_SCHEMA = """
BEGIN;
CREATE TABLE IF NOT EXISTS entry (identifier TEXT PRIMARY KEY,
    datestamp TEXT, deleted INTEGER NOT NULL, metadata TEXT);
CREATE TABLE IF NOT EXISTS state (key TEXT PRIMARY KEY, day TEXT NOT NULL);
COMMIT;
"""


class HarvestState:
    """Per (baseURL, set, prefix) date of the last completed harvest, in
    table ``state`` of the database at ``path`` (in memory when None), each
    :meth:`advance` one durable transaction. Dates never move backward. A
    day that is not ``YYYY-MM-DD`` is refused on open, since a guessed date
    could skip records or fetch them all.

    Opening makes the database, its directory and both its tables if missing
    (:class:`HarvestStore` uses the other), under a rollback journal with
    ``synchronous=EXTRA``: a commit fsyncs the file, then the directory once
    the journal is deleted, so it survives a power loss once it returns.
    Raises :class:`HarvestStoreError` naming the file."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path if path is not None else ":memory:")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(self.path)
            self._db.execute("PRAGMA synchronous=EXTRA")
            self._db.executescript(_SCHEMA)
            days = self._db.execute("SELECT key, day FROM state").fetchall()
        except (OSError, sqlite3.Error) as exc:
            raise HarvestStoreError(f"cannot use {self.path}: {exc}") from exc
        for key, day in days:
            try:
                parse_datestamp(day)
            except (TypeError, ValueError):
                raise HarvestStoreError(
                    f"harvest state in {self.path}: {key!r} is not a "
                    f"YYYY-MM-DD date: {day!r}"
                ) from None

    @staticmethod
    def key(base_url: str, set_spec: str | None, prefix: str | None) -> str:
        return "\t".join([base_url, set_spec or "", prefix or ""])

    def last_completed(self, key: str) -> date | None:
        row = self._db.execute(
            "SELECT day FROM state WHERE key = ?", (key,)
        ).fetchone()
        return parse_datestamp(row[0]) if row else None

    def advance(self, key: str, day: date) -> None:
        try:
            with self._db:  # commits, or rolls back on any exception
                self._db.execute(_ADVANCE, (key, format_datestamp(day)))
        except sqlite3.Error as exc:
            raise HarvestStoreError(f"cannot write {self.path}: {exc}") from exc

    def close(self) -> None:
        self._db.close()


class HarvestStore(HarvestState):
    """The newest entry per identifier, beside the harvest state, in one
    SQLite database.

    ``harvest.sqlite`` in the harvest directory holds table ``entry``, keyed
    by identifier, with the record's datestamp (``YYYY-MM-DD`` or NULL), its
    deletion flag and its metadata (the provider's XML fragment or NULL),
    and the ``state`` table of :class:`HarvestState`, on the same
    connection. Each :meth:`upsert` is one durable transaction of inserts
    that replace a known identifier's entry: once it returns the records are
    on disk, and a process killed or an error raised partway leaves every
    entry as it was. Upserts are idempotent: re-fetching an identical record
    changes nothing observable. Text must be valid Unicode; the page parser
    only yields decoded text.
    """

    def __init__(self, directory: str | Path):
        super().__init__(Path(directory) / "harvest.sqlite")

    def upsert(self, records: list[HarvestedRecord]) -> None:
        rows = (
            (
                r.identifier,
                format_datestamp(r.datestamp) if r.datestamp else None,
                r.deleted,
                r.metadata,
            )
            for r in records
        )
        try:
            with self._db:  # commits, or rolls back on any exception
                self._db.executemany(_UPSERT, rows)
        except sqlite3.Error as exc:
            raise HarvestStoreError(f"cannot write {self.path}: {exc}") from exc

    def compact(self) -> None:
        """Nothing to fold: every upsert already commits in place. Kept only
        because the benchmark in ``bench/`` calls it."""

    def latest(self) -> dict[str, dict]:
        """identifier -> entry dict, in identifier order."""
        return {
            ident: {
                "identifier": ident,
                "datestamp": stamp,
                "deleted": bool(deleted),
                "metadata": metadata,
            }
            for ident, stamp, deleted, metadata in self._db.execute(
                "SELECT identifier, datestamp, deleted, metadata FROM entry "
                "ORDER BY identifier"
            )
        }


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
    overlap, or a full harvest when never run. State advances to ``today``,
    or to the job's ``until`` when that is earlier, only when the run
    completes; failures leave it untouched. A job whose ``until`` is before
    that ``from`` asks for nothing newer than what was harvested: it sends
    no request, returns no records and leaves the state as it is. A
    :class:`HarvestStore` may be passed as both ``state`` and ``store``.

    ``overlap_days=1`` is the safe default; ``overlap_days=-1`` starts the
    day after the last harvest, which loses same-day late updates (kept
    available so the race is demonstrable).
    """
    last = state.last_completed(state_key)
    job = job_template
    if last is not None:
        job = replace(job_template, from_=last - timedelta(days=overlap_days))
        if job.until is not None and job.until < job.from_:
            return [], HarvestReport()
    records, report = run(job, transport, sleep=sleep)
    if store is not None:
        store.upsert(records)
    state.advance(state_key, min(today, job.until or today))
    return records, report

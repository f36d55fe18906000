"""Request parsing, verb dispatch, pagination and XML response rendering
for the six harvesting-protocol verbs (plus the undocumented Document verb,
whose contract is an HTTP 400 with an HTML body).

Every XML response is assembled by :meth:`ProtocolHandler._render` as a
sequence of encoded parts: a head (XML declaration, root tag,
``responseDate``, ``requestURL``), the payload, and a tail (the
resumptionToken, if any, and the closing tag). A ListRecords page's
payload is its records' text, gathered into parts of about
:data:`PART_CHARS` characters and encoded one part at a time. Its parts are
a one-shot iterator that renders each part as it is asked for, so a page
is never held whole, only a few of its parts at a time. Every record of the
page is fetched (its abs file parsed on first use) before
:meth:`ProtocolHandler.handle` returns, so a record the store cannot read
makes the whole page a :class:`~eprint_oai.store.StoreError`, raised by
``handle``, and rendering it raises none. Every other response is a list of
parts, rendered before ``handle`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Callable, Iterable, Iterator, Sequence

from .config import RepositoryConfig
from .crosswalk import DEFAULT_FORMATS, FormatDescriptor, find_format, to_format
from .ids import (
    OAI_DELIMITER,
    OAI_SCHEME,
    MalformedIdentifier,
    TaxonomyConfig,
    format_datestamp,
    oai_prefix,
    parse_datestamp,
    parse_internal_id,
    parse_oai_identifier,
)
from .store import IndexEntry, Store
from .xmlwriter import NOT_XML_CHAR_RE, element, escape, open_tag

PROTOCOL_VERSION = "1.0"

# characters of payload text gathered before they are encoded as one part
# of a response: large enough that a 1 MB page goes out in about 16 sends,
# small enough that a page streamed part by part holds little at a time
PART_CHARS = 64 * 1024

# each verb: the ProtocolHandler method that answers it, its required
# arguments and its optional ones
_GRAMMAR: dict[str, tuple[str, tuple[str, ...], frozenset[str]]] = {
    "Identify": ("identify", (), frozenset()),
    "ListSets": ("list_sets", (), frozenset()),
    "ListMetadataFormats": ("list_metadata_formats", (), frozenset({"identifier"})),
    "GetRecord": ("get_record", ("identifier", "metadataPrefix"), frozenset()),
    "ListIdentifiers": ("list_identifiers", (), frozenset({"from", "until", "set"})),
    "ListRecords": (
        "list_records", ("metadataPrefix",), frozenset({"from", "until", "set"})
    ),
    "Document": ("document", (), frozenset()),
}

# the verbs that also take a resumptionToken, exclusive of all else
LIST_VERBS = frozenset({"ListIdentifiers", "ListRecords"})


class MalformedRequest(ValueError):
    """Any request the verb/argument grammar refuses; answered with 400."""


@dataclass(frozen=True)
class OaiRequest:
    verb: str
    arguments: dict[str, str]
    params: Sequence[tuple[str, str]]


@dataclass(frozen=True)
class ResumptionToken:
    """Continuation state for partial list responses.

    Serialized as the four fields joined by "_" in order (from, until, set,
    format tag), empty fields rendered empty: ``1992-05-01___`` resumes a
    ListIdentifiers scan or a header-only ListRecords one,
    ``1992-05-01___dc`` an ``oai_dc`` ListRecords one. Such a token
    resumes at the start of day ``from``. A page that ends inside a day
    adds a fifth field, the canonical id of its last record, and the next
    page resumes past that record on day ``from``. No field holds "_": a
    set token cannot (:class:`~eprint_oai.ids.TaxonomyConfig`), nor can a
    format tag or a canonical id.
    """

    next_from: date
    until: date | None = None
    set_spec: str | None = None
    format_tag: str | None = None
    after: str | None = None  # the canonical id the page ended with

    def encode(self) -> str:
        fields = [
            format_datestamp(self.next_from),
            format_datestamp(self.until) if self.until else "",
            self.set_spec or "",
            self.format_tag or "",
        ]
        if self.after is not None:
            fields.append(self.after)
        return "_".join(fields)

    @classmethod
    def decode(cls, text: str) -> "ResumptionToken":
        parts = text.split("_")
        if len(parts) not in (4, 5):
            raise MalformedRequest(f"bad resumptionToken: {text!r}")
        frm, until, set_spec, tag, *after = parts
        try:
            if after and parse_internal_id(after[0]).local() != after[0]:
                raise ValueError("not a canonical identifier")
            return cls(
                next_from=parse_datestamp(frm),
                until=parse_datestamp(until) if until else None,
                set_spec=set_spec or None,
                format_tag=tag or None,
                after=after[0] if after else None,
            )
        except ValueError as exc:
            raise MalformedRequest(f"bad resumptionToken: {text!r}") from exc


def _token_tag(fmt: FormatDescriptor | None) -> str | None:
    """A format's name inside a resumptionToken, its prefix without
    ``oai_`` (oai_dc -> dc); None, the empty field, for header-only."""
    return fmt.prefix.removeprefix("oai_") if fmt else None


def _format_for_tag(tag: str | None) -> FormatDescriptor | None:
    if tag is None:
        return None
    for fmt in DEFAULT_FORMATS:
        if _token_tag(fmt) == tag:
            return fmt
    raise MalformedRequest(f"unknown format tag in resumptionToken: {tag!r}")


@dataclass(frozen=True)
class VerbResponse:
    """A response as the encoded parts that are sent in order: a list, or
    for a ListRecords page a one-shot iterator that renders them."""

    http_status: int
    content_type: str
    parts: Iterable[bytes]
    retry_after: float | None = None

    @property
    def body(self) -> bytes:
        """The parts joined; a ListRecords page's body can be read once."""
        return b"".join(self.parts)


def parse_request(params: Sequence[tuple[str, str]]) -> OaiRequest:
    """Validate raw query/form arguments against the verb grammar."""
    seen: dict[str, str] = {}
    for key, value in params:
        if NOT_XML_CHAR_RE.search(key) or NOT_XML_CHAR_RE.search(value):
            raise MalformedRequest(f"argument {key!r} has a character XML forbids")
        if key in seen:
            raise MalformedRequest(f"repeated argument: {key}")
        seen[key] = value
    if "verb" not in seen:
        raise MalformedRequest("missing verb argument")
    verb = seen.pop("verb")
    if verb not in _GRAMMAR:
        raise MalformedRequest(f"unknown verb: {verb!r}")
    _, required, optional = _GRAMMAR[verb]
    legal = optional.union(required)
    if verb in LIST_VERBS:
        legal |= {"resumptionToken"}
    illegal = set(seen) - legal
    if illegal:
        raise MalformedRequest(f"illegal arguments for {verb}: {sorted(illegal)}")
    if "resumptionToken" in seen:
        others = set(seen) - {"resumptionToken"}
        if others:
            raise MalformedRequest(
                f"resumptionToken is exclusive of other arguments: {sorted(others)}"
            )
    else:
        for name in required:
            if name not in seen:
                raise MalformedRequest(f"{verb} requires {name}")
    return OaiRequest(verb=verb, arguments=seen, params=tuple(params))


def _text(lines: list[str]) -> str:
    """Lines as they stand in a response, each ended by a newline."""
    return "\n".join(lines) + "\n" if lines else ""


def _parts(head: bytes, payload: Iterable[str], tail: bytes) -> Iterator[bytes]:
    """``head``, the texts of ``payload`` gathered into parts of about
    :data:`PART_CHARS` characters and encoded, then ``tail``. The texts of a
    part are dropped before it is encoded, so that making a part holds at
    most two copies of it."""
    yield head
    pending: list[str] = []
    size = 0
    for text in payload:
        pending.append(text)
        size += len(text)
        if size >= PART_CHARS:
            part = "".join(pending)
            pending.clear()
            size = 0
            part = part.encode("utf-8")  # the text is not held while it is sent
            yield part
    if size:
        yield "".join(pending).encode("utf-8")
    yield tail


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


@dataclass
class ProtocolHandler:
    """Stateless verb dispatch over one store snapshot per request."""

    store: Store
    config: RepositoryConfig = field(default_factory=RepositoryConfig)
    clock: Callable[[], datetime] = _utc_now

    @property
    def taxonomy(self) -> TaxonomyConfig:
        return self.store.taxonomy

    # --- entry point ---------------------------------------------------

    def handle(self, params: Sequence[tuple[str, str]]) -> VerbResponse:
        try:
            return self.dispatch(parse_request(params))
        except MalformedRequest as exc:
            return self.bad_request(str(exc), params)

    def dispatch(self, request: OaiRequest) -> VerbResponse:
        return getattr(self, _GRAMMAR[request.verb][0])(request)

    # --- verbs -----------------------------------------------------------

    def identify(self, request: OaiRequest) -> VerbResponse:
        cfg = self.config
        lines = [
            element("repositoryName", cfg.repository_name, "  "),
            element("baseURL", cfg.base_url, "  "),
            element("protocolVersion", PROTOCOL_VERSION, "  "),
            element("adminEmail", cfg.admin_email, "  "),
            "  <description>",
            open_tag(
                "oai-identifier",
                "http://www.openarchives.org/OAI/oai-identifier",
                "http://www.openarchives.org/OAI/oai-identifier.xsd",
                "   ",
            ),
            element("scheme", OAI_SCHEME, "    "),
            element("repositoryIdentifier", cfg.repository_identifier, "    "),
            element("delimiter", OAI_DELIMITER, "    "),
            element("sampleIdentifier", cfg.sample_identifier, "    "),
            "   </oai-identifier>",
            "  </description>",
        ]
        if cfg.eprints is not None:
            ep = cfg.eprints
            lines.append("  <description>")
            lines.append(
                open_tag(
                    "eprints",
                    "http://www.openarchives.org/OAI/eprints",
                    "http://www.openarchives.org/OAI/eprints.xsd",
                    "   ",
                )
            )
            lines.append("    <content>")
            lines.append(element("text", ep.content, "     "))
            lines.append("    </content>")
            for tag, policy in (
                ("metadataPolicy", ep.metadata_policy),
                ("dataPolicy", ep.data_policy),
                ("submissionPolicy", ep.submission_policy),
            ):
                lines.append(f"    <{tag}>")
                lines.append(element("text", policy.text, "     "))
                if policy.url:
                    lines.append(element("URL", policy.url, "     "))
                lines.append(f"    </{tag}>")
            lines.append("   </eprints>")
            lines.append("  </description>")
        return self._render("Identify", request, [_text(lines)])

    def list_sets(self, request: OaiRequest) -> VerbResponse:
        lines = []
        for token, name in self.taxonomy.groups:
            lines.append("  <set>")
            lines.append(element("setSpec", token, "   "))
            lines.append(element("setName", name, "   "))
            lines.append("  </set>")
        return self._render("ListSets", request, [_text(lines)])

    def list_metadata_formats(self, request: OaiRequest) -> VerbResponse:
        listed: Sequence[FormatDescriptor] = DEFAULT_FORMATS
        ident = request.arguments.get("identifier")
        if ident is not None:
            try:
                eid = parse_oai_identifier(ident, self.config.repository_identifier)
            except MalformedIdentifier:
                listed = ()
            else:
                if self.store.get(eid) is None:
                    listed = ()
        lines = []
        for f in listed:
            lines.append("  <metadataFormat>")
            lines.append(element("metadataPrefix", f.prefix, "   "))
            lines.append(element("schema", f.schema, "   "))
            lines.append(element("metadataNamespace", f.namespace, "   "))
            lines.append("  </metadataFormat>")
        return self._render("ListMetadataFormats", request, [_text(lines)])

    def get_record(self, request: OaiRequest) -> VerbResponse:
        fmt = find_format(request.arguments["metadataPrefix"])
        prefix = oai_prefix(self.config.repository_identifier)
        text = self._record_text(request.arguments["identifier"], fmt, prefix)
        return self._render("GetRecord", request, [text])

    def _record_text(
        self, ident: str, fmt: FormatDescriptor | None, prefix: str
    ) -> str:
        """The four-outcome record rendering shared by GetRecord and
        ListRecords, as one text of lines each ended by a newline: absent
        (no text), deleted, header-only (``fmt`` None: no format has the
        requested prefix), or header+metadata. ``prefix`` is this
        repository's :func:`oai_prefix`."""
        try:
            eid = parse_oai_identifier(ident, self.config.repository_identifier)
        except MalformedIdentifier:
            return ""  # outcome 1: no such item, no <record> container
        entry = self.store.get(eid)
        if entry is None:
            return ""
        metadata = ""
        if entry.deleted:
            start = '  <record status="deleted">'
        else:
            start = "  <record>"
            if fmt is not None:
                lines = to_format(
                    entry.meta, entry.datestamp, fmt.prefix, self.taxonomy,
                    self.config.abs_url_prefix,
                )
                metadata = f"   <metadata>\n{_text(lines)}   </metadata>\n"
        return (
            f"{start}\n   <header>\n"
            f"    <identifier>{escape(prefix + entry.identifier)}</identifier>\n"
            f"    <datestamp>{format_datestamp(entry.datestamp)}</datestamp>\n"
            f"   </header>\n{metadata}  </record>\n"
        )

    # --- list verbs -------------------------------------------------------

    def _list_window(
        self, request: OaiRequest
    ) -> tuple[list[IndexEntry], ResumptionToken | None, FormatDescriptor | None]:
        """Resolve arguments or token into a scan window, a cursor and a
        format (None for header-only); read one page of at most
        ``page_size`` entries, and build the continuation token for the
        next page."""
        args = request.arguments
        after = None
        if "resumptionToken" in args:
            token = ResumptionToken.decode(args["resumptionToken"])
            from_, until, set_spec = token.next_from, token.until, token.set_spec
            if token.after is not None:
                after = (token.next_from, token.after)
            fmt = _format_for_tag(token.format_tag)
        else:
            try:
                from_ = parse_datestamp(args["from"]) if "from" in args else None
                until = parse_datestamp(args["until"]) if "until" in args else None
            except ValueError as exc:
                raise MalformedRequest(str(exc)) from exc
            set_spec = args.get("set")
            fmt = find_format(args.get("metadataPrefix", ""))
        if set_spec is not None and set_spec not in {
            t for t, _ in self.taxonomy.groups
        }:
            raise MalformedRequest(f"unknown set: {set_spec!r}")
        if from_ is not None and until is not None and from_ > until:
            raise MalformedRequest(f"bad range: from {from_} > until {until}")
        size = self.config.page_size
        # one entry past the page says whether, and where, a next page starts
        page = self.store.scan(from_, until, set_spec, after=after, limit=size + 1)
        if len(page) <= size:
            return page, None, fmt
        last, first_unreturned = page[size - 1], page[size]
        del page[size:]
        tag = _token_tag(fmt)
        if first_unreturned.datestamp > last.datestamp:
            token = ResumptionToken(first_unreturned.datestamp, until, set_spec, tag)
        else:
            token = ResumptionToken(
                last.datestamp, until, set_spec, tag, last.identifier
            )
        return page, token, fmt

    def list_identifiers(self, request: OaiRequest) -> VerbResponse:
        page, token, _ = self._list_window(request)
        prefix = oai_prefix(self.config.repository_identifier)
        lines = [element("identifier", prefix + e.identifier, "  ") for e in page]
        return self._render("ListIdentifiers", request, [_text(lines)], token)

    def list_records(self, request: OaiRequest) -> VerbResponse:
        page, token, fmt = self._list_window(request)
        prefix = oai_prefix(self.config.repository_identifier)
        # every record is read here, so that rendering the page cannot fail
        self.store.fetch(page)
        records = (self._record_text(prefix + e.identifier, fmt, prefix) for e in page)
        return self._render("ListRecords", request, records, token)

    def document(self, request: OaiRequest) -> VerbResponse:
        base = self.config.base_url
        samples = [
            "verb=Identify",
            "verb=ListSets",
            "verb=ListMetadataFormats",
            "verb=ListIdentifiers",
            "verb=ListRecords&metadataPrefix=oai_dc",
        ]
        items = "\n".join(
            f'  <li><a href="{escape(base)}?{escape(q)}">{escape(q)}</a></li>'
            for q in samples
        )
        body = (
            "<html><head><title>Harvesting interface</title></head>\n"
            "<body>\n"
            f"<h1>{escape(self.config.repository_name)} harvesting interface"
            "</h1>\n"
            f"<p>This service implements protocol version "
            f"{PROTOCOL_VERSION} at base URL "
            f"<code>{escape(base)}</code>. The Document verb is not part of "
            "the protocol, so this page is returned with HTTP status 400. "
            "Example requests:</p>\n"
            f"<ul>\n{items}\n</ul>\n"
            "</body></html>\n"
        )
        return VerbResponse(400, "text/html; charset=utf-8", [body.encode("utf-8")])

    # --- rendering --------------------------------------------------------

    def _response_date(self) -> str:
        now = self.clock()
        if now.tzinfo is None:
            now = now.replace(tzinfo=timezone.utc)
        return now.isoformat(timespec="seconds")

    def _request_url(self, params: Sequence[tuple[str, str]]) -> str:
        url = self.config.base_url
        if params:
            url += "?" + "&".join(f"{k}={v}" for k, v in params)
        return url

    def _render(
        self,
        verb: str,
        request: OaiRequest,
        payload: Iterable[str],
        token: ResumptionToken | None = None,
    ) -> VerbResponse:
        """The response to ``verb`` as encoded parts: the head, ``payload``
        (texts of whole lines) gathered into parts of about
        :data:`PART_CHARS` characters, and the tail. The head and tail are
        made now; a ListRecords page's payload is gathered and encoded only
        as its parts are iterated, every other verb's at once."""
        ns = f"http://www.openarchives.org/OAI/{PROTOCOL_VERSION}/OAI_{verb}"
        head = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            open_tag(verb, ns, f"{ns}.xsd", " "),
            element("responseDate", self._response_date(), "  "),
            element("requestURL", self._request_url(request.params), "  "),
        ]
        tail = f" </{verb}>\n"
        if token is not None:
            tail = element("resumptionToken", token.encode(), "  ") + "\n" + tail
        parts = _parts(_text(head).encode("utf-8"), payload, tail.encode("utf-8"))
        if verb != "ListRecords":
            parts = list(parts)
        return VerbResponse(200, "text/xml; charset=utf-8", parts)

    def bad_request(
        self, message: str, params: Sequence[tuple[str, str]]
    ) -> VerbResponse:
        """The HTML 400 page for a request the grammar refuses."""
        body = (
            "<html><body><h1>400 Malformed request</h1>\n"
            f"<p>{escape(message)}</p>\n"
            f"<p>Request: <code>{escape(self._request_url(params))}</code></p>\n"
            "</body></html>\n"
        )
        return VerbResponse(400, "text/html; charset=utf-8", [body.encode("utf-8")])

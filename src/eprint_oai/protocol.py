"""Request parsing, verb dispatch, pagination and XML response rendering
for the six harvesting-protocol verbs (plus the undocumented Document verb,
whose contract is an HTTP 400 with an HTML body).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Callable, Sequence

from .config import RepositoryConfig
from .crosswalk import DEFAULT_FORMATS, FormatDescriptor, find_format, to_format
from .ids import (
    MalformedIdentifier,
    TaxonomyConfig,
    format_datestamp,
    parse_datestamp,
    parse_oai_identifier,
)
from .store import IndexEntry, Store
from .xmlwriter import NOT_XML_CHAR_RE, element, escape, open_tag

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
    ``1992-05-01___dc`` an ``oai_dc`` ListRecords one.
    """

    next_from: date
    until: date | None = None
    set_spec: str | None = None
    format_tag: str | None = None

    def encode(self) -> str:
        parts = [
            format_datestamp(self.next_from),
            format_datestamp(self.until) if self.until else "",
            self.set_spec or "",
            self.format_tag or "",
        ]
        for p in parts[2:]:
            if "_" in p:
                raise ValueError(f"token field may not contain '_': {p!r}")
        return "_".join(parts)

    @classmethod
    def decode(cls, text: str) -> "ResumptionToken":
        parts = text.split("_")
        if len(parts) != 4:
            raise MalformedRequest(f"bad resumptionToken: {text!r}")
        frm, until, set_spec, tag = parts
        try:
            return cls(
                next_from=parse_datestamp(frm),
                until=parse_datestamp(until) if until else None,
                set_spec=set_spec or None,
                format_tag=tag or None,
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
    http_status: int
    content_type: str
    body: bytes
    retry_after: float | None = None


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


def _paginate(
    entries: list[IndexEntry], page_size: int
) -> tuple[list[IndexEntry], date | None]:
    """First page of at least ``page_size`` entries, extended to the end of
    a datestamp so date-granular tokens never split a day, plus the
    datestamp of the first unreturned entry (None when complete)."""
    if len(entries) <= page_size:
        return entries, None
    cut = page_size
    while cut < len(entries) and entries[cut].datestamp == entries[cut - 1].datestamp:
        cut += 1
    if cut == len(entries):
        return entries, None
    return entries[:cut], entries[cut].datestamp


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
            request = parse_request(params)
        except MalformedRequest as exc:
            return self.bad_request(str(exc), params)
        try:
            return self.dispatch(request)
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
            element("protocolVersion", cfg.protocol_version, "  "),
            element("adminEmail", cfg.admin_email, "  "),
            "  <description>",
            open_tag(
                "oai-identifier",
                "http://www.openarchives.org/OAI/oai-identifier",
                "http://www.openarchives.org/OAI/oai-identifier.xsd",
                "   ",
            ),
            element("scheme", cfg.scheme, "    "),
            element("repositoryIdentifier", cfg.repository_identifier, "    "),
            element("delimiter", cfg.delimiter, "    "),
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
        return self._render("Identify", lines, request)

    def list_sets(self, request: OaiRequest) -> VerbResponse:
        lines = []
        for token, name in self.taxonomy.groups:
            lines.append("  <set>")
            lines.append(element("setSpec", token, "   "))
            lines.append(element("setName", name, "   "))
            lines.append("  </set>")
        return self._render("ListSets", lines, request)

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
        return self._render("ListMetadataFormats", lines, request)

    def get_record(self, request: OaiRequest) -> VerbResponse:
        fmt = find_format(request.arguments["metadataPrefix"])
        lines = self._record_lines(request.arguments["identifier"], fmt)
        return self._render("GetRecord", lines, request)

    def _record_lines(self, ident: str, fmt: FormatDescriptor | None) -> list[str]:
        """The four-outcome record rendering shared by GetRecord and
        ListRecords: absent, deleted, header-only (``fmt`` None: no format
        has the requested prefix), or header+metadata."""
        try:
            eid = parse_oai_identifier(ident, self.config.repository_identifier)
        except MalformedIdentifier:
            return []  # outcome 1: no such item, no <record> container
        record = self.store.get(eid)
        if record is None:
            return []
        oai_id = f"oai:{self.config.repository_identifier}:{eid.local()}"
        header = [
            "   <header>",
            element("identifier", oai_id, "    "),
            element("datestamp", format_datestamp(record.datestamp), "    "),
            "   </header>",
        ]
        if record.deleted:
            return ['  <record status="deleted">', *header, "  </record>"]
        if fmt is None:
            return ["  <record>", *header, "  </record>"]
        fragment = to_format(
            record.meta,
            record.datestamp,
            fmt.prefix,
            self.taxonomy,
            self.config.abs_url_prefix,
        )
        return [
            "  <record>",
            *header,
            "   <metadata>",
            *fragment,
            "   </metadata>",
            "  </record>",
        ]

    # --- list verbs -------------------------------------------------------

    def _list_window(
        self, request: OaiRequest
    ) -> tuple[list[IndexEntry], ResumptionToken | None, FormatDescriptor | None]:
        """Resolve arguments or token into a scan window and a format (None
        for header-only), paginate, and build the continuation token for
        the next page."""
        args = request.arguments
        if "resumptionToken" in args:
            token = ResumptionToken.decode(args["resumptionToken"])
            from_, until, set_spec = token.next_from, token.until, token.set_spec
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
        entries = self.store.scan(from_, until, set_spec)
        page, next_from = _paginate(entries, self.config.page_size)
        next_token = None
        if next_from is not None:
            next_token = ResumptionToken(next_from, until, set_spec, _token_tag(fmt))
        return page, next_token, fmt

    def list_identifiers(self, request: OaiRequest) -> VerbResponse:
        page, token, _ = self._list_window(request)
        repo = self.config.repository_identifier
        lines = [
            element("identifier", f"oai:{repo}:{e.identifier}", "  ") for e in page
        ]
        if token is not None:
            lines.append(element("resumptionToken", token.encode(), "  "))
        return self._render("ListIdentifiers", lines, request)

    def list_records(self, request: OaiRequest) -> VerbResponse:
        page, token, fmt = self._list_window(request)
        repo = self.config.repository_identifier
        lines: list[str] = []
        for entry in page:
            lines += self._record_lines(f"oai:{repo}:{entry.identifier}", fmt)
        if token is not None:
            lines.append(element("resumptionToken", token.encode(), "  "))
        return self._render("ListRecords", lines, request)

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
            f"{escape(self.config.protocol_version)} at base URL "
            f"<code>{escape(base)}</code>. The Document verb is not part of "
            "the protocol, so this page is returned with HTTP status 400. "
            "Example requests:</p>\n"
            f"<ul>\n{items}\n</ul>\n"
            "</body></html>\n"
        )
        return VerbResponse(400, "text/html; charset=utf-8", body.encode("utf-8"))

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
        self, verb: str, payload_lines: list[str], request: OaiRequest
    ) -> VerbResponse:
        ns = f"http://www.openarchives.org/OAI/1.0/OAI_{verb}"
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            open_tag(verb, ns, f"{ns}.xsd", " "),
            element("responseDate", self._response_date(), "  "),
            element("requestURL", self._request_url(request.params), "  "),
            *payload_lines,
            f" </{verb}>",
        ]
        body = "\n".join(lines) + "\n"
        return VerbResponse(200, "text/xml; charset=utf-8", body.encode("utf-8"))

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
        return VerbResponse(400, "text/html; charset=utf-8", body.encode("utf-8"))

"""Conversion of native metadata to each disseminated metadata format.

:data:`DEFAULT_FORMATS` is the one registry; it holds four:

- ``oai_dc``      Dublin Core in XML
- ``oai_rfc1807`` RFC1807 bibliographic records in XML
- ``arXiv``       structured XML rendering of the native metadata
- ``arXivOld``    verbatim XML encoding of the native fields

Each :class:`FormatDescriptor` carries its renderer, which emits the XML
fragment as lines at the indentation a response gives them inside its
``<metadata>`` element. Every record converts to every registered format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from functools import cache
from typing import Callable

from .absfile import InternalMetadata
from .authors import AuthorName, display_name, parse_authors
from .ids import TaxonomyConfig, format_datestamp, table_rows
from .texmap import tex_to_utf8
from .xmlwriter import MARGIN, element, open_tag

class UnsupportedFormat(ValueError):
    """Requested metadataPrefix is not registered."""


_IN1 = MARGIN + " "
_IN2 = MARGIN + "  "
_IN3 = MARGIN + "   "


@dataclass(frozen=True)
class FormatDescriptor:
    prefix: str
    schema: str
    namespace: str
    # render(meta, datestamp, descriptor, taxonomy, abs_url_prefix) -> lines
    render: Callable[
        [InternalMetadata, date, "FormatDescriptor", TaxonomyConfig, str], list[str]
    ] = field(compare=False, repr=False)
    # the fragment's first line: the start tag of its root, which is named
    # after the prefix, with the namespace and schema location
    start_tag: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tag = open_tag(self.prefix, self.namespace, self.schema, MARGIN)
        object.__setattr__(self, "start_tag", tag)


# --- XML rendering -----------------------------------------------------------


def _authors(meta: InternalMetadata) -> tuple[AuthorName, ...]:
    """The record's parsed authors, parsed on the first call for its current
    ``authors_raw`` and kept on the record for every later format. Threads
    that fill the memo at once compute equal tuples, so none needs a lock."""
    memo = meta.authors_memo
    if memo is None or memo[0] is not meta.authors_raw:
        raw = meta.authors_raw
        memo = (raw, tuple(parse_authors(tex_to_utf8(raw))))
        meta.authors_memo = memo
    return memo[1]


def _render_dc(
    meta: InternalMetadata,
    datestamp: date,
    fmt: FormatDescriptor,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    lines = [
        fmt.start_tag,
        element("title", tex_to_utf8(meta.title), _IN1),
    ]
    lines += [element("creator", display_name(a), _IN1) for a in _authors(meta)]
    subject = taxonomy.subject_name(meta.id.archive, meta.id.subject_class)
    lines.append(element("subject", subject, _IN1))
    lines.append(element("description", tex_to_utf8(meta.abstract), _IN1))
    if meta.comments:
        comment = "Comment: " + tex_to_utf8(meta.comments)
        lines.append(element("description", comment, _IN1))
    lines += [
        element("date", format_datestamp(datestamp), _IN1),
        element("type", "e-print", _IN1),
        element("identifier", abs_url_prefix + meta.id.local(), _IN1),
        MARGIN + "</oai_dc>",
    ]
    return lines


def _render_rfc1807(
    meta: InternalMetadata,
    datestamp: date,
    fmt: FormatDescriptor,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    lines = [
        fmt.start_tag,
        element("bib-version", "CS-TR-v2.1", _IN1),
        element("id", meta.id.local(), _IN1),
        element("entry", format_datestamp(datestamp), _IN1),
        element("title", tex_to_utf8(meta.title), _IN1),
    ]
    lines += [element("author", display_name(a), _IN1) for a in _authors(meta)]
    lines.append(element("date", format_datestamp(meta.submission_dates[0][1]), _IN1))
    lines.append(element("abstract", tex_to_utf8(meta.abstract), _IN1))
    language = detect_language(meta.comments)
    if language:
        lines.append(element("language", language, _IN1))
    if meta.journal_ref:
        lines.append(element("other_access", tex_to_utf8(meta.journal_ref), _IN1))
    if meta.report_no:
        lines.append(element("report", tex_to_utf8(meta.report_no), _IN1))
    lines.append(MARGIN + "</oai_rfc1807>")
    return lines


def _render_arxiv(
    meta: InternalMetadata,
    datestamp: date,
    fmt: FormatDescriptor,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    """Structured test-bed format: parsed authors and per-version dates."""
    local = meta.id.local()
    lines = [
        fmt.start_tag,
        element("id", local, _IN1),
        element("title", tex_to_utf8(meta.title), _IN1),
        _IN1 + "<authors>",
    ]
    for a in _authors(meta):
        lines.append(_IN2 + "<author>")
        lines.append(element("keyname", a.keyname, _IN3))
        if a.forenames:
            lines.append(element("forenames", a.forenames, _IN3))
        if a.prefix:
            lines.append(element("prefix", a.prefix, _IN3))
        if a.suffix:
            lines.append(element("suffix", a.suffix, _IN3))
        if a.affiliation:
            lines.append(element("affiliation", a.affiliation, _IN3))
        lines.append(_IN2 + "</author>")
    lines.append(_IN1 + "</authors>")
    lines.append(element("primary-category", local.split("/")[0], _IN1))
    lines += [element("cross-list", ref, _IN1) for ref in meta.crosslists]
    if meta.comments:
        lines.append(element("comments", tex_to_utf8(meta.comments), _IN1))
    if meta.journal_ref:
        lines.append(element("journal-ref", tex_to_utf8(meta.journal_ref), _IN1))
    if meta.report_no:
        lines.append(element("report-no", tex_to_utf8(meta.report_no), _IN1))
    if meta.license:
        lines.append(element("license", meta.license, _IN1))
    lines.append(element("abstract", tex_to_utf8(meta.abstract), _IN1))
    lines += [
        f'{_IN1}<version number="{ver}"><date>{format_datestamp(d)}</date></version>'
        for ver, d in meta.submission_dates
    ]
    lines.append(element("datestamp", format_datestamp(datestamp), _IN1))
    lines.append(MARGIN + "</arXiv>")
    return lines


def _render_arxiv_old(
    meta: InternalMetadata,
    datestamp: date,
    fmt: FormatDescriptor,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    """Verbatim rendering: native field values untouched, TeX included."""
    lines = [
        fmt.start_tag,
        element("paper", meta.id.local(), _IN1),
    ]
    for ver, d in meta.submission_dates:
        key = "date" if ver == 1 else f"date-v{ver}"
        lines.append(element(key, format_datestamp(d), _IN1))
    lines.append(element("title", meta.title, _IN1))
    lines.append(element("authors", meta.authors_raw, _IN1))
    if meta.comments:
        lines.append(element("comments", meta.comments, _IN1))
    if meta.report_no:
        lines.append(element("report-no", meta.report_no, _IN1))
    if meta.journal_ref:
        lines.append(element("journal-ref", meta.journal_ref, _IN1))
    if meta.crosslists:
        lines.append(element("subj-class", ", ".join(meta.crosslists), _IN1))
    if meta.license:
        lines.append(element("license", meta.license, _IN1))
    lines.append(element("abstract", meta.abstract, _IN1))
    lines.append(MARGIN + "</arXivOld>")
    return lines


# registration order is the order ListMetadataFormats reports
DEFAULT_FORMATS: tuple[FormatDescriptor, ...] = (
    FormatDescriptor(
        "arXivOld",
        "http://arXiv.org/OAI/arXivOld.xsd",
        "http://arXiv.org/OAI/",
        _render_arxiv_old,
    ),
    FormatDescriptor(
        "arXiv", "http://arXiv.org/OAI/arXiv.xsd", "http://arXiv.org/OAI/", _render_arxiv
    ),
    FormatDescriptor(
        "oai_rfc1807",
        "http://www.openarchives.org/OAI/rfc1807.xsd",
        "http://info.internet.isi.edu:80/in-notes/rfc/files/rfc1807.txt",
        _render_rfc1807,
    ),
    FormatDescriptor(
        "oai_dc",
        "http://www.openarchives.org/OAI/dc.xsd",
        "http://purl.org/dc/elements/1.1/",
        _render_dc,
    ),
)


def find_format(prefix: str) -> FormatDescriptor | None:
    """The registered format with this metadataPrefix, or None."""
    for f in DEFAULT_FORMATS:
        if f.prefix == prefix:
            return f
    return None


# --- language detection -----------------------------------------------------

_LANGUAGE_RE = re.compile(r"\b[Ii]n\s+([A-Z][a-z]+)")


@cache
def _languages() -> dict[str, str]:
    """Lowercase language name -> ISO-639 code, from the bundled table."""
    return {name.lower(): code for _, (name, code) in table_rows("languages.tsv")}


def detect_language(comments: str | None) -> str | None:
    """Find an "in <Language>" declaration in a comments field and return
    the ISO-639 code, or None."""
    if not comments:
        return None
    for m in _LANGUAGE_RE.finditer(comments):
        code = _languages().get(m.group(1).lower())
        if code is not None:
            return code
    return None


def to_format(
    meta: InternalMetadata,
    datestamp: date,
    prefix: str,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    """Render one record's metadata payload in the requested format.

    Returns the XML fragment's lines exactly as GetRecord embeds them inside
    ``<metadata>``. Raises :class:`UnsupportedFormat` for unregistered
    prefixes.
    """
    fmt = find_format(prefix)
    if fmt is None:
        raise UnsupportedFormat(prefix)
    return fmt.render(meta, datestamp, fmt, taxonomy, abs_url_prefix)

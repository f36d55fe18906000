"""Conversion of native metadata to each disseminated metadata format.

:data:`DEFAULT_FORMATS` is the one registry; it holds four:

- ``oai_dc``      Dublin Core in XML
- ``oai_rfc1807`` RFC1807 bibliographic records in XML
- ``arXiv``       structured XML rendering of the native metadata
- ``arXivOld``    verbatim XML encoding of the native fields

Each :class:`FormatDescriptor` carries the function that gives its format's
elements, at the indentation a response gives them inside ``<metadata>``;
:func:`to_format` frames them in the fragment's root, one way for every
format. Every record converts to every registered format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from functools import cache
from typing import Callable, Iterator

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
    # elements(meta, datestamp, taxonomy, abs_url_prefix): the lines inside
    # the root, each element at the _IN1 margin
    elements: Callable[..., Iterator[str]] = field(compare=False, repr=False)
    # the fragment's first line: the start tag of its root, which is named
    # after the prefix, with the namespace and schema location
    start_tag: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tag = open_tag(self.prefix, self.namespace, self.schema, MARGIN)
        object.__setattr__(self, "start_tag", tag)


# --- elements of each format -------------------------------------------------


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


def _dc(
    meta: InternalMetadata, datestamp: date, taxonomy: TaxonomyConfig, url_prefix: str
) -> Iterator[str]:
    yield element("title", tex_to_utf8(meta.title), _IN1)
    for a in _authors(meta):
        yield element("creator", display_name(a), _IN1)
    subject = taxonomy.subject_name(meta.id.archive, meta.id.subject_class)
    yield element("subject", subject, _IN1)
    yield element("description", tex_to_utf8(meta.abstract), _IN1)
    if meta.comments:
        yield element("description", "Comment: " + tex_to_utf8(meta.comments), _IN1)
    yield element("date", format_datestamp(datestamp), _IN1)
    yield element("type", "e-print", _IN1)
    yield element("identifier", url_prefix + meta.id.local(), _IN1)


def _rfc1807(
    meta: InternalMetadata, datestamp: date, taxonomy: TaxonomyConfig, url_prefix: str
) -> Iterator[str]:
    yield element("bib-version", "CS-TR-v2.1", _IN1)
    yield element("id", meta.id.local(), _IN1)
    yield element("entry", format_datestamp(datestamp), _IN1)
    yield element("title", tex_to_utf8(meta.title), _IN1)
    for a in _authors(meta):
        yield element("author", display_name(a), _IN1)
    yield element("date", format_datestamp(meta.submission_dates[0][1]), _IN1)
    yield element("abstract", tex_to_utf8(meta.abstract), _IN1)
    language = detect_language(meta.comments)
    if language:
        yield element("language", language, _IN1)
    if meta.journal_ref:
        yield element("other_access", tex_to_utf8(meta.journal_ref), _IN1)
    if meta.report_no:
        yield element("report", tex_to_utf8(meta.report_no), _IN1)


def _arxiv(
    meta: InternalMetadata, datestamp: date, taxonomy: TaxonomyConfig, url_prefix: str
) -> Iterator[str]:
    """Structured test-bed format: parsed authors and per-version dates."""
    local = meta.id.local()
    yield element("id", local, _IN1)
    yield element("title", tex_to_utf8(meta.title), _IN1)
    yield _IN1 + "<authors>"
    for a in _authors(meta):
        yield _IN2 + "<author>"
        yield element("keyname", a.keyname, _IN3)
        if a.forenames:
            yield element("forenames", a.forenames, _IN3)
        if a.prefix:
            yield element("prefix", a.prefix, _IN3)
        if a.suffix:
            yield element("suffix", a.suffix, _IN3)
        if a.affiliation:
            yield element("affiliation", a.affiliation, _IN3)
        yield _IN2 + "</author>"
    yield _IN1 + "</authors>"
    yield element("primary-category", local.split("/")[0], _IN1)
    for ref in meta.crosslists:
        yield element("cross-list", ref, _IN1)
    if meta.comments:
        yield element("comments", tex_to_utf8(meta.comments), _IN1)
    if meta.journal_ref:
        yield element("journal-ref", tex_to_utf8(meta.journal_ref), _IN1)
    if meta.report_no:
        yield element("report-no", tex_to_utf8(meta.report_no), _IN1)
    if meta.license:
        yield element("license", meta.license, _IN1)
    yield element("abstract", tex_to_utf8(meta.abstract), _IN1)
    for ver, d in meta.submission_dates:
        day = format_datestamp(d)
        yield f'{_IN1}<version number="{ver}"><date>{day}</date></version>'
    yield element("datestamp", format_datestamp(datestamp), _IN1)


def _arxiv_old(
    meta: InternalMetadata, datestamp: date, taxonomy: TaxonomyConfig, url_prefix: str
) -> Iterator[str]:
    """Verbatim rendering: native field values untouched, TeX included."""
    yield element("paper", meta.id.local(), _IN1)
    for ver, d in meta.submission_dates:
        key = "date" if ver == 1 else f"date-v{ver}"
        yield element(key, format_datestamp(d), _IN1)
    yield element("title", meta.title, _IN1)
    yield element("authors", meta.authors_raw, _IN1)
    if meta.comments:
        yield element("comments", meta.comments, _IN1)
    if meta.report_no:
        yield element("report-no", meta.report_no, _IN1)
    if meta.journal_ref:
        yield element("journal-ref", meta.journal_ref, _IN1)
    if meta.crosslists:
        yield element("subj-class", ", ".join(meta.crosslists), _IN1)
    if meta.license:
        yield element("license", meta.license, _IN1)
    yield element("abstract", meta.abstract, _IN1)


# registration order is the order ListMetadataFormats reports
DEFAULT_FORMATS: tuple[FormatDescriptor, ...] = (
    FormatDescriptor(
        "arXivOld",
        "http://arXiv.org/OAI/arXivOld.xsd",
        "http://arXiv.org/OAI/",
        _arxiv_old,
    ),
    FormatDescriptor(
        "arXiv", "http://arXiv.org/OAI/arXiv.xsd", "http://arXiv.org/OAI/", _arxiv
    ),
    FormatDescriptor(
        "oai_rfc1807",
        "http://www.openarchives.org/OAI/rfc1807.xsd",
        "http://info.internet.isi.edu:80/in-notes/rfc/files/rfc1807.txt",
        _rfc1807,
    ),
    FormatDescriptor(
        "oai_dc",
        "http://www.openarchives.org/OAI/dc.xsd",
        "http://purl.org/dc/elements/1.1/",
        _dc,
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
    ``<metadata>``: the root's start tag, the format's elements and the
    root's end tag. Raises :class:`UnsupportedFormat` for unregistered
    prefixes.
    """
    fmt = find_format(prefix)
    if fmt is None:
        raise UnsupportedFormat(prefix)
    lines = [fmt.start_tag]
    lines += fmt.elements(meta, datestamp, taxonomy, abs_url_prefix)
    lines.append(f"{MARGIN}</{prefix}>")
    return lines

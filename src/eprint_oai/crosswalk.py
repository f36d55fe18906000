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
from importlib import resources
from typing import Callable

from .absfile import InternalMetadata
from .authors import AuthorName, display_name, parse_authors
from .ids import TaxonomyConfig, format_datestamp
from .texmap import tex_to_utf8
from .xmlwriter import block_element, open_tag

DEFAULT_ABS_URL_PREFIX = "http://arXiv.org/abs/"


class UnsupportedFormat(ValueError):
    """Requested metadataPrefix is not registered."""


@dataclass(frozen=True)
class FormatDescriptor:
    prefix: str
    schema: str
    namespace: str
    # render(meta, datestamp, descriptor, taxonomy, abs_url_prefix) -> lines
    render: Callable[
        [InternalMetadata, date, "FormatDescriptor", TaxonomyConfig, str], list[str]
    ] = field(compare=False, repr=False)


# --- XML rendering -----------------------------------------------------------

# a fragment's lines sit inside a response's <metadata> element
_MARGIN = "    "
_IN1 = _MARGIN + " "
_IN2 = _MARGIN + "  "
_IN3 = _MARGIN + "   "


def _line(name: str, text: str, indent: str = _IN1) -> str:
    return block_element(name, text, indent, _MARGIN)


def _authors(meta: InternalMetadata) -> list[AuthorName]:
    return parse_authors(tex_to_utf8(meta.authors_raw))


def _render_dc(
    meta: InternalMetadata,
    datestamp: date,
    fmt: FormatDescriptor,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str,
) -> list[str]:
    lines = [
        open_tag("oai_dc", fmt.namespace, fmt.schema, _MARGIN),
        _line("title", tex_to_utf8(meta.title)),
    ]
    lines += [_line("creator", display_name(a)) for a in _authors(meta)]
    subject = taxonomy.subject_name(meta.id.archive, meta.id.subject_class)
    lines.append(_line("subject", subject))
    lines.append(_line("description", tex_to_utf8(meta.abstract)))
    if meta.comments:
        lines.append(_line("description", "Comment: " + tex_to_utf8(meta.comments)))
    lines += [
        _line("date", format_datestamp(datestamp)),
        _line("type", "e-print"),
        _line("identifier", abs_url_prefix + meta.id.local()),
        _MARGIN + "</oai_dc>",
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
        open_tag("oai_rfc1807", fmt.namespace, fmt.schema, _MARGIN),
        _line("bib-version", "CS-TR-v2.1"),
        _line("id", meta.id.local()),
        _line("entry", format_datestamp(datestamp)),
        _line("title", tex_to_utf8(meta.title)),
    ]
    lines += [_line("author", display_name(a)) for a in _authors(meta)]
    lines.append(_line("date", format_datestamp(meta.submission_dates[0][1])))
    lines.append(_line("abstract", tex_to_utf8(meta.abstract)))
    language = detect_language(meta.comments)
    if language:
        lines.append(_line("language", language))
    if meta.journal_ref:
        lines.append(_line("other_access", tex_to_utf8(meta.journal_ref)))
    if meta.report_no:
        lines.append(_line("report", tex_to_utf8(meta.report_no)))
    lines.append(_MARGIN + "</oai_rfc1807>")
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
        open_tag("arXiv", fmt.namespace, fmt.schema, _MARGIN),
        _line("id", local),
        _line("title", tex_to_utf8(meta.title)),
        _IN1 + "<authors>",
    ]
    for a in _authors(meta):
        lines.append(_IN2 + "<author>")
        lines.append(_line("keyname", a.keyname, _IN3))
        if a.forenames:
            lines.append(_line("forenames", a.forenames, _IN3))
        if a.prefix:
            lines.append(_line("prefix", a.prefix, _IN3))
        if a.suffix:
            lines.append(_line("suffix", a.suffix, _IN3))
        if a.affiliation:
            lines.append(_line("affiliation", a.affiliation, _IN3))
        lines.append(_IN2 + "</author>")
    lines.append(_IN1 + "</authors>")
    lines.append(_line("primary-category", local.split("/")[0]))
    lines += [_line("cross-list", ref) for ref in meta.crosslists]
    if meta.comments:
        lines.append(_line("comments", tex_to_utf8(meta.comments)))
    if meta.journal_ref:
        lines.append(_line("journal-ref", tex_to_utf8(meta.journal_ref)))
    if meta.report_no:
        lines.append(_line("report-no", tex_to_utf8(meta.report_no)))
    if meta.license:
        lines.append(_line("license", meta.license))
    lines.append(_line("abstract", tex_to_utf8(meta.abstract)))
    lines += [
        f'{_IN1}<version number="{ver}"><date>{format_datestamp(d)}</date></version>'
        for ver, d in meta.submission_dates
    ]
    lines.append(_line("datestamp", format_datestamp(datestamp)))
    lines.append(_MARGIN + "</arXiv>")
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
        open_tag("arXivOld", fmt.namespace, fmt.schema, _MARGIN),
        _line("paper", meta.id.local()),
    ]
    for ver, d in meta.submission_dates:
        key = "date" if ver == 1 else f"date-v{ver}"
        lines.append(_line(key, format_datestamp(d)))
    lines.append(_line("title", meta.title))
    lines.append(_line("authors", meta.authors_raw))
    if meta.comments:
        lines.append(_line("comments", meta.comments))
    if meta.report_no:
        lines.append(_line("report-no", meta.report_no))
    if meta.journal_ref:
        lines.append(_line("journal-ref", meta.journal_ref))
    if meta.crosslists:
        lines.append(_line("subj-class", ", ".join(meta.crosslists)))
    if meta.license:
        lines.append(_line("license", meta.license))
    lines.append(_line("abstract", meta.abstract))
    lines.append(_MARGIN + "</arXivOld>")
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

_LANGUAGE_TABLE: dict[str, str] | None = None
_LANGUAGE_RE = re.compile(r"\b[Ii]n\s+([A-Z][a-z]+)")


def load_languages() -> dict[str, str]:
    text = resources.files("eprint_oai.data").joinpath("languages.tsv").read_text()
    table = {}
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, code = line.split("\t")
        table[name.lower()] = code
    return table


def detect_language(comments: str | None) -> str | None:
    """Find an "in <Language>" declaration in a comments field and return
    the ISO-639 code, or None."""
    if not comments:
        return None
    global _LANGUAGE_TABLE
    if _LANGUAGE_TABLE is None:
        _LANGUAGE_TABLE = load_languages()
    for m in _LANGUAGE_RE.finditer(comments):
        code = _LANGUAGE_TABLE.get(m.group(1).lower())
        if code is not None:
            return code
    return None


def to_format(
    meta: InternalMetadata,
    datestamp: date,
    prefix: str,
    taxonomy: TaxonomyConfig,
    abs_url_prefix: str = DEFAULT_ABS_URL_PREFIX,
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

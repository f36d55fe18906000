"""Plain-text per-record metadata files ("abs files").

Format: a header of ``Key: value`` lines, a separator line containing
exactly ``\\\\``, then the abstract running to end of file. Continuation
lines begin with two spaces. ``Date:`` holds the first submission date;
later versions add ``Date (vN):`` lines with contiguous N starting at 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date

from .ids import EprintId, parse_datestamp, parse_internal_id, parse_archive_ref

SEPARATOR = "\\\\"

_HEADER_RE = re.compile(r"^([A-Za-z-]+(?: \(v\d+\))?):\s?(.*)$")
_DATE_KEY_RE = re.compile(r"^Date(?: \(v(?P<ver>[2-9]\d*)\))?$")
_KNOWN_KEYS = {
    "Paper",
    "From",
    "Title",
    "Authors",
    "Comments",
    "Report-no",
    "Journal-ref",
    "Subj-class",
    "License",
}


class AbsParseError(ValueError):
    """Raised with a line diagnostic when an abs file is malformed."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(slots=True)
class InternalMetadata:
    """Native metadata for one e-print (latest version)."""

    id: EprintId
    title: str
    authors_raw: str
    abstract: str
    submission_dates: list[tuple[int, date]]
    crosslists: list[str] = field(default_factory=list)
    comments: str | None = None
    journal_ref: str | None = None
    report_no: str | None = None
    license: str | None = None
    submitter: str | None = None
    # (the authors_raw it was made from, its parsed authors), set by the
    # crosswalk on first use; a stale pair is never served (crosswalk._authors)
    authors_memo: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.title.strip():
            raise ValueError("title must be non-empty")
        if not self.abstract.strip():
            raise ValueError("abstract must be non-empty")
        if not self.submission_dates:
            raise ValueError("at least one submission date required")
        versions = [v for v, _ in self.submission_dates]
        if versions != list(range(1, len(versions) + 1)):
            raise ValueError(f"versions must be contiguous from 1, got {versions}")
        for ref in self.crosslists:
            parse_archive_ref(ref)


def parse_abs(data: bytes | str) -> InternalMetadata:
    """Parse abs-file bytes into :class:`InternalMetadata`."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise AbsParseError(f"not valid UTF-8: {exc}") from exc
    else:
        text = data

    lines = text.splitlines()
    fields: dict[str, str] = {}
    dates: dict[int, date] = {}
    current_key: str | None = None
    body_start: int | None = None

    for i, line in enumerate(lines):
        if line == SEPARATOR:
            body_start = i + 1
            break
        if line.startswith("  ") and current_key is not None:
            fields[current_key] += " " + line.strip()
            continue
        m = _HEADER_RE.match(line)
        if m is None:
            raise AbsParseError(f"expected 'Key: value', got {line!r}", i + 1)
        key, value = m.groups()
        value = value.strip()
        dm = _DATE_KEY_RE.match(key) if key.startswith("Date") else None
        if dm:
            ver = int(dm.group("ver") or 1)
            if ver in dates:
                raise AbsParseError(f"duplicate Date line for v{ver}", i + 1)
            try:
                dates[ver] = parse_datestamp(value)
            except ValueError as exc:
                raise AbsParseError(str(exc), i + 1) from exc
            current_key = None
        else:
            if key not in _KNOWN_KEYS:
                raise AbsParseError(f"unknown header key {key!r}", i + 1)
            if key in fields:
                raise AbsParseError(f"duplicate header key {key!r}", i + 1)
            fields[key] = value
            current_key = key

    if body_start is None:
        raise AbsParseError(f"missing {SEPARATOR!r} separator line")
    abstract = "\n".join(lines[body_start:]).strip()

    for required in ("Paper", "Title", "Authors"):
        if required not in fields:
            raise AbsParseError(f"missing {required} line")
    if not dates:
        raise AbsParseError("missing Date line")
    if not abstract:
        raise AbsParseError("empty abstract body")

    eid = parse_internal_id(fields["Paper"])
    crosslists = [
        ref.strip()
        for ref in fields.get("Subj-class", "").split(",")
        if ref.strip()
    ]
    try:
        return InternalMetadata(
            id=eid.without_version(),
            title=fields["Title"],
            authors_raw=fields["Authors"],
            abstract=abstract,
            submission_dates=sorted(dates.items()),
            crosslists=crosslists,
            comments=fields.get("Comments"),
            journal_ref=fields.get("Journal-ref"),
            report_no=fields.get("Report-no"),
            license=fields.get("License"),
            submitter=fields.get("From"),
        )
    except ValueError as exc:
        raise AbsParseError(str(exc)) from exc


def format_abs(meta: InternalMetadata) -> str:
    """Serialize metadata back to abs-file text (inverse of :func:`parse_abs`
    up to continuation-line folding)."""
    out = [f"Paper: {meta.id.local()}"]
    if meta.submitter:
        out.append(f"From: {meta.submitter}")
    for ver, d in meta.submission_dates:
        key = "Date" if ver == 1 else f"Date (v{ver})"
        out.append(f"{key}: {d.isoformat()}")
    out.append(f"Title: {meta.title}")
    out.append(f"Authors: {meta.authors_raw}")
    if meta.comments:
        out.append(f"Comments: {meta.comments}")
    if meta.report_no:
        out.append(f"Report-no: {meta.report_no}")
    if meta.journal_ref:
        out.append(f"Journal-ref: {meta.journal_ref}")
    if meta.crosslists:
        out.append(f"Subj-class: {', '.join(meta.crosslists)}")
    if meta.license:
        out.append(f"License: {meta.license}")
    out.append(SEPARATOR)
    out.append(meta.abstract)
    return "\n".join(out) + "\n"

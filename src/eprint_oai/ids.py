"""Identifier grammar, datestamps, set membership and the bundled tables.

E-print identifiers have the internal form ``arch-ive[.SC]/YYMMNNN[vN]``
and the harvesting-protocol form ``oai:<repository>:arch-ive[.SC]/YYMMNNN``.
Only the latest version of an e-print is exposed through the protocol, so
the OAI form never carries a version suffix.

A set is its taxonomy group token, a plain string. That token and the
repository identifier are written into responses as they are and must come
back unchanged in a harvester's arguments, so both are checked when they
load (:func:`check_advertised`) rather than altered when they are written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from importlib import resources
from typing import Iterator


class MalformedIdentifier(ValueError):
    """Raised when an identifier string does not match the grammar."""


class SerialOverflow(ValueError):
    """Raised when a serial number would exceed the 3-digit limit (999/month)."""


class UnknownArchive(ValueError):
    """Raised when an archive name is not registered in the taxonomy."""


# every pattern here is ASCII and applied with fullmatch: "\d" would admit
# other scripts' digits (which int() accepts) and "$" a trailing newline.
# archive: lowercase letters and hyphens, 2-16 chars, no leading/trailing hyphen
_ARCHIVE = r"[a-z][a-z-]{0,14}[a-z]"
_ID_RE = re.compile(
    rf"(?P<archive>{_ARCHIVE})"
    r"(?:\.(?P<sc>[A-Z]{2}))?"
    r"/(?P<yymm>[0-9]{4})(?P<num>[0-9]{3})"
    r"(?:v(?P<ver>[1-9][0-9]*))?"
)
# same shape but with an over-long serial, to give a distinct diagnostic
_OVERFLOW_RE = re.compile(
    rf"{_ARCHIVE}(?:\.[A-Z]{{2}})?/[0-9]{{4}}[0-9]{{4,}}(?:v[1-9][0-9]*)?"
)

_ARCHIVE_REF_RE = re.compile(rf"(?P<archive>{_ARCHIVE})(?:\.(?P<sc>[A-Z]{{2}}))?")
_ARCHIVE_NAME_RE = re.compile(_ARCHIVE)
_SUBJECT_CLASS_RE = re.compile(r"[A-Z]{2}")


@dataclass(frozen=True, order=True, slots=True)
class EprintId:
    """Structured internal identifier for one e-print."""

    archive: str
    yymm: int
    number: int
    subject_class: str | None = field(default=None, kw_only=True)
    version: int | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if not _ARCHIVE_NAME_RE.fullmatch(self.archive):
            raise MalformedIdentifier(f"bad archive name: {self.archive!r}")
        if self.subject_class is not None and not _SUBJECT_CLASS_RE.fullmatch(
            self.subject_class
        ):
            raise MalformedIdentifier(
                f"subject-class must be 2 uppercase letters: {self.subject_class!r}"
            )
        month = self.yymm % 100
        if not (0 <= self.yymm <= 9999) or not (1 <= month <= 12):
            raise MalformedIdentifier(f"yymm {self.yymm:04d} has invalid month")
        if not (1 <= self.number <= 999):
            raise MalformedIdentifier(
                f"serial {self.number} out of range 001-999 (000 is never used)"
            )
        if self.version is not None and self.version < 1:
            raise MalformedIdentifier(f"bad version: {self.version}")

    def local(self) -> str:
        """Canonical rendering without the version suffix."""
        arch = self.archive
        if self.subject_class:
            arch = f"{arch}.{self.subject_class}"
        return f"{arch}/{self.yymm:04d}{self.number:03d}"

    def without_version(self) -> "EprintId":
        if self.version is None:
            return self
        return EprintId(
            self.archive,
            self.yymm,
            self.number,
            subject_class=self.subject_class,
        )

    def __str__(self) -> str:
        text = self.local()
        if self.version is not None:
            text += f"v{self.version}"
        return text


def parse_internal_id(text: str) -> EprintId:
    """Parse ``arch-ive[.SC]/YYMMNNN[vN]`` into an :class:`EprintId`."""
    m = _ID_RE.fullmatch(text)
    if m is None:
        if _OVERFLOW_RE.fullmatch(text):
            raise SerialOverflow(f"serial number exceeds 999 in {text!r}")
        raise MalformedIdentifier(f"not a valid e-print identifier: {text!r}")
    ver = m.group("ver")
    return EprintId(
        m.group("archive"),
        int(m.group("yymm")),
        int(m.group("num")),
        subject_class=m.group("sc"),
        version=int(ver) if ver else None,
    )


class WrongRepository(MalformedIdentifier):
    pass


# the oai-identifier syntax, <scheme>:<repository>:<local>, that Identify
# advertises and parse_oai_identifier accepts
OAI_SCHEME = "oai"
OAI_DELIMITER = ":"


def oai_prefix(repository: str) -> str:
    """What precedes the local part of each of ``repository``'s oai
    identifiers: ``oai:<repository>:``."""
    return f"{OAI_SCHEME}{OAI_DELIMITER}{repository}{OAI_DELIMITER}"


def parse_oai_identifier(text: str, repository: str = "arXiv") -> EprintId:
    """Parse ``oai:<repository>:<local>`` for this repository; the OAI form
    of an e-print is its :meth:`EprintId.local` rendering, without version."""
    parts = text.split(OAI_DELIMITER, 2)
    if len(parts) != 3:
        raise MalformedIdentifier(f"not an oai identifier: {text!r}")
    scheme, repo, local = parts
    if scheme != OAI_SCHEME:
        raise MalformedIdentifier(f"expected scheme {OAI_SCHEME!r}, got {scheme!r}")
    if repo != repository:
        raise WrongRepository(f"expected repository {repository!r}, got {repo!r}")
    eid = parse_internal_id(local)
    if eid.version is not None:
        raise MalformedIdentifier("oai identifiers never carry a version suffix")
    return eid


def parse_archive_ref(text: str) -> tuple[str, str | None]:
    """Parse a cross-list reference such as ``hep-ph`` or ``math.SG``."""
    m = _ARCHIVE_REF_RE.fullmatch(text)
    if m is None:
        raise MalformedIdentifier(f"not an archive[.SC] reference: {text!r}")
    return m.group("archive"), m.group("sc")


# an identifier this repository advertises and answers to, a set token or
# the repository identifier: RFC 2396's unreserved characters, the class of
# OAI-PMH 2.0's setSpec grammar; none needs escaping in XML or in a URL
_ADVERTISED_RE = re.compile(r"[A-Za-z0-9\-_.!~*'()]+")


def check_advertised(what: str, text: str) -> None:
    """Raise ValueError unless ``text`` may be advertised as an identifier:
    one or more of ``A-Z a-z 0-9 - _ . ! ~ * ' ( )``."""
    if not _ADVERTISED_RE.fullmatch(text):
        raise ValueError(
            f"{what} may hold only A-Z a-z 0-9 - _ . ! ~ * ' ( ): {text!r}"
        )


# --- datestamps ------------------------------------------------------------

def format_datestamp(d: date) -> str:
    return d.isoformat()


_DATESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_datestamp(text: str) -> date:
    if not _DATESTAMP_RE.fullmatch(text):
        raise ValueError(f"datestamp must be YYYY-MM-DD: {text!r}")
    y, m, d = map(int, text.split("-"))
    return date(y, m, d)


# --- sets and taxonomy -----------------------------------------------------


@dataclass(frozen=True)
class TaxonomyConfig:
    """Subject taxonomy: groups, archive membership and display names.

    ``groups`` preserves configuration order, which is also the order sets
    are listed in protocol responses.
    """

    groups: tuple[tuple[str, str], ...]
    archive_group: dict[str, str]
    archive_display: dict[str, str]
    mandatory_subject_class: frozenset[str]
    subject_display: dict[str, str]

    def __post_init__(self) -> None:
        tokens = [t for t, _ in self.groups]
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate group tokens in taxonomy")
        for token in tokens:
            # "_" separates a resumptionToken's fields, set among them
            if "_" in token:
                raise ValueError(f"group token may not contain '_': {token!r}")
            check_advertised("group token", token)
        known = set(tokens)
        for arch, grp in self.archive_group.items():
            if grp not in known:
                raise ValueError(f"archive {arch!r} maps to unknown group {grp!r}")

    def group_of(self, archive: str) -> str:
        try:
            return self.archive_group[archive]
        except KeyError:
            raise UnknownArchive(f"archive not registered: {archive!r}") from None

    def subject_name(self, archive: str, subject_class: str | None) -> str:
        """Display name of the primary subject: the subject-class name when
        present, otherwise the archive name."""
        if subject_class is not None:
            key = f"{archive}.{subject_class}"
            if key in self.subject_display:
                return self.subject_display[key]
        return self.archive_display.get(archive, archive)


def sets_for(
    primary: EprintId,
    crosslists: list[str],
    taxonomy: TaxonomyConfig,
) -> frozenset[str]:
    """Sets a record belongs to: the group tokens of its primary archive and
    of every cross-listed archive, deduplicated."""
    groups = {taxonomy.group_of(primary.archive)}
    for ref in crosslists:
        archive, _sc = parse_archive_ref(ref)
        groups.add(taxonomy.group_of(archive))
    return frozenset(groups)


def table_rows(name: str, path=None) -> Iterator[tuple[int, list[str]]]:
    """Each line of a tab-separated table as its number and its fields;
    blank lines and ``#`` comments are skipped. The table is the bundled
    ``data/<name>`` unless a ``path`` is given."""
    if path is None:
        text = resources.files("eprint_oai.data").joinpath(name).read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line.split("\t")


def load_taxonomy(path=None) -> TaxonomyConfig:
    """Load a taxonomy table.

    The file is tab-separated with one entry per line:

    - ``group <token> <display name>``
    - ``archive <name> <group> <display name> [mandatory-sc]``
    - ``subject <archive>.<SC> <display name>``

    Blank lines and ``#`` comments are ignored. Without a path the bundled
    default table is used.
    """
    groups: list[tuple[str, str]] = []
    archive_group: dict[str, str] = {}
    archive_display: dict[str, str] = {}
    mandatory: set[str] = set()
    subject_display: dict[str, str] = {}
    for lineno, fields in table_rows("taxonomy.tsv", path):
        kind = fields[0]
        try:
            if kind == "group":
                groups.append((fields[1], fields[2]))
            elif kind == "archive":
                archive_group[fields[1]] = fields[2]
                archive_display[fields[1]] = fields[3]
                if len(fields) > 4 and fields[4] == "mandatory-sc":
                    mandatory.add(fields[1])
            elif kind == "subject":
                subject_display[fields[1]] = fields[2]
            else:
                raise ValueError(f"unknown entry kind {kind!r}")
        except IndexError:
            raise ValueError(f"taxonomy line {lineno}: too few fields") from None
    return TaxonomyConfig(
        groups=tuple(groups),
        archive_group=archive_group,
        archive_display=archive_display,
        mandatory_subject_class=frozenset(mandatory),
        subject_display=subject_display,
    )

"""Identifier grammar, datestamps and set membership.

E-print identifiers have the internal form ``arch-ive[.SC]/YYMMNNN[vN]``
and the harvesting-protocol form ``oai:<repository>:arch-ive[.SC]/YYMMNNN``.
Only the latest version of an e-print is exposed through the protocol, so
the OAI form never carries a version suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from importlib import resources


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


@dataclass(frozen=True, order=True)
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

    @property
    def year(self) -> int:
        """Four-digit year; two-digit years 91-99 fall in the 1990s."""
        yy = self.yymm // 100
        return 1900 + yy if yy >= 91 else 2000 + yy

    @property
    def month(self) -> int:
        return self.yymm % 100

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


class WrongScheme(MalformedIdentifier):
    pass


class WrongRepository(MalformedIdentifier):
    pass


def parse_oai_identifier(text: str, repository: str = "arXiv") -> EprintId:
    """Parse ``oai:<repository>:<local>`` for this repository; the OAI form
    of an e-print is its :meth:`EprintId.local` rendering, without version."""
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise MalformedIdentifier(f"not an oai identifier: {text!r}")
    scheme, repo, local = parts
    if scheme != "oai":
        raise WrongScheme(f"expected scheme 'oai', got {scheme!r}")
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


@dataclass(frozen=True, order=True)
class SetSpec:
    """A harvesting set: one subject group."""

    group: str

    def __post_init__(self) -> None:
        group = self.group
        if not group or ":" in group or any(c.isspace() for c in group):
            raise ValueError(f"bad setSpec: {group!r}")

    def __str__(self) -> str:
        return self.group


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
) -> frozenset[SetSpec]:
    """Sets a record belongs to: the groups of its primary archive and of
    every cross-listed archive, deduplicated."""
    groups = {taxonomy.group_of(primary.archive)}
    for ref in crosslists:
        archive, _sc = parse_archive_ref(ref)
        groups.add(taxonomy.group_of(archive))
    return frozenset(SetSpec(g) for g in groups)


def load_taxonomy(path=None) -> TaxonomyConfig:
    """Load a taxonomy table.

    The file is tab-separated with one entry per line:

    - ``group <token> <display name>``
    - ``archive <name> <group> <display name> [mandatory-sc]``
    - ``subject <archive>.<SC> <display name>``

    Blank lines and ``#`` comments are ignored. Without a path the bundled
    default table is used.
    """
    if path is None:
        text = (
            resources.files("eprint_oai.data").joinpath("taxonomy.tsv").read_text()
        )
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    groups: list[tuple[str, str]] = []
    archive_group: dict[str, str] = {}
    archive_display: dict[str, str] = {}
    mandatory: set[str] = set()
    subject_display: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
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

"""Untangling of free-format commingled author/affiliation lines.

Author lines look like::

    Fred A Bloggs, Mark Smith II (Univ A), T Sawyer (Univ B)

Names are separated by commas or "and" outside parentheses; parenthesized
groups are affiliations. By convention an affiliation applies backward to
every author listed since the previous affiliation group, so above both
Bloggs and Smith belong to Univ A.

Surname prefixes ("de", "von", ...) and suffixes ("Jr", "III", ...) come
from a small lexicon shipped as a data file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .ids import table_rows


class AuthorName(NamedTuple):
    """One parsed name. A tuple, as a line with a dozen authors builds a
    dozen of them on every render; ``parse_authors`` never leaves
    ``keyname`` empty."""

    keyname: str
    forenames: str | None = None
    prefix: str | None = None
    suffix: str | None = None
    affiliation: str | None = None


@dataclass(frozen=True)
class NameLexicon:
    prefixes: frozenset[str]  # lowercase
    suffixes: frozenset[str]  # as written


@cache
def default_lexicon() -> NameLexicon:
    """The bundled prefix/suffix lexicon (``kind<TAB>token``)."""
    prefixes, suffixes = set(), set()
    for _, (kind, token) in table_rows("name_lexicon.tsv"):
        if kind == "prefix":
            prefixes.add(token.lower())
        elif kind == "suffix":
            suffixes.add(token)
        else:
            raise ValueError(f"unknown lexicon entry kind {kind!r}")
    return NameLexicon(frozenset(prefixes), frozenset(suffixes))


# the only text that matters to the top-level split: parentheses, commas
# and "and" standing free between whitespace or the line's ends. A group
# without nested parentheses is one token, as nothing inside it splits.
# Every alternative starts with a literal, so the scan skips other text.
_SEPARATOR_RE = re.compile(r"\((?:[^()]*\))?|\)|,|a(?<!\Sa)nd(?!\S)")
_GROUP_RE = re.compile(r"\(([^()]*)\)")


def _split_top_level(raw: str) -> list[str]:
    """Split on commas and "and" at parenthesis depth 0."""
    segments: list[str] = []
    start = depth = 0
    for m in _SEPARATOR_RE.finditer(raw):
        token = m.group()
        if token == "(":
            depth += 1
        elif token == ")":
            if depth:
                depth -= 1
        elif not depth and token[0] != "(":
            segments.append(raw[start : m.start()])
            start = m.end()
    segments.append(raw[start:])
    return [s for s in map(str.strip, segments) if s]


def _parse_name(
    text: str, lexicon: NameLexicon, affiliation: str | None
) -> AuthorName:
    tokens = text.split()
    suffix = None
    if len(tokens) > 1 and tokens[-1].rstrip(".") in lexicon.suffixes:
        suffix = tokens.pop().rstrip(".")
    keyname = tokens.pop()
    # prefix run: lexicon words immediately before the keyname
    prefix_words: list[str] = []
    while tokens and tokens[-1].lower() in lexicon.prefixes:
        prefix_words.insert(0, tokens.pop())
    forenames = " ".join(tokens) or None
    prefix = " ".join(prefix_words) or None
    return AuthorName(keyname, forenames, prefix, suffix, affiliation)


def parse_authors(raw: str) -> list[AuthorName]:
    """Parse an author line into structured names.

    Never raises on odd input; if nothing resembling a name can be
    extracted, the whole stripped line is returned as a single keyname.
    """
    lexicon = default_lexicon()
    raw = raw.strip()
    if not raw:
        return []

    authors: list[AuthorName] = []
    pending: list[str] = []  # names awaiting an affiliation group

    for segment in _split_top_level(raw):
        groups: list[str] = []
        if "(" in segment:
            groups = _GROUP_RE.findall(segment)
            segment = _GROUP_RE.sub(" ", segment).strip()
        if segment:
            pending.append(segment)
        if groups:
            label = ", ".join(g.strip() for g in groups if g.strip()) or None
            authors += [_parse_name(p, lexicon, label) for p in pending]
            pending = []
    authors += [_parse_name(p, lexicon, None) for p in pending]

    if not authors:
        return [AuthorName(keyname=raw)]
    return authors


def display_name(author: AuthorName) -> str:
    """Render as "Keyname, Forenames" with prefix and suffix attached."""
    key = author.keyname
    if author.prefix:
        key = f"{author.prefix} {key}"
    parts = [key]
    if author.forenames:
        parts.append(author.forenames)
    text = ", ".join(parts)
    if author.suffix:
        text += f" {author.suffix}"
    return text

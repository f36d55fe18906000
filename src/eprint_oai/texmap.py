"""TeX special-character macros to UTF-8, table driven.

The table ships as ``data/tex_unicode.tsv`` (``<macro><TAB><char>``).
Accent macros are accepted with or without braces around the argument
(``\\'e`` and ``\\'{e}`` are the same entry). Macros absent from the table
pass through unchanged, so the conversion is idempotent.
"""

from __future__ import annotations

import re
from functools import cache

from .ids import table_rows

# \X{a} or \Xa for one-character accent macros; \word{a} or \word for named
_MACRO_RE = re.compile(
    r"\\(?:"
    r"(?P<acc>[^A-Za-z0-9\s\\])\s*(?:\{(?P<accarg>[^{}]?)\}|(?P<accletter>[A-Za-z]))"
    r"|(?P<word>[A-Za-z]+)(?:\{(?P<wordarg>[^{}]?)\})?"
    r")"
)


def _normalise_key(macro: str) -> tuple[str, str | None]:
    """Split a table key like ``\\'e``, ``\\c{c}`` or ``\\ss`` into
    (macro name, argument)."""
    m = _MACRO_RE.fullmatch(macro)
    if m is None:
        raise ValueError(f"bad tex macro in table: {macro!r}")
    if m.group("acc") is not None:
        return m.group("acc"), m.group("accarg") or m.group("accletter")
    return m.group("word"), m.group("wordarg")


class TexTable:
    def __init__(self, mapping: dict[tuple[str, str | None], str]):
        self.mapping = mapping
        # what the generic callback makes of each spelling of a table entry
        # (\'e, \'{e}, \ss, \ss{}, \c{c}, ...), so most macros cost one
        # dict lookup; a spelling the regex reads differently (\cc) maps to
        # itself, as the callback would leave it
        self._spellings: dict[str, str] = {}
        for name, arg in mapping:
            for form in (f"\\{name}{arg or ''}", f"\\{name}{{{arg or ''}}}"):
                m = _MACRO_RE.fullmatch(form)
                if m is not None:
                    self._spellings[form] = self._generic(m)

    def _generic(self, m: re.Match) -> str:
        if m.group("acc") is not None:
            key = (m.group("acc"), m.group("accarg") or m.group("accletter"))
            return self.mapping.get(key, m.group(0))
        word = m.group("word")
        # \l{} is the empty-brace spelling of the no-argument macro \l
        arg = m.group("wordarg") or None
        if (word, arg) in self.mapping:
            return self.mapping[(word, arg)]
        if arg is None and (word, None) in self.mapping:
            return self.mapping[(word, None)]
        # \ssX etc: a no-argument macro followed directly by letters is
        # left alone rather than guessed at
        return m.group(0)

    def _replace(self, m: re.Match) -> str:
        known = self._spellings.get(m.group(0))
        return known if known is not None else self._generic(m)

    def convert(self, text: str) -> str:
        if "\\" not in text:
            return text
        return _MACRO_RE.sub(self._replace, text)


@cache
def default_table() -> TexTable:
    """The bundled table (``<macro><TAB><char>``)."""
    mapping: dict[tuple[str, str | None], str] = {}
    for _, (macro, char) in table_rows("tex_unicode.tsv"):
        mapping[_normalise_key(macro)] = char
    return TexTable(mapping)


def tex_to_utf8(text: str) -> str:
    """Replace TeX accent macros and named glyphs per the mapping table.
    Unknown macros are preserved verbatim."""
    return default_table().convert(text)

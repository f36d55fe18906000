from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from eprint_oai.texmap import (
    _MACRO_RE,
    TexTable,
    default_table,
    load_table,
    tex_to_utf8,
)

FIXTURES = [
    (r"J. Koll\'ar", "J. Kollár"),
    (r"J. Koll\'{a}r", "J. Kollár"),
    (r"Schr\"odinger", "Schrödinger"),
    (r"Schr\"{o}dinger", "Schrödinger"),
    (r"Erd\H{o}s", "Erdős"),
    (r"Poincar\'e", "Poincaré"),
    (r"G\"odel", "Gödel"),
    (r"\v{C}ech", "Čech"),
    (r"Dvo\v{r}\'ak", "Dvořák"),
    (r"Fran\c{c}ois", "François"),
    (r"Gau\ss", "Gauß"),
    (r"\AA ngstr\"om", "Å ngström"),
    (r"M\"uller", "Müller"),
    (r"Garc\'ia", "García"),
    (r"\'Alvarez", "Álvarez"),
    (r"Pe\~na", "Peña"),
    (r"S\o rensen", "Sø rensen"),
    (r"\L ukasiewicz", "Ł ukasiewicz"),
    (r"W\l{}adys\l{}aw", "Władysław"),
    (r"Ku\.zniak", "Kużniak"),
    (r"\c{S}tef\u{a}nescu", r"\c{S}tefănescu"),  # \c{S} not in table
    (r"\=Otani", "Ōtani"),
    (r"B\ae kgaard", "Bæ kgaard"),
    (r"\OE uvres", "Œ uvres"),
    (r"\i nan", "ı nan"),
]


@pytest.mark.parametrize("tex,expected", FIXTURES)
def test_fixture(tex, expected):
    assert tex_to_utf8(tex) == expected


def test_unknown_macro_passes_through():
    assert tex_to_utf8(r"$\alpha$-decay") == r"$\alpha$-decay"
    assert tex_to_utf8(r"\frobnicate{x}") == r"\frobnicate{x}"


def test_plain_text_unchanged():
    assert tex_to_utf8("10 pages, 3 figures") == "10 pages, 3 figures"


def test_custom_table(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("\\'e\té\n", encoding="utf-8")
    table = load_table(p)
    assert table.convert(r"caf\'e \`a") == "café \\`a"


def test_table_size():
    assert len(default_table().mapping) >= 70


texty = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=80,
)


@given(texty)
def test_idempotent(text):
    once = tex_to_utf8(text)
    assert tex_to_utf8(once) == once


# --- the generic callback, kept as the reference for the spelling lookup ---


def reference_convert(table, text: str) -> str:
    def repl(m: re.Match) -> str:
        if m.group("acc") is not None:
            key = (m.group("acc"), m.group("accarg") or m.group("accletter"))
            return table.mapping.get(key, m.group(0))
        word = m.group("word")
        arg = m.group("wordarg") or None
        if (word, arg) in table.mapping:
            return table.mapping[(word, arg)]
        if arg is None and (word, None) in table.mapping:
            return table.mapping[(word, None)]
        return m.group(0)

    return _MACRO_RE.sub(repl, text)


# macro heads, arguments, braces and the spacing the accent form allows
tex_pieces = st.lists(
    st.sampled_from(
        [
            "\\", "\\'", '\\"', "\\`", "\\^", "\\~", "\\=", "\\.", "\\H", "\\v",
            "\\c", "\\u", "\\ss", "\\l", "\\L", "\\o", "\\AA", "\\ae", "\\i",
            "\\frob", "\\alpha", "{", "}", "{}", "{e}", "{a}", "{ss}", "e", "a",
            "o", "s", "X", "c", "C", "1", " ", "  ", "\t", "\n", "$", "é",
        ]
    ),
    max_size=20,
).map("".join)


SMALL_TABLE = TexTable(
    {("'", "e"): "é", ("ss", None): "ß", ("l", None): "ł", ("c", "c"): "ç", ("'", None): "´"}
)


@pytest.mark.parametrize("table", [default_table(), SMALL_TABLE], ids=["default", "small"])
@given(text=tex_pieces)
def test_spelling_lookup_matches_generic_callback(table, text):
    assert table.convert(text) == reference_convert(table, text)

from __future__ import annotations

import xml.etree.ElementTree as ET

from hypothesis import given, strategies as st

from eprint_oai.xmlwriter import MARGIN, element, escape

# what the rule must handle, drawn more often than any character at random:
# markup, every C0 control, the other line boundaries str.splitlines()
# recognises, the two noncharacters XML forbids and the surrogates
SPECIAL = [*"&<>\"'", *map(chr, range(32)), "\x7f", "\x85", "\u2028", "\u2029",
           "\ufffe", "\uffff", "\ud800", "\udfff"]
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=())))


def _is_xml_char(c: str) -> bool:
    """The Char production of XML 1.0."""
    return (
        c in "\t\n\r"
        or "\x20" <= c <= "\ud7ff"
        or "\ue000" <= c <= "\ufffd"
        or c >= "\U00010000"
    )


def _replaced(text: str) -> str:
    return "".join(c if _is_xml_char(c) else "\ufffd" for c in text)


def _parsed(xml: str) -> str:
    """The text of the one element ``xml`` holds, as expat reads it from
    the UTF-8 a response sends."""
    return ET.fromstring(xml.encode("utf-8")).text or ""


@given(texts)
def test_element_text_reads_back_with_breaks_at_the_margin(text):
    # a character that is no line break ends the text, so that splitlines()
    # keeps a final line break; it is dropped again after the join
    lines = (text + "x").splitlines()
    expected = _replaced(("\n" + MARGIN).join(lines)[:-1])
    assert _parsed(element("t", text, "  ")) == expected


@given(texts)
def test_escaped_text_reads_back_with_forbidden_characters_replaced(text):
    # expat reads each \r\n and each lone \r as \n (XML 1.0, 2.11)
    expected = _replaced(text).replace("\r\n", "\n").replace("\r", "\n")
    assert _parsed(f"<t>{escape(text)}</t>") == expected
    assert _parsed(f'<t a="{escape(text)}"/>') == ""  # a well-formed value

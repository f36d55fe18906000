"""How text becomes XML, for every element and attribute value the provider
writes: :func:`escape` and :func:`element` escape ``&``, ``<``, ``>`` and
``"``, and write each character XML 1.0 forbids (C0 controls but tab, line
feed and carriage return; surrogates; U+FFFE and U+FFFF) as U+FFFD, so that
no text, from a record, the configuration or the taxonomy, breaks a body.
:func:`element` also turns each line break ``str.splitlines()`` knows into a
newline and :data:`MARGIN`, where a metadata fragment's lines start.
"""

from __future__ import annotations

import re

XSI_NS = "http://www.w3.org/2000/10/XMLSchema-instance"

# characters XML 1.0 does not allow
NOT_XML_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# the line boundaries str.splitlines() recognises, each alternative a
# literal so that the search skips other text quickly
_LINE_BREAK_RE = re.compile("\r\n?|\n|\v|\f|\x1c|\x1d|\x1e|\x85|\u2028|\u2029")
# a metadata fragment's indentation inside a response's <metadata> element
MARGIN = "    "
_BREAK = "\n" + MARGIN


def _markup(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _xml_chars(text: str) -> str:
    return NOT_XML_CHAR_RE.sub("\ufffd", text)


def escape(text: str) -> str:
    """``text`` as XML character data or an attribute value."""
    text = _markup(text)
    return text if text.isprintable() else _xml_chars(text)


def element(name: str, text: str, indent: str = "") -> str:
    """One element on one line, its text written as :func:`escape` writes
    it, except that each line break becomes a newline followed by
    :data:`MARGIN`. Plain text costs four markup tests and one
    ``isprintable()`` scan, as a record renders about twenty of these in
    each format."""
    if "&" in text or "<" in text or ">" in text or '"' in text:
        text = _markup(text)
    if not text.isprintable():
        text = _xml_chars(_LINE_BREAK_RE.sub(_BREAK, text))
    return f"{indent}<{name}>{text}</{name}>"


def open_tag(name: str, namespace: str, schema: str, indent: str = "") -> str:
    """Opening tag with default namespace, xsi namespace and schemaLocation."""
    pad = indent + "  "
    return (
        f'{indent}<{name} xmlns="{namespace}"\n'
        f'{pad}xmlns:xsi="{XSI_NS}"\n'
        f'{pad}xsi:schemaLocation="{namespace}\n'
        f'{pad}                    {schema}">'
    )

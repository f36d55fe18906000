"""Minimal XML writing helpers shared by the crosswalk and protocol layers."""

from __future__ import annotations

import re

XSI_NS = "http://www.w3.org/2000/10/XMLSchema-instance"


def escape(text: str) -> str:
    if not ("&" in text or "<" in text or ">" in text or '"' in text):
        return text
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def element(name: str, text: str, indent: str = "") -> str:
    return f"{indent}<{name}>{escape(text)}</{name}>"


# characters XML 1.0 does not allow
NOT_XML_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def open_tag(name: str, namespace: str, schema: str, indent: str = "") -> str:
    """Opening tag with default namespace, xsi namespace and schemaLocation."""
    pad = indent + "  "
    return (
        f'{indent}<{name} xmlns="{namespace}"\n'
        f'{pad}xmlns:xsi="{XSI_NS}"\n'
        f'{pad}xsi:schemaLocation="{namespace}\n'
        f'{pad}                    {schema}">'
    )

from __future__ import annotations

from datetime import date

import pytest

from eprint_oai.absfile import AbsParseError, format_abs, parse_abs
from conftest import make_meta
from eprint_oai.ids import EprintId

SAMPLE = """\
Paper: cs.DL/0101027
From: Simeon Warner <simeon@lanl.gov>
Date: 2001-01-23
Title: Open Archives Initiative protocol development and implementation at arXiv
Authors: Simeon Warner
Comments: 15 pages. Expanded version of talk presented at Open Archives
  Initiative Open Meeting in Washington, DC, USA on 23 January 2001
\\\\
I outline the involvement of the Los Alamos e-print archive (arXiv) within
the Open Archives Initiative (OAI).
"""


def test_parse_sample():
    meta = parse_abs(SAMPLE)
    assert meta.id.local() == "cs.DL/0101027"
    assert meta.title.startswith("Open Archives Initiative")
    assert meta.authors_raw == "Simeon Warner"
    assert meta.submission_dates == [(1, date(2001, 1, 23))]
    # continuation line folded into the Comments value
    assert "Initiative Open Meeting" in meta.comments
    assert meta.abstract.startswith("I outline")


def test_missing_title_is_parse_error():
    broken = SAMPLE.replace("Title: ", "Untitled: ")
    with pytest.raises(AbsParseError):
        parse_abs(broken)


def test_missing_separator_is_parse_error():
    with pytest.raises(AbsParseError):
        parse_abs(SAMPLE.replace("\\\\\n", ""))


def test_empty_abstract_is_parse_error():
    header = SAMPLE.split("\\\\")[0] + "\\\\\n\n"
    with pytest.raises(AbsParseError, match="abstract"):
        parse_abs(header)


def test_unknown_key_reports_line():
    broken = SAMPLE.replace("Comments:", "Remarks:")
    with pytest.raises(AbsParseError, match="line 6"):
        parse_abs(broken)


def test_multi_version_dates():
    text = (
        "Paper: quant-ph/9912010\n"
        "Date: 1999-12-10\n"
        "Date (v2): 1999-12-15\n"
        "Title: T\n"
        "Authors: A\n"
        "\\\\\n"
        "abstract\n"
    )
    meta = parse_abs(text)
    assert meta.submission_dates == [
        (1, date(1999, 12, 10)),
        (2, date(1999, 12, 15)),
    ]


def test_gap_in_versions_rejected():
    text = (
        "Paper: quant-ph/9912010\n"
        "Date: 1999-12-10\n"
        "Date (v3): 1999-12-15\n"
        "Title: T\nAuthors: A\n\\\\\nabstract\n"
    )
    with pytest.raises(AbsParseError, match="contiguous"):
        parse_abs(text)


def test_crosslists_parsed():
    text = (
        "Paper: astro-ph/9204001\n"
        "Date: 1992-04-02\n"
        "Title: T\nAuthors: A\n"
        "Subj-class: math.SG, hep-ph\n"
        "\\\\\nabstract\n"
    )
    assert parse_abs(text).crosslists == ["math.SG", "hep-ph"]


def test_format_parse_roundtrip():
    meta = make_meta(
        EprintId("math", 9204, 240, subject_class="DS"),
        date(1992, 4, 1),
        crosslists=["hep-th"],
        comments="10 pages",
        journal_ref="J. Ex. 1 (1992) 1-10",
    )
    assert parse_abs(format_abs(meta)) == meta

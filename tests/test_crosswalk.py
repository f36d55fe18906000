from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from datetime import date

import pytest

from conftest import make_meta, synth_corpus
from eprint_oai.config import RepositoryConfig
from eprint_oai.crosswalk import (
    DEFAULT_FORMATS,
    UnsupportedFormat,
    detect_language,
    to_format,
)
from eprint_oai.ids import EprintId, parse_internal_id
from eprint_oai.store import Store


ABS_URL_PREFIX = RepositoryConfig().abs_url_prefix


def render(meta, datestamp, prefix, taxonomy) -> str:
    return "\n".join(to_format(meta, datestamp, prefix, taxonomy, ABS_URL_PREFIX))


def fields(meta, datestamp, prefix, taxonomy) -> list[tuple[str, str]]:
    """(element, text) for each child of the rendered format's root."""
    root = ET.fromstring(render(meta, datestamp, prefix, taxonomy))
    return [(child.tag.rsplit("}", 1)[1], child.text) for child in root]


def test_format_registration_order():
    assert [f.prefix for f in DEFAULT_FORMATS] == [
        "arXivOld",
        "arXiv",
        "oai_rfc1807",
        "oai_dc",
    ]


@pytest.mark.parametrize(
    "comments,code",
    [
        ("10 pages, in French", "fr"),
        ("15 pages, 3 figures", None),
        ("in Portuguese, minor typos fixed", "pt"),
        ("In German", "de"),
        ("published in Nature", None),
        (None, None),
        ("", None),
    ],
)
def test_detect_language(comments, code):
    assert detect_language(comments) == code


def test_dc_record_values(taxonomy):
    meta = make_meta(
        EprintId("cs", 101, 27, subject_class="DL"),
        date(2001, 1, 23),
        title="Open Archives Initiative protocol development",
        authors_raw="Simeon Warner",
        comments="15 pages",
        abstract="I outline the involvement.",
    )
    assert fields(meta, date(2001, 1, 25), "oai_dc", taxonomy) == [
        ("title", "Open Archives Initiative protocol development"),
        ("creator", "Warner, Simeon"),
        ("subject", "Digital Libraries"),
        ("description", "I outline the involvement."),
        ("description", "Comment: 15 pages"),
        ("date", "2001-01-25"),
        ("type", "e-print"),
        ("identifier", "http://arXiv.org/abs/cs.DL/0101027"),
    ]


def test_dc_subject_falls_back_to_archive_name(taxonomy):
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    out = fields(meta, date(1999, 1, 5), "oai_dc", taxonomy)
    assert ("subject", "High Energy Physics - Theory") in out


def test_rfc1807_record_values(taxonomy):
    meta = make_meta(
        EprintId("math", 9505, 1, subject_class="AG"),
        date(1995, 5, 8),
        comments="12 pages, in French",
        journal_ref="J. Ex. 3 (1995) 1",
    )
    out = dict(fields(meta, date(1995, 5, 10), "oai_rfc1807", taxonomy))
    assert out["bib-version"] == "CS-TR-v2.1"
    assert out["id"] == "math.AG/9505001"
    assert out["entry"] == "1995-05-10"  # datestamp
    assert out["date"] == "1995-05-08"  # first submission
    assert out["language"] == "fr"
    assert out["other_access"] == "J. Ex. 3 (1995) 1"


def test_empty_author_line_renders_in_every_format(taxonomy):
    meta = make_meta(EprintId("cs", 101, 1, subject_class="DL"), date(2001, 1, 2),
                     authors_raw="  ")
    for fmt in DEFAULT_FORMATS:
        ET.fromstring(render(meta, date(2001, 1, 3), fmt.prefix, taxonomy))
    tags = [tag for tag, _ in fields(meta, date(2001, 1, 3), "oai_dc", taxonomy)]
    assert "creator" not in tags


def test_line_breaks_in_text_keep_the_fragment_indented(taxonomy):
    # every line break str.splitlines() knows continues at the margin
    meta = make_meta(
        EprintId("cs", 101, 1, subject_class="DL"),
        date(2001, 1, 2),
        title="A\r\nB\x0bC\x0cD\x1cE\x85F\u2028G\u2029H\rI",
    )
    for fmt in DEFAULT_FORMATS:
        lines = to_format(meta, date(2001, 1, 3), fmt.prefix, taxonomy, ABS_URL_PREFIX)
        text = "\n".join(lines)
        assert all(line.startswith("    ") for line in text.splitlines())
        title = ET.fromstring(text).find(f"{{{fmt.namespace}}}title").text
        assert title == "\n    ".join("ABCDEFGHI")


def test_tex_cleaned_in_dc_but_not_arxiv_old(taxonomy):
    meta = make_meta(
        EprintId("alg-geom", 9202, 8),
        date(1992, 2, 10),
        authors_raw=r"J. Koll\'ar",
    )
    dc = render(meta, date(1992, 4, 30), "oai_dc", taxonomy)
    assert "Kollár" in dc
    old = render(meta, date(1992, 4, 30), "arXivOld", taxonomy)
    assert r"J. Koll\'ar" in old and "Kollár" not in old


def test_arxiv_format_structured_authors(taxonomy):
    meta = make_meta(
        EprintId("hep-th", 9901, 1),
        date(1999, 1, 1),
        authors_raw="Fred A Bloggs, Mark Smith II (Univ A), T Sawyer (Univ B)",
    )
    xml = render(meta, date(1999, 1, 5), "arXiv", taxonomy)
    root = ET.fromstring(xml)
    authors = root.findall(".//{http://arXiv.org/OAI/}author")
    assert len(authors) == 3
    ns = "{http://arXiv.org/OAI/}"
    affs = [a.findtext(f"{ns}affiliation") for a in authors]
    assert affs == ["Univ A", "Univ A", "Univ B"]
    suffixes = [a.findtext(f"{ns}suffix") for a in authors]
    assert suffixes == [None, "II", None]


def test_xml_escaping(taxonomy):
    meta = make_meta(
        EprintId("cs", 101, 1, subject_class="SE"),
        date(2001, 1, 2),
        title="Types & effects for x < y",
    )
    for fmt in DEFAULT_FORMATS:
        xml = render(meta, date(2001, 1, 3), fmt.prefix, taxonomy)
        ET.fromstring(xml)  # must be well formed


def test_all_records_convert_to_all_formats(taxonomy):
    rng = random.Random(3)
    store = Store(taxonomy)
    synth_corpus(store, 120, rng)
    for entry in store.scan():
        rec = store.get(parse_internal_id(entry.identifier))
        if rec.deleted:
            continue
        for fmt in DEFAULT_FORMATS:
            root = ET.fromstring(render(rec.meta, rec.datestamp, fmt.prefix, taxonomy))
            assert root.tag.endswith(fmt.prefix)


def test_unsupported_prefix(taxonomy):
    meta = make_meta(EprintId("hep-th", 9901, 1), date(1999, 1, 1))
    with pytest.raises(UnsupportedFormat):
        to_format(meta, date(1999, 1, 2), "oai_marc", taxonomy, ABS_URL_PREFIX)

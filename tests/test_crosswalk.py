from __future__ import annotations

import dataclasses
import random
import sys
import threading
import xml.etree.ElementTree as ET
from datetime import date, datetime

import pytest

from conftest import make_meta, synth_corpus
from eprint_oai import crosswalk
from eprint_oai.absfile import format_abs
from eprint_oai.config import RepositoryConfig
from eprint_oai.crosswalk import (
    DEFAULT_FORMATS,
    UnsupportedFormat,
    detect_language,
    to_format,
)
from eprint_oai.harvester import HarvestJob, WsgiTransport, run
from eprint_oai.ids import EprintId, parse_internal_id
from eprint_oai.server import make_app
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


# --- parsed authors, kept on the record --------------------------------------


def _creators(meta, taxonomy) -> list[str]:
    return [text for tag, text in fields(meta, date(2001, 1, 3), "oai_dc", taxonomy)
            if tag == "creator"]


def test_four_format_sweep_parses_each_records_authors_once(
    demo_handler, demo_store, monkeypatch
):
    parsed: list[str] = []
    real = crosswalk.parse_authors

    def counting(raw):
        parsed.append(raw)
        return real(raw)

    monkeypatch.setattr(crosswalk, "parse_authors", counting)
    transport = WsgiTransport(make_app(demo_handler))
    for fmt in DEFAULT_FORMATS:
        run(HarvestJob("ListRecords", metadata_prefix=fmt.prefix), transport)
    live = [e for e in demo_store.scan() if not e.deleted]
    assert len(parsed) == len(live)


def test_ingest_that_changes_the_authors_renders_the_new_ones(taxonomy):
    store = Store(taxonomy)
    eid = EprintId("cs", 101, 1, subject_class="DL")
    meta = make_meta(eid, date(2001, 1, 2))
    store.ingest(format_abs(meta), datetime(2001, 1, 2))
    assert _creators(store.get(eid).meta, taxonomy) == ["Author, Alice", "Builder, Bob"]
    changed = dataclasses.replace(meta, authors_raw="Carol Coauthor")
    store.ingest(format_abs(changed), datetime(2001, 1, 3))
    assert _creators(store.get(eid).meta, taxonomy) == ["Coauthor, Carol"]


def test_changed_author_line_is_parsed_again(taxonomy):
    meta = make_meta(EprintId("cs", 101, 1, subject_class="DL"), date(2001, 1, 2))
    assert _creators(meta, taxonomy) == ["Author, Alice", "Builder, Bob"]
    meta.authors_raw = "Dana Drake"
    assert _creators(meta, taxonomy) == ["Drake, Dana"]


def test_replace_makes_the_memo_again(taxonomy):
    meta = make_meta(EprintId("cs", 101, 1, subject_class="DL"), date(2001, 1, 2))
    _creators(meta, taxonomy)
    assert meta.authors_memo is not None
    retitled = dataclasses.replace(meta, title="Another title")
    assert retitled.authors_memo is None
    assert _creators(retitled, taxonomy) == ["Author, Alice", "Builder, Bob"]
    renamed = dataclasses.replace(meta, authors_raw="Erin Editor")
    assert _creators(renamed, taxonomy) == ["Editor, Erin"]


def test_memo_leaves_equality_and_repr_alone(taxonomy):
    eid = EprintId("cs", 101, 1, subject_class="DL")
    rendered = make_meta(eid, date(2001, 1, 2))
    fresh = make_meta(eid, date(2001, 1, 2))
    _creators(rendered, taxonomy)
    assert rendered.authors_memo is not None and fresh.authors_memo is None
    assert rendered == fresh
    assert repr(rendered) == repr(fresh)
    assert "memo" not in repr(rendered)


def test_threads_filling_the_memo_at_once_render_alike(taxonomy):
    """Server threads may render one record at once; each fill computes an
    equal tuple, so every thread renders the same bytes, whichever fill
    lands last."""
    metas = [
        make_meta(EprintId("cs", 101, n, subject_class="DL"), date(2001, 1, 2),
                  authors_raw=f"A{n} One, B{n} Two (Inst {n}), C{n} Three")
        for n in range(1, 41)
    ]
    want = [render(dataclasses.replace(m), date(2001, 1, 3), "arXiv", taxonomy)
            for m in metas]
    got: dict[int, list[str]] = {}

    def work(k: int) -> None:
        got[k] = [render(m, date(2001, 1, 3), "arXiv", taxonomy) for m in metas]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(rendered == want for rendered in got.values())

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from eprint_oai.ids import (
    EprintId,
    MalformedIdentifier,
    SerialOverflow,
    SetSpec,
    UnknownArchive,
    WrongRepository,
    format_datestamp,
    parse_datestamp,
    parse_internal_id,
    parse_oai_identifier,
    sets_for,
)


def test_parse_plain_id():
    eid = parse_internal_id("hep-th/9901001")
    assert (eid.archive, eid.yymm, eid.number) == ("hep-th", 9901, 1)
    assert eid.subject_class is None and eid.version is None


def test_parse_subject_class_id():
    eid = parse_internal_id("math.SG/0001001")
    assert eid.archive == "math"
    assert eid.subject_class == "SG"
    assert (eid.yymm, eid.number) == (1, 1)


def test_parse_versioned_id():
    eid = parse_internal_id("quant-ph/9912010v2")
    assert (eid.archive, eid.yymm, eid.number, eid.version) == (
        "quant-ph",
        9912,
        10,
        2,
    )


def test_serial_000_rejected():
    with pytest.raises(MalformedIdentifier):
        parse_internal_id("hep-th/9901000")


def test_serial_overflow_distinct_error():
    with pytest.raises(SerialOverflow):
        parse_internal_id("hep-th/99011000")


@pytest.mark.parametrize(
    "bad",
    [
        "hep-th/991301",  # month 13 and short serial
        "hep-th/9913001",  # month 13
        "HEP-TH/9901001",  # uppercase archive
        "math.sg/0001001",  # lowercase subject class
        "math.SGX/0001001",  # 3-letter subject class
        "hep-th/9901001v0",  # version 0
        "x/9901001",  # 1-char archive
        "hep-th9901001",  # missing slash
        "",
        "hep-th/9901001\n",  # trailing newline
        "hep-th/99011000\n",  # over-long serial and trailing newline
        "hep-th/\u0669\u0669\u0660\u0661001",  # Arabic-Indic digits
        "hep-th/9901001v1\u0662",  # Arabic-Indic version digit
    ],
)
def test_malformed_ids_rejected(bad):
    with pytest.raises(MalformedIdentifier):
        parse_internal_id(bad)


def test_year_windowing():
    assert parse_internal_id("hep-th/9108001").year == 1991
    assert parse_internal_id("cs.DL/0101027").year == 2001
    assert parse_internal_id("math.AG/9001001").year == 2090


@pytest.mark.parametrize(
    "internal,oai",
    [
        ("hep-th/9901001", "oai:arXiv:hep-th/9901001"),
        ("quant-ph/9912010", "oai:arXiv:quant-ph/9912010"),
        ("math.SG/0001001", "oai:arXiv:math.SG/0001001"),
        ("cs.SE/0101002", "oai:arXiv:cs.SE/0101002"),
        ("quant-ph/9912010v3", "oai:arXiv:quant-ph/9912010"),
    ],
)
def test_to_oai_identifier(internal, oai):
    # the OAI form is the local rendering, which drops the version suffix
    eid = parse_internal_id(internal)
    assert f"oai:arXiv:{eid.local()}" == oai
    assert parse_oai_identifier(oai) == eid.without_version()


def test_parse_oai_identifier_roundtrip_example():
    eid = parse_oai_identifier("oai:arXiv:quant-ph/9912010")
    assert eid == parse_internal_id("quant-ph/9912010")


def test_parse_oai_identifier_wrong_repository():
    with pytest.raises(WrongRepository):
        parse_oai_identifier("oai:other:hep-th/9901001")


def test_parse_oai_identifier_rejects_version():
    with pytest.raises(MalformedIdentifier):
        parse_oai_identifier("oai:arXiv:hep-th/9901001v2")


archives = st.from_regex(r"[a-z][a-z-]{0,14}[a-z]", fullmatch=True)
eprint_ids = st.builds(
    EprintId,
    archives,
    st.integers(0, 99).map(lambda y: y * 100) .flatmap(
        lambda base: st.integers(1, 12).map(lambda m: base + m)
    ),
    st.integers(1, 999),
    subject_class=st.one_of(
        st.none(), st.from_regex(r"[A-Z]{2}", fullmatch=True)
    ),
    version=st.one_of(st.none(), st.integers(1, 30)),
)


@given(eprint_ids)
def test_grammar_roundtrip(eid):
    assert parse_internal_id(str(eid)) == eid


@given(eprint_ids)
def test_oai_identifier_version_invariant(eid):
    # ids differing only in version map to the same OAI identifier
    local = eid.local()
    assert local == eid.without_version().local()
    assert "v" not in local.split("/")[1]
    assert parse_oai_identifier(f"oai:arXiv:{local}") == eid.without_version()


def test_sets_for_same_group(taxonomy):
    out = sets_for(parse_internal_id("astro-ph/9204001"), ["hep-ph"], taxonomy)
    assert out == frozenset({SetSpec("physics")})


def test_sets_for_cross_group(taxonomy):
    out = sets_for(parse_internal_id("astro-ph/9204001"), ["math.SG"], taxonomy)
    assert out == frozenset({SetSpec("physics"), SetSpec("math")})


def test_sets_for_no_crosslists(taxonomy):
    out = sets_for(parse_internal_id("cs.DL/0101027"), [], taxonomy)
    assert out == frozenset({SetSpec("cs")})


def test_sets_for_unknown_archive(taxonomy):
    with pytest.raises(UnknownArchive):
        sets_for(parse_internal_id("zz-unknown/9901001"), [], taxonomy)


@given(
    st.sampled_from(
        ["hep-th", "astro-ph", "cond-mat", "alg-geom", "quant-ph", "nlin"]
    ),
    st.lists(st.sampled_from(["hep-ph", "math.SG", "cs.DL", "nlin.CD"]), max_size=3),
)
def test_sets_monotone_under_crosslists(archive, crosslists):
    from eprint_oai.ids import load_taxonomy

    taxonomy = load_taxonomy()
    eid = EprintId(archive, 9901, 1)
    base = sets_for(eid, [], taxonomy)
    assert base  # non-empty for a registered archive
    extended = sets_for(eid, crosslists, taxonomy)
    assert base <= extended


@given(st.dates(), st.dates())
def test_datestamp_order_matches_calendar(a, b):
    assert (format_datestamp(a) <= format_datestamp(b)) == (a <= b)


@given(st.dates())
def test_datestamp_roundtrip_fixed_width(d):
    rendered = format_datestamp(d)
    assert len(rendered) == 10
    assert parse_datestamp(rendered) == d


def test_datestamp_rejects_sloppy_forms():
    with pytest.raises(ValueError):
        parse_datestamp("1992-4-1")
    with pytest.raises(ValueError):
        parse_datestamp("19920401")
    with pytest.raises(ValueError):
        parse_datestamp("\u0661\u0669\u0669\u0662-04-01")  # Arabic-Indic digits

from __future__ import annotations

import re

from hypothesis import given, strategies as st

from eprint_oai.authors import (
    AuthorName,
    _parse_name,
    _split_top_level,
    default_lexicon,
    display_name,
    parse_authors,
)


def test_worked_example_with_shared_affiliation():
    out = parse_authors("Fred A Bloggs, Mark Smith II (Univ A), T Sawyer (Univ B)")
    assert out == [
        AuthorName(keyname="Bloggs", forenames="Fred A", affiliation="Univ A"),
        AuthorName(keyname="Smith", forenames="Mark", suffix="II", affiliation="Univ A"),
        AuthorName(keyname="Sawyer", forenames="T", affiliation="Univ B"),
    ]


def test_single_plain_author():
    assert parse_authors("Yunping Jiang") == [
        AuthorName(keyname="Jiang", forenames="Yunping")
    ]


def test_surname_prefix():
    assert parse_authors("Ludwig von Beethoven") == [
        AuthorName(keyname="Beethoven", forenames="Ludwig", prefix="von")
    ]


def test_multi_word_prefix():
    (author,) = parse_authors("Henk van der Veen")
    assert author.prefix == "van der"
    assert author.keyname == "Veen"
    assert author.forenames == "Henk"


def test_and_separator():
    out = parse_authors("Anna N. Example and Boris Q. Sample")
    assert [a.keyname for a in out] == ["Example", "Sample"]


def test_affiliation_only_segment_applies_backward():
    out = parse_authors("A. First, B. Second, (Shared Inst)")
    assert [a.affiliation for a in out] == ["Shared Inst", "Shared Inst"]


def test_affiliation_resets_after_group():
    out = parse_authors("A. First (Inst X), B. Second, C. Third (Inst Y)")
    assert [a.affiliation for a in out] == ["Inst X", "Inst Y", "Inst Y"]


def test_degraded_output_never_raises():
    out = parse_authors("((((")
    assert len(out) == 1 and out[0].keyname == "(((("


def test_empty_line():
    assert parse_authors("") == []


def test_suffix_with_period():
    (author,) = parse_authors("Martin Luther King Jr.")
    assert author.suffix == "Jr"
    assert author.keyname == "King"


def test_display_name():
    a = AuthorName(keyname="Smith", forenames="Mark", suffix="II")
    assert display_name(a) == "Smith, Mark II"
    b = AuthorName(keyname="Beethoven", forenames="Ludwig", prefix="von")
    assert display_name(b) == "von Beethoven, Ludwig"


name_token = st.from_regex(r"[A-Z][a-z]{1,8}", fullmatch=True)
simple_names = st.builds(
    lambda first, last: f"{first} {last}", name_token, name_token
)


@given(st.lists(simple_names, min_size=1, max_size=6))
def test_no_token_loss(names):
    raw = ", ".join(names)
    parsed = parse_authors(raw)
    emitted = []
    for a in parsed:
        for part in (a.forenames, a.prefix, a.keyname, a.suffix):
            if part:
                emitted += part.split()
    source = [t for t in re.findall(r"[A-Za-z]+", raw)]
    assert emitted == source


# --- the character-loop splitter, kept as the reference for the token one ---


def reference_split_top_level(raw: str) -> list[str]:
    """Split on commas and "and" at parenthesis depth 0."""
    segments: list[str] = []
    buf: list[str] = []
    depth = 0
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if depth == 0:
            if ch == ",":
                segments.append("".join(buf))
                buf = []
                i += 1
                continue
            if raw.startswith("and", i) and (i == 0 or raw[i - 1].isspace()):
                after = i + 3
                if after >= n or raw[after].isspace():
                    segments.append("".join(buf))
                    buf = []
                    i = after
                    continue
        buf.append(ch)
        i += 1
    segments.append("".join(buf))
    return [s.strip() for s in segments if s.strip()]


def reference_parse_authors(raw: str) -> list[AuthorName]:
    """parse_authors as it was before names were built once: every name is
    rebuilt when its affiliation group arrives."""
    lexicon = default_lexicon()
    raw = raw.strip()
    if not raw:
        return []
    authors: list[AuthorName] = []
    unaffiliated: list[int] = []
    for segment in reference_split_top_level(raw):
        affiliations = re.findall(r"\(([^()]*)\)", segment)
        name_part = re.sub(r"\([^()]*\)", " ", segment).strip()
        if name_part:
            unaffiliated.append(len(authors))
            authors.append(_parse_name(name_part, lexicon, None))
        if affiliations:
            label = ", ".join(a.strip() for a in affiliations if a.strip())
            if label:
                for idx in unaffiliated:
                    authors[idx] = authors[idx]._replace(affiliation=label)
            unaffiliated = []
    if not authors:
        return [AuthorName(keyname=raw)]
    return authors


# parentheses, commas, "and" and its near misses, ordinary and unusual
# whitespace (str.isspace and the regex \s must agree on all of it)
author_lines = st.lists(
    st.sampled_from(
        [
            "(", ")", ",", "and", "And", "an", "d", "nd", "andand", "a",
            " ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2009", "\u2028", "\u3000",
            "Bloggs", "Fred A", "de", "van der", "Jr.", "II", "Univ A", "é",
        ]
    ),
    max_size=24,
).map("".join)


@given(author_lines)
def test_split_matches_character_loop(raw):
    assert _split_top_level(raw) == reference_split_top_level(raw)


@given(author_lines)
def test_parse_authors_matches_reference(raw):
    assert parse_authors(raw) == reference_parse_authors(raw)


@given(st.text(alphabet="(),and \tAB ", max_size=40))
def test_split_matches_character_loop_on_any_text(raw):
    assert _split_top_level(raw) == reference_split_top_level(raw)

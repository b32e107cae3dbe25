from __future__ import annotations

import gc
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from seccite.jats import (
    MAX_DEPTH,
    ArticleStructureError,
    ExpansionError,
    JatsError,
    XmlParseError,
    expand_citation_list,
    is_research_article,
    normalize_doi,
    parse_article,
)

from conftest import make_article, ref_entries, xref
from jats_forms import DEEP, FORMS


class TestParseArticle:
    def test_minimal_fixture_counts(self):
        body = f'<sec><title>Introduction</title><p>See {xref("r1")}.</p></sec>'
        article = parse_article(make_article(body=body), "mini.xml")
        assert len(article.sections.roots) == 1
        assert len(article.sections.nodes) == 1
        assert len(article.references) == 2
        assert len(article.citations) == 1
        assert article.citations[0].ref_ids == ("r1",)
        assert article.citations[0].outer_section_node_id == article.sections.roots[0]

    def test_metadata_extraction(self):
        article = parse_article(make_article(), "meta.xml")
        record = article.record
        assert record.source_path == "meta.xml"
        assert record.article_type == "research-article"
        assert record.journal_title == "Fixture Journal"
        assert record.issn_list == ("1234-5678",)
        assert record.doi == "10.1000/fixture"
        assert record.pub_year == 2019

    def test_unicode_whitespace_collapses_to_one_space(self):
        spaces = "\x85\xa0\u1680\u2000\u2009\u2028\u2029\u202f\u205f\u3000\t\n "
        journal = f"{spaces}Fixture{spaces}Journal{spaces}"
        assert parse_article(make_article(journal=journal), "ws.xml").record.journal_title == (
            "Fixture Journal"
        )

    def test_review_article_label_is_recorded_not_discarded(self):
        article = parse_article(
            make_article(article_type="review-article"), "review.xml"
        )
        assert article.record.article_type == "review-article"
        assert not is_research_article(article.record)

    def test_missing_type_declaration(self):
        xml = make_article().replace(b' article-type="research-article"', b"")
        article = parse_article(xml, "untyped.xml")
        assert article.record.article_type == ""
        assert not is_research_article(article.record)

    def test_empty_bytes_is_parse_error(self):
        with pytest.raises(XmlParseError) as excinfo:
            parse_article(b"", "empty.xml")
        assert "empty.xml" in str(excinfo.value)
        assert excinfo.value.byte_offset == 0

    def test_malformed_xml_reports_offset_and_source(self):
        data = b"<article><front></article>"
        with pytest.raises(XmlParseError) as excinfo:
            parse_article(data, "broken.xml")
        assert "broken.xml" in str(excinfo.value)
        assert 0 <= excinfo.value.byte_offset <= len(data)

    @pytest.mark.parametrize("data, offset, column", [
        (b'<?xml version="1.0" encoding="UTF-8"?><article><front></article>', 56, 56),
        ("<article><p>caf\xe9 \u2013 \xfcber</q></article>".encode("utf-8"), 29, 25),
    ], ids=["line-1-after-declaration", "after-non-ascii-text"])
    def test_offset_is_exact(self, data, offset, column):
        with pytest.raises(XmlParseError) as excinfo:
            parse_article(data, "broken.xml")
        assert excinfo.value.byte_offset == offset
        assert data[offset - 2:offset] == b"</"  # expat points at the end tag's name
        assert str(excinfo.value).endswith(f"mismatched tag: line 1, column {column}")

    def test_missing_article_meta_is_structural_error(self):
        xml = b'<article article-type="research-article"><front></front><body/></article>'
        with pytest.raises(ArticleStructureError) as excinfo:
            parse_article(xml, "nometa.xml")
        assert "nometa.xml" in str(excinfo.value)

    def test_deep_nesting_is_structural_error(self):
        for depth in (2000, DEEP):
            body = "<sec><title>Methods</title>" + "<list>" * depth + "</list>" * depth + "</sec>"
            with pytest.raises(ArticleStructureError) as excinfo:
                parse_article(make_article(body=body), "deep.xml")
            assert "deep.xml" in str(excinfo.value)
            assert "nesting too deep" in str(excinfo.value)

    def test_nesting_cap_is_max_depth(self):
        def nested(depth: int) -> bytes:  # article (1) > body (2) > list > ... down to depth
            return make_article(body="<list>" * (depth - 2) + "</list>" * (depth - 2))

        assert parse_article(nested(MAX_DEPTH), "cap.xml").record.doi == "10.1000/fixture"
        with pytest.raises(ArticleStructureError, match="nesting too deep"):
            parse_article(nested(MAX_DEPTH + 1), "over.xml")
        with pytest.raises(XmlParseError):  # not well-formed outranks too deep
            parse_article(nested(MAX_DEPTH + 1)[:-20], "over-and-cut.xml")

    @pytest.mark.parametrize(
        "doctype, entity",
        [
            ('<!DOCTYPE article SYSTEM "JATS-archivearticle1.dtd">', "&ndash;"),
            ('<!DOCTYPE article [<!ENTITY dash SYSTEM "dash.xml">]>', "&dash;"),
        ],
    )
    def test_undefined_or_external_entity_is_parse_error(self, doctype, entity):
        # skipping the entity would join [1] and [2] into a list, not a range
        body = f"<sec><title>Introduction</title><p>{xref('r1')}{entity}{xref('r2')}</p></sec>"
        xml = make_article(body=body).replace(b"<article ", f"{doctype}\n<article ".encode(), 1)
        with pytest.raises(XmlParseError, match=f"undefined entity {entity}"):
            parse_article(xml, "entity.xml")

    def test_internal_entity_is_expanded(self):
        body = f"<sec><title>Introduction</title><p>{xref('r1')}&dash;{xref('r3')}</p></sec>"
        xml = make_article(body=body, refs=ref_entries(4)).replace(
            b"<article ", b'<!DOCTYPE article [<!ENTITY dash "&#x2013;">]>\n<article ', 1
        )
        (citation,) = parse_article(xml, "internal.xml").citations
        assert citation.ref_ids == ("r1", "r2", "r3")

    def test_parse_leaves_no_reference_cycles(self):
        # a cycle would keep each file's parse state alive until the cycle
        # collector runs, and ingest would pay for the extra collections
        data = make_article(body=f"<sec><title>Results</title><p>{xref('r1')}</p></sec>")
        gc.collect()
        gc.disable()
        try:
            # markers across inline wrappers and outside the body take other paths
            for document in (data, FORMS["inline-markers"], FORMS["outside-body"]):
                parse_article(document, "cycles.xml")
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_issn_list_split_on_semicolons(self):
        article = parse_article(make_article(issn="1234-5678; 9999-0000"), "issn.xml")
        assert article.record.issn_list == ("1234-5678", "9999-0000")

    def test_non_utf8_input_recovers_with_issue(self):
        body = f'<sec><title>Results</title><p>{xref("r1")} caf\xe9.</p></sec>'
        xml = make_article(body=body).decode("utf-8").encode("latin-1")
        article = parse_article(xml, "latin.xml")
        assert any("UTF-8" in issue for issue in article.issues)
        assert len(article.citations) == 1

    def test_reference_fields(self):
        article = parse_article(make_article(), "refs.xml")
        first, second = article.references
        assert first.ref_id == "r1"
        assert first.cited_doi == "10.2000/aaa"
        assert first.cited_journal_title == "Cited Journal One"
        assert first.cited_year == 2012
        assert first.pub_type_label == "journal"
        assert second.cited_doi == "10.2000/bbb"

    def test_nested_ref_list_reads_each_ref_once(self):
        refs = (
            '<ref-list><ref id="a"><element-citation>'
            '<pub-id pub-id-type="doi">10.2000/aaa</pub-id></element-citation></ref></ref-list>'
        )
        article = parse_article(make_article(refs=refs), "nested-refs.xml")
        assert [ref.ref_id for ref in article.references] == ["a"]
        assert article.issues == ()

    def test_citation_inside_citation_alternatives(self):
        refs = (
            '<ref id="r1"><citation-alternatives>'
            '<mixed-citation publication-type="book"><source>Mixed</source></mixed-citation>'
            '<element-citation publication-type="journal"><source>Element</source>'
            '<year>2015</year><pub-id pub-id-type="doi">10.2000/alt</pub-id></element-citation>'
            "</citation-alternatives></ref>"
        )
        (ref,) = parse_article(make_article(refs=refs), "alternatives.xml").references
        # element-citation outranks mixed-citation, as among direct children
        assert (ref.cited_doi, ref.cited_journal_title, ref.cited_year, ref.pub_type_label) == (
            "10.2000/alt", "Element", 2015, "journal"
        )

    def test_reference_without_doi_is_retained(self):
        refs = ref_entries(3, doi_for=lambda i: None if i == 2 else f"10.2000/ref{i}")
        article = parse_article(make_article(refs=refs), "nodoi.xml")
        assert len(article.references) == 3
        assert article.references[1].cited_doi is None


class TestSectionTree:
    def test_nested_sections_have_depths(self):
        body = """
        <sec sec-type="methods"><title>2 Methods</title>
          <p>Top.</p>
          <sec><title>2.1 Data</title><p>Nested.</p>
            <sec><title>2.1.1 Deep</title><p>Deeper.</p></sec>
          </sec>
        </sec>
        """
        article = parse_article(make_article(body=body), "nested.xml")
        depths = sorted(node.depth for node in article.sections.nodes.values())
        assert depths == [1, 2, 3]
        root = article.sections.nodes[article.sections.roots[0]]
        assert root.sec_type == "methods"
        assert root.title_raw == "2 Methods"
        assert len(root.children) == 1

    def test_no_invented_sections(self):
        article = parse_article(make_article(body="<p>No sections at all.</p>"), "flat.xml")
        assert article.sections.nodes == {}
        assert article.sections.roots == ()

    def test_abstract_sections_are_not_body_sections(self):
        abstract = "<sec><title>Methods</title><p>Structured abstract.</p></sec>"
        body = '<sec><title>Results</title><p>Body.</p></sec>'
        article = parse_article(
            make_article(body=body, abstract=abstract), "absec.xml"
        )
        assert len(article.sections.nodes) == 1
        title = next(iter(article.sections.nodes.values())).title_raw
        assert title == "Results"


class TestMarkerLocation:
    def test_marker_in_subsection_attributed_to_outer(self):
        body = f"""
        <sec><title>2 Methods</title><p>Intro text.</p>
          <sec><title>2.1 Data</title><p>Nested {xref("r1")}.</p></sec>
        </sec>
        """
        article = parse_article(make_article(body=body), "sub.xml")
        (citation,) = article.citations
        outer = article.sections.nodes[citation.outer_section_node_id]
        assert outer.depth == 1
        assert outer.title_raw == "2 Methods"

    def test_abstract_marker_has_no_section(self):
        article = parse_article(
            make_article(abstract=f"<p>Seen in {xref('r1')}.</p>"), "abs.xml"
        )
        (citation,) = article.citations
        assert citation.outer_section_node_id is None

    def test_marker_in_body_outside_sections(self):
        article = parse_article(
            make_article(body=f"<p>Bare {xref('r1')}.</p>"), "bare.xml"
        )
        (citation,) = article.citations
        assert citation.outer_section_node_id is None

    def test_two_markers_same_ref_two_records(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>First {xref('r1')} and later {xref('r1')} again.</p></sec>"
        )
        article = parse_article(make_article(body=body), "two.xml")
        assert len(article.citations) == 2
        assert all(c.ref_ids == ("r1",) for c in article.citations)

    def test_comma_joined_xrefs_form_one_marker(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Known {xref('r1')}, {xref('r2')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "comma.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r1", "r2")

    def test_xrefs_joined_across_unicode_whitespace_form_one_marker(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Known {xref('r1')}\xa0,\u2009{xref('r2')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "nbsp.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r1", "r2")

    def test_adjacent_xrefs_in_sup_form_one_marker(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Known<sup>{xref('r1')},{xref('r2')}</sup>.</p></sec>"
        )
        article = parse_article(make_article(body=body), "sup.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r1", "r2")

    def test_words_between_xrefs_split_markers(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>By {xref('r1')} and also {xref('r2')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "words.xml")
        assert len(article.citations) == 2

    def test_paragraph_boundary_splits_markers(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>End {xref('r1')}</p><p>{xref('r2')} start.</p></sec>"
        )
        article = parse_article(make_article(body=body), "para.xml")
        assert len(article.citations) == 2

    def test_multi_rid_xref(self):
        body = (
            "<sec><title>Introduction</title>"
            '<p>Both <xref ref-type="bibr" rid="r1 r2">[1, 2]</xref>.</p></sec>'
        )
        article = parse_article(make_article(body=body), "idrefs.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r1", "r2")

    def test_untyped_xref_resolving_to_refs_counts(self):
        body = (
            "<sec><title>Introduction</title>"
            '<p>Legacy <xref rid="r1">[1]</xref>.</p></sec>'
        )
        article = parse_article(make_article(body=body), "untypedref.xml")
        assert len(article.citations) == 1

    def test_figure_xref_ignored_and_breaks_adjacency(self):
        body = (
            "<sec><title>Results</title>"
            f'<p>{xref("r1")}<xref ref-type="fig" rid="f1">Fig 1</xref>{xref("r2")}.</p></sec>'
        )
        article = parse_article(make_article(body=body), "figref.xml")
        assert len(article.citations) == 2
        assert {c.ref_ids for c in article.citations} == {("r1",), ("r2",)}

    def test_citations_in_document_order(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>First {xref('r1')} then more text {xref('r2')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "order.xml")
        assert [c.ref_ids for c in article.citations] == [("r1",), ("r2",)]


def _located(article) -> list[tuple[str | None, tuple[str, ...]]]:
    """(outer section title, ref-ids) per citation."""
    nodes = article.sections.nodes
    return [(c.outer_section_node_id and nodes[c.outer_section_node_id].title_raw, c.ref_ids)
            for c in article.citations]


class TestFormsSynthNeverWrites:
    """The documents of jats_forms.FORMS, which the synthetic corpora lack."""

    def test_default_namespace_and_prefixed_element(self):
        article = parse_article(FORMS["namespaced"], "ns.xml")
        record = article.record
        assert (record.article_type, record.journal_title, record.issn_list, record.doi,
                record.pub_year) == ("research-article", "Form Journal", ("1234-5678",),
                                     "10.1000/form", 2019)
        assert [ref.cited_doi for ref in article.references] == [
            f"10.2000/ref{n}" for n in range(1, 5)]
        # the MathML element is a block boundary, as any non-inline element is
        assert _located(article) == [
            ("Methods", ("r1", "r2")), ("Methods", ("r1",)), ("Methods", ("r2",))]

    def test_ext_link_doi(self):
        article = parse_article(FORMS["ext-link-doi"], "ext.xml")
        assert [ref.cited_doi for ref in article.references] == ["10.2000/ext1", "10.2000/ext2"]

    def test_citation_and_nlm_citation_precedence(self):
        article = parse_article(FORMS["citation-kinds"], "kinds.xml")
        assert [(ref.cited_doi, ref.cited_journal_title, ref.cited_year, ref.pub_type_label)
                for ref in article.references] == [
            (None, "Citation", 2002, "book"),
            ("10.2000/nlm", "Only NLM", None, "journal"),
            (None, "Mixed", None, "journal"),
        ]

    def test_markers_in_and_across_inline_wrappers(self):
        article = parse_article(FORMS["inline-markers"], "inline.xml")
        assert [ref_ids for _, ref_ids in _located(article)] == [
            ("r1", "r2"), ("r1", "r2"), ("r1", "r2", "r3"), ("r2", "r3", "r4"),
            ("r1",), ("r2",), ("r3",), ("r4",)]

    def test_xref_in_figure_caption_belongs_to_its_section(self):
        article = parse_article(FORMS["figure-caption"], "fig.xml")
        assert len(article.sections.nodes) == 1
        assert _located(article) == [("Results", ("r1",))]

    def test_abstract_and_back_matter_markers_have_no_section(self):
        article = parse_article(FORMS["outside-body"], "back.xml")
        assert [node.title_raw for node in article.sections.nodes.values()] == ["Methods"]
        assert _located(article) == [
            (None, ("r1", "r2")), ("Methods", ("r2",)), (None, ("r3",)), (None, ("r4",)),
            (None, ("r1", "r3", "r4"))]

    def test_sec_and_body_inside_citation_xref_are_not_sections(self):
        article = parse_article(FORMS["inside-xref"], "inside.xml")
        (node,) = article.sections.nodes.values()
        assert (node.title_raw, node.depth, node.children) == ("Introduction", 1, ())
        assert _located(article) == [(None, ("r3",)), ("Introduction", ("r1", "r2"))]


class TestRangeExpansion:
    def test_range_marker_in_document(self):
        refs = ref_entries(10)
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Seen {xref('r3')}-{xref('r6')}.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=refs), "range.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r3", "r4", "r5", "r6")

    def test_en_dash_range(self):
        refs = ref_entries(6)
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Seen {xref('r2')}–{xref('r4')}.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=refs), "endash.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r2", "r3", "r4")

    def test_reversed_range_recorded_and_skipped(self):
        refs = ref_entries(6)
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Bad {xref('r5')}-{xref('r2')} but {xref('r1')} fine.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=refs), "rev.xml")
        assert len(article.citations) == 1
        assert article.citations[0].ref_ids == ("r1",)
        assert any("reversed range" in issue for issue in article.issues)

    def test_unknown_range_endpoint_recorded_and_skipped(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Bad {xref('r1')}-{xref('r9')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "unknown.xml")
        assert article.citations == ()
        assert any("r9" in issue for issue in article.issues)

    def test_unknown_single_rid_dropped_not_fatal(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Mixed {xref('r1')}, {xref('r9')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "drop.xml")
        (citation,) = article.citations
        assert citation.ref_ids == ("r1",)
        assert any("r9" in issue for issue in article.issues)

    @pytest.mark.parametrize(
        "cited, expected",
        [
            (("r1", "-", "r3", ",", "r9"), ("r1", "r2", "r3")),
            (("r9", ",", "r1", "-", "r3"), ("r1", "r2", "r3")),
            (("r1", ",", "r8", ",", "r9", ",", "r3", "–", "r5"), ("r1", "r3", "r4", "r5")),
        ],
    )
    def test_dropped_rid_keeps_range_elsewhere(self, cited, expected):
        tokens = [xref(t) if t.startswith("r") else t for t in cited]
        body = f"<sec><title>Introduction</title><p>Mixed {' '.join(tokens)}.</p></sec>"
        article = parse_article(make_article(body=body, refs=ref_entries(5)), "keep.xml")
        (citation,) = article.citations
        assert citation.ref_ids == expected
        assert any("r9" in issue for issue in article.issues)

    def test_dropped_rid_then_reversed_range_issues_in_order(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>Bad {xref('r9')}, {xref('r5')}-{xref('r2')}.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=ref_entries(6)), "order.xml")
        assert article.citations == ()
        assert article.issues == (
            "unknown reference id(s) dropped: r9",
            "citation skipped: reversed range 'r5'-'r2'",
        )

    def test_reference_id_that_is_a_separator_is_cited(self):
        refs = (
            '<ref id="-"><element-citation publication-type="journal">'
            "<source>Dash Journal</source><year>2015</year></element-citation></ref>"
        )
        body = f"<sec><title>Introduction</title><p>See {xref('-', '1')}.</p></sec>"
        article = parse_article(make_article(body=body, refs=refs), "dash.xml")
        assert [c.ref_ids for c in article.citations] == [("-",)]
        assert article.issues == ()


_KNOWN = [f"r{i}" for i in range(1, 11)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_KNOWN),
    st.lists(st.tuples(st.sampled_from((",", "-", "–")), st.sampled_from(_KNOWN)), max_size=6),
    st.sampled_from(("", " ")),
)
def test_marker_body_parses_like_expand_citation_list(first, rest, space):
    """A marker written from known ids and separators cites exactly what
    expand_citation_list gives for its tokens; a reversed range skips it."""
    tokens = (first, *(token for pair in rest for token in pair))
    body = "".join(space + (t if t in (",", "-", "–") else xref(t)) for t in tokens)
    data = make_article(body=f"<sec><title>Introduction</title><p>See{body}.</p></sec>",
                        refs=ref_entries(10))
    article = parse_article(data, "prop.xml")
    try:
        expected = expand_citation_list(tokens, _KNOWN)
    except ExpansionError:
        assert article.citations == ()
        assert len(article.issues) == 1
        assert article.issues[0].startswith("citation skipped: reversed range")
    else:
        assert [c.ref_ids for c in article.citations] == [expected]
        assert article.issues == ()


_FUZZ_BASE = make_article(
    body=(
        "<sec><title>Introduction</title>"
        f"<p>See {xref('r1')}–{xref('r3')}, {xref('r2')} and "
        '<xref rid="r4">[4]</xref>.</p></sec>'
    ),
    refs=ref_entries(4),
)
# Each inserted at a random byte or after a random tag.
_FUZZ_INSERTS = (
    b"<list>" * (MAX_DEPTH + 5) + b"</list>" * (MAX_DEPTH + 5),
    b"<list>" * 40,
    b'<xref ref-type="bibr" rid="r1">[1]</xref>',
    b'<xref rid="r9 r1">[9]</xref>',
    b'<xref ref-type="bibr" rid=" ">[?]</xref>',
    b'<xref rid="r2"><xref ref-type="bibr" rid="r3"/><sec><title>X</title></sec></xref>',
    b'<ref id="r1"><mixed-citation><pub-id pub-id-type="doi">10.2/d</pub-id></mixed-citation></ref>',
    b"<ref-list><ref><citation-alternatives><element-citation/></citation-alternatives></ref>"
    b"</ref-list>",
    b'<sec id="s1"><title>Methods</title>',
    b"</sec>",
    b"&nbsp;",
    b"&int;",
    b"&ext;",
    b"&#x2013;",
    b"&#0;",
    b"\xff",
    b"\xc3(",
    b"\xed\xa0\x80",
)
_FUZZ_DOCTYPES = (
    b"",
    b'<!DOCTYPE article SYSTEM "JATS-archivearticle1.dtd">\n',
    b'<!DOCTYPE article [<!ENTITY int "&#x2013;"><!ENTITY ext SYSTEM "ext.xml">]>\n',
)


@st.composite
def mutated_articles(draw) -> bytes:
    """Truncated or spliced articles, with deep nesting, stray and duplicate
    xrefs and ids, undefined, external and internal entities, and bad UTF-8."""
    doc = bytearray(_FUZZ_BASE)
    doctype = draw(st.sampled_from(_FUZZ_DOCTYPES))
    root = doc.index(b"<article ")
    doc[root:root] = doctype
    for _ in range(draw(st.integers(0, 4))):
        after_tags = [i + 1 for i, byte in enumerate(doc) if byte == ord(">")]
        at = draw(st.integers(0, len(doc)) | st.sampled_from(after_tags))
        doc[at:at] = draw(st.sampled_from(_FUZZ_INSERTS))
    if draw(st.booleans()):
        del doc[draw(st.integers(0, len(doc))):]
    return bytes(doc)


@settings(max_examples=200, deadline=None)
@given(mutated_articles())
def test_mutated_article_parses_or_raises_jats_error(data):
    try:
        parse_article(data, "fuzz.xml")
    except XmlParseError as exc:
        assert 0 <= exc.byte_offset <= len(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return  # the offset is into the repaired bytes
        # the message's position is that of the offset in the bytes
        before = data[:exc.byte_offset].decode("utf-8")
        line, column = re.search(r"line (\d+), column (\d+)$", str(exc)).groups()
        assert (int(line), int(column)) == (before.count("\n") + 1,
                                            len(before) - before.rfind("\n") - 1)
    except JatsError:
        pass


class TestExpandCitationList:
    ALL = [f"r{i}" for i in range(1, 11)]

    def test_range(self):
        assert expand_citation_list(("r3", "-", "r6"), self.ALL) == ("r3", "r4", "r5", "r6")

    def test_singleton(self):
        assert expand_citation_list(("r7",), self.ALL) == ("r7",)

    def test_union(self):
        assert expand_citation_list(("r2", ",", "r5"), self.ALL) == ("r2", "r5")

    def test_duplicates_collapse(self):
        assert expand_citation_list(("r2", ",", "r2"), self.ALL) == ("r2",)

    def test_chained_ranges(self):
        got = expand_citation_list(("r1", "-", "r3", "-", "r5"), self.ALL)
        assert got == ("r1", "r2", "r3", "r4", "r5")

    def test_reversed_range_raises(self):
        with pytest.raises(ExpansionError, match="reversed"):
            expand_citation_list(("r6", "-", "r3"), self.ALL)

    def test_unknown_endpoint_raises(self):
        with pytest.raises(ExpansionError, match="r99"):
            expand_citation_list(("r1", "-", "r99"), self.ALL)

    def test_empty_marker_raises(self):
        with pytest.raises(ExpansionError):
            expand_citation_list((), self.ALL)

    def test_malformed_sequence_raises(self):
        with pytest.raises(ExpansionError):
            expand_citation_list(("r1", "r2"), self.ALL)
        with pytest.raises(ExpansionError):
            expand_citation_list((",", "r1"), self.ALL)

    def test_order_uses_reference_list_not_labels(self):
        # document order decides between-ness even for unordered ids
        refs = ["b", "z", "a", "q"]
        assert expand_citation_list(("b", "-", "a"), refs) == ("b", "z", "a")

    def test_output_subset_and_contains_endpoints(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(2, 12)
            all_refs = [f"r{i}" for i in range(1, n + 1)]
            tokens: list[str] = []
            picks = rng.randint(1, 4)
            explicit = []
            for k in range(picks):
                if tokens:
                    tokens.append(rng.choice((",", "-", "–")))
                ref = rng.choice(all_refs)
                tokens.append(ref)
                explicit.append(ref)
            try:
                out = expand_citation_list(tuple(tokens), all_refs)
            except ExpansionError:
                continue  # reversed ranges are allowed to fail
            assert set(out) <= set(all_refs)
            assert set(explicit) <= set(out)
            assert len(set(out)) == len(out)


class TestDeterminism:
    def test_reparse_is_identical(self):
        refs = ref_entries(8)
        body = (
            "<sec><title>Introduction</title>"
            f"<p>A {xref('r1')}, {xref('r2')} and {xref('r3')}-{xref('r5')}.</p></sec>"
            f"<sec><title>Discussion</title><p>B {xref('r2')}.</p></sec>"
        )
        data = make_article(body=body, refs=refs)
        first = parse_article(data, "same.xml")
        second = parse_article(data, "same.xml")
        assert first == second
        multiset = Counter(rid for c in first.citations for rid in c.ref_ids)
        again = Counter(rid for c in second.citations for rid in c.ref_ids)
        assert multiset == again


class TestNormalizeDoi:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("https://doi.org/10.1000/ABC", "10.1000/abc"),
            ("  10.1000/xyz ", "10.1000/xyz"),
            ("PMC12345", None),
            ("doi:10.1000/mixed.Case", "10.1000/mixed.case"),
            ("http://dx.doi.org/10.22/a/b", "10.22/a/b"),
            ("DOI: 10.5555/x", "10.5555/x"),
            ("10.1000", None),
            ("11.1000/abc", None),
            ("", None),
            (None, None),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_doi(raw) == expected

    def test_idempotent_on_success(self):
        rng = random.Random(7)
        alphabet = "abcXYZ019./-_"
        for _ in range(200):
            raw = "10." + "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
            first = normalize_doi(raw)
            if first is not None:
                assert normalize_doi(first) == first

"""JATS forms that `seccite synth` never writes, as fixed article documents.

tests/test_jats.py pins how each one parses, and tests/parse_parity.py
parses them after its generated inputs. This module imports nothing from
seccite, so the parity command can load it before it picks a source tree.
"""

from __future__ import annotations

DEEP = 200_000  # levels of <list> in the "deep" document


def xref(n: int) -> str:
    return f'<xref ref-type="bibr" rid="r{n}">[{n}]</xref>'


def citation(n: int) -> str:
    return (f'<element-citation publication-type="journal"><source>Cited Journal {n}</source>'
            f'<year>201{n}</year><pub-id pub-id-type="doi">10.2000/ref{n}</pub-id>'
            "</element-citation>")


REFS = "".join(f'<ref id="r{n}">{citation(n)}</ref>' for n in range(1, 5))


def article(body: str = "", refs: str = REFS, abstract: str = "<p>An abstract.</p>",
            back: str = "", root_attributes: str = "") -> bytes:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<article article-type="research-article"{root_attributes}>\n'
        "<front><journal-meta><journal-title-group><journal-title>Form Journal"
        "</journal-title></journal-title-group><issn>1234-5678</issn></journal-meta>\n"
        '<article-meta><article-id pub-id-type="doi">10.1000/form</article-id>'
        f"<pub-date><year>2019</year></pub-date><abstract>{abstract}</abstract>"
        "</article-meta></front>\n"
        f"<body>{body}</body>\n<back>{back}<ref-list>{refs}</ref-list></back>\n</article>"
    ).encode("utf-8")


FORMS = {
    # A default namespace on the root, and a prefixed MathML element between two xrefs.
    "namespaced": article(
        body=f"<sec><title>Methods</title><p>See {xref(1)}, {xref(2)} and {xref(1)}"
             f"<mml:math><mml:mi>x</mml:mi></mml:math>{xref(2)}.</p></sec>",
        root_attributes=' xmlns="http://jats.nlm.nih.gov/ns/archiving/1.3/"'
                        ' xmlns:mml="http://www.w3.org/1998/Math/MathML"',
    ),
    # DOIs in ext-link: the first DOI-typed field that reads as a DOI wins,
    # whichever of pub-id and ext-link it is.
    "ext-link-doi": article(refs=(
        '<ref id="r1"><element-citation publication-type="journal">'
        '<ext-link ext-link-type="uri">https://example.org/r1</ext-link>'
        '<ext-link ext-link-type="doi">https://doi.org/10.2000/EXT1</ext-link>'
        '<pub-id pub-id-type="doi">10.2000/pub1</pub-id></element-citation></ref>'
        '<ref id="r2"><element-citation publication-type="journal">'
        '<pub-id pub-id-type="doi">not a doi</pub-id>'
        '<ext-link ext-link-type="doi">10.2000/ext2</ext-link></element-citation></ref>'
    )),
    # citation outranks nlm-citation, and mixed-citation outranks citation.
    "citation-kinds": article(refs=(
        '<ref id="r1"><citation-alternatives>'
        '<nlm-citation publication-type="journal"><source>NLM</source><year>2001</year>'
        "</nlm-citation>"
        '<citation publication-type="book"><source>Citation</source><year>2002</year></citation>'
        "</citation-alternatives></ref>"
        '<ref id="r2"><nlm-citation publication-type="journal"><source>Only NLM</source>'
        '<pub-id pub-id-type="doi">10.2000/nlm</pub-id></nlm-citation></ref>'
        '<ref id="r3"><citation-alternatives>'
        '<citation publication-type="book"><source>Citation</source></citation>'
        '<mixed-citation publication-type="journal"><source>Mixed</source></mixed-citation>'
        "</citation-alternatives></ref>"
    )),
    # Markers in and across inline wrappers; a block element inside one splits.
    "inline-markers": article(body=(
        "<sec><title>Introduction</title>"
        f"<p>One<sup>{xref(1)},{xref(2)}</sup>.</p>"
        f"<p>Two<sup>{xref(1)}</sup>,<sup>{xref(2)}</sup>.</p>"
        f"<p>Three {xref(1)}<italic>–</italic>{xref(3)}.</p>"
        f"<p>Four<sup>{xref(2)}</sup><sup>–</sup><sup>{xref(4)}</sup>.</p>"
        f"<p>Five {xref(1)}<bold>, and</bold> {xref(2)}.</p>"
        f"<p>Six<sup>{xref(3)}</sup><sup><break/>,</sup><sup>{xref(4)}</sup>.</p>"
        "</sec>"
    )),
    "figure-caption": article(body=(
        "<sec><title>Results</title><p>Text.</p><fig id=\"f1\"><label>Figure 1</label>"
        f"<caption><p>From {xref(1)}.</p></caption></fig></sec>"
    )),
    # Only body sections are sections; abstract and back-matter markers have none.
    "outside-body": article(
        body=f"<sec><title>Methods</title><p>Body {xref(2)}.</p></sec>",
        abstract=f"<p>Known {xref(1)}, {xref(2)}.</p>",
        back=(f"<ack><p>Thanks {xref(3)}.</p></ack>"
              f"<app-group><app><sec><title>Appendix</title><p>See {xref(4)}.</p></sec></app>"
              f"</app-group><fn-group><fn><p>Note {xref(1)}; {xref(3)}–{xref(4)}.</p></fn>"
              "</fn-group>"),
    ),
    # A sec and a body inside citation xrefs are read as part of the xref.
    "inside-xref": article(
        body=('<sec><title>Introduction</title><p>See <xref ref-type="bibr" rid="r1">'
              "<sec><title>Inner</title></sec><body><sec><title>Deeper</title></sec></body>"
              f"[1]</xref>, {xref(2)}.</p></sec>"),
        abstract=('<p>Also <xref rid="r3"><body><sec><title>Abstract inner</title></sec>'
                  "</body>[3]</xref>.</p>"),
    ),
    "deep": article(body="<list>" * DEEP + "</list>" * DEEP),
}

"""JATS XML ingestion: metadata, section tree, references, in-text citations.

One article file goes in, one immutable ParsedArticle comes out. Parsing is
lossless for the four concerns the pipeline needs (metadata, body section
tree, reference list, located citation markers) and does no section-name
normalization; that happens downstream.

xml.etree's C parser turns the file's bytes into one element tree, and all
four are read from it by lookup: find and iter for the front matter, the
references and the sections, and a parent map for section nesting and marker
adjacency. No Python code runs per element while the tree is built.

Citation markers are runs of adjacent bibliographic cross-references. Two
cross-references joined by text that is exactly a hyphen/en-dash/em-dash
(after whitespace removal) form a range over the reference list; commas,
semicolons or nothing join them into one multi-reference marker. Any other
text, or a block-element boundary, separates markers.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import chain
from typing import Container, Mapping, Sequence


class JatsError(ValueError):
    """Base class for article ingestion failures."""


class XmlParseError(JatsError):
    """Input is not well-formed XML. byte_offset is where expat found the error
    (for input with bad UTF-8, in the repaired bytes, capped at the input's length)."""

    def __init__(self, source: str, byte_offset: int, detail: str):
        super().__init__(f"{source}: malformed XML at byte {byte_offset}: {detail}")
        self.source = source
        self.byte_offset = byte_offset


class ArticleStructureError(JatsError):
    """Well-formed XML that is missing the article metadata block."""

    def __init__(self, source: str, detail: str):
        super().__init__(f"{source}: {detail}")
        self.source = source


class ExpansionError(JatsError):
    """A citation marker's reference list could not be expanded."""


@dataclass(frozen=True)
class ArticleRecord:
    """Citing-article metadata. article_type is exactly what the document
    declares ("" when absent); no inference."""

    source_path: str
    article_type: str
    journal_title: str
    issn_list: tuple[str, ...]
    doi: str | None
    pub_year: int | None


@dataclass(frozen=True)
class SectionNode:
    node_id: str
    depth: int
    sec_type: str | None
    title_raw: str | None
    children: tuple[str, ...]


@dataclass(frozen=True)
class SectionTree:
    """Body section nodes indexed by id; depth-1 nodes are the outer sections."""

    nodes: Mapping[str, SectionNode]
    roots: tuple[str, ...]


@dataclass(frozen=True)
class ReferenceEntry:
    ref_id: str
    cited_doi: str | None
    cited_journal_title: str | None
    cited_year: int | None
    pub_type_label: str | None


@dataclass(frozen=True)
class InTextCitation:
    """One located citation marker, post range-expansion.

    outer_section_node_id is None when the marker lies outside any body
    section (abstract, back matter, bare body text).
    """

    outer_section_node_id: str | None
    ref_ids: tuple[str, ...]


@dataclass(frozen=True)
class ParsedArticle:
    record: ArticleRecord
    sections: SectionTree
    references: tuple[ReferenceEntry, ...]
    citations: tuple[InTextCitation, ...]
    issues: tuple[str, ...]

    def reference_map(self) -> dict[str, ReferenceEntry]:
        out: dict[str, ReferenceEntry] = {}
        for ref in self.references:
            out.setdefault(ref.ref_id, ref)
        return out


_DOI_PREFIXES = ("doi:", "https://doi.org/", "http://doi.org/",
                 "https://dx.doi.org/", "http://dx.doi.org/")
_DOI_SHAPE = re.compile(r"^10\.[^/\s]+/\S+$")


def normalize_doi(raw: str | None) -> str | None:
    """Canonicalize a DOI: trim, drop resolver prefixes, lowercase.

    Returns None when the remainder is not shaped like ``10.<registrant>/<suffix>``.
    Idempotent on its own successful output.
    """
    if raw is None:
        return None
    text = raw.strip().lower()
    while text.startswith(_DOI_PREFIXES):  # no two prefixes match at once
        prefix = next(prefix for prefix in _DOI_PREFIXES if text.startswith(prefix))
        text = text[len(prefix):].strip()
    if not _DOI_SHAPE.match(text):
        return None
    return text


def is_research_article(record: ArticleRecord) -> bool:
    return record.article_type == "research-article"


RANGE_SEPARATORS = ("-", "–", "—")
LIST_SEPARATOR = ","
_SEPARATORS = frozenset(RANGE_SEPARATORS) | {LIST_SEPARATOR}


def expand_citation_list(
    tokens: Sequence[str], all_refs: Sequence[str]
) -> tuple[str, ...]:
    """Expand a marker's token sequence into its ordered set of ref-ids.

    ``tokens`` alternates ref-ids with separator tokens ("," or a dash). A
    dash joins its two flanking ref-ids into an inclusive range in
    reference-list order. Duplicates collapse, keeping first position.

    Raises ExpansionError for reversed ranges, unknown ref-ids, or a
    malformed token sequence.
    """
    if not tokens:
        raise ExpansionError("empty citation marker")
    refs = tokens[0::2]
    seps = tokens[1::2]
    if len(refs) != len(seps) + 1 or any(r in _SEPARATORS for r in refs) or any(
        s not in _SEPARATORS for s in seps
    ):
        raise ExpansionError(f"malformed marker tokens {tuple(tokens)!r}")
    order = {ref_id: i for i, ref_id in enumerate(all_refs)}
    for ref_id in refs:
        if ref_id not in order:
            raise ExpansionError(f"unknown reference id {ref_id!r}")
    return _expand(list(zip((None, *seps), refs)), all_refs, order)


# A marker as the parse pass reads it: (separator before it, ref-id) per
# ref-id, the first separator being None or unread.
_Pairs = Sequence[tuple[str | None, str]]


def _expand(pairs: _Pairs, all_refs: Sequence[str], order: Mapping[str, int]) -> tuple[str, ...]:
    """The ref-ids a marker of known ids cites; `order` maps each ref-id to
    its position in `all_refs`. The first pair's separator is not read."""
    (_, previous), *rest = pairs
    out = {previous: None}
    for sep, ref_id in rest:
        if sep in RANGE_SEPARATORS:
            lo, hi = order[previous], order[ref_id]
            if hi < lo:
                raise ExpansionError(f"reversed range {previous!r}-{ref_id!r}")
            out.update(dict.fromkeys(all_refs[lo : hi + 1]))
        else:
            out[ref_id] = None
        previous = ref_id
    return tuple(out)


def _resolve(
    pairs: _Pairs, all_refs: Sequence[str], order: Mapping[str, int], issues: list[str]
) -> tuple[str, ...]:
    """The ref-ids a parsed marker cites, () when it is skipped or left empty.

    An unknown ref-id next to a dash skips the marker; other unknown ref-ids
    are dropped, and each kept ref-id keeps the separator in front of it.
    Each skip and drop is recorded in `issues`.
    """
    unknown = [i for i, (_, ref_id) in enumerate(pairs) if ref_id not in order]
    for i in unknown:
        after = pairs[i + 1][0] if i + 1 < len(pairs) else None
        if pairs[i][0] in RANGE_SEPARATORS or after in RANGE_SEPARATORS:
            issues.append(f"citation skipped: unknown range endpoint {pairs[i][1]!r}")
            return ()
    if unknown:
        issues.append(
            f"unknown reference id(s) dropped: {', '.join(pairs[i][1] for i in unknown)}"
        )
        pairs = [pair for pair in pairs if pair[1] in order]
        if not pairs:
            return ()
    try:
        return _expand(pairs, all_refs, order)
    except ExpansionError as exc:
        issues.append(f"citation skipped: {exc}")
        return ()


_YEAR = re.compile(r"\d{4}")


def _parse_year(text: str | None) -> int | None:
    if not text:
        return None
    if len(text) == 4 and text.isdecimal():
        return int(text)
    match = _YEAR.search(text)
    return int(match.group()) if match else None


# Inline formatting elements never break marker adjacency; everything else does.
_INLINE_TAGS = frozenset(
    {"sup", "sub", "italic", "bold", "underline", "sc", "strike", "roman",
     "sans-serif", "monospace", "overline", "named-content", "styled-content"}
)


# Deepest element nesting parse_article reads, the root being depth 1.
MAX_DEPTH = 1000

# Text that may join two citation xrefs into one marker, and the token it becomes.
_JOINERS = {"": LIST_SEPARATOR, ",": LIST_SEPARATOR, ";": LIST_SEPARATOR,
            **{dash: dash for dash in RANGE_SEPARATORS}}
# Reference fields that hold a DOI when their <tag>-type attribute says "doi".
_DOI_FIELDS = ("pub-id", "ext-link")
# A reference's citation elements, best kind first.
_CITATION_RANK = {tag: rank for rank, tag in enumerate(
    ("element-citation", "mixed-citation", "citation", "nlm-citation"))}


def _build_tree(data: bytes) -> ET.Element:
    """Parse `data` as UTF-8, whatever encoding it declares, into an element
    tree whose tags are local names. An undefined or external entity is a
    ParseError."""
    parser = ET.XMLParser(encoding="utf-8")
    parser.feed(data)
    root = parser.close()
    # Only an xmlns attribute declares a namespace, written out or in an
    # entity's text; without either, every tag is a local name already.
    if b"xmlns" in data or b"<!ENTITY" in data:
        for element in root.iter():
            element.tag = element.tag.rpartition("}")[2]
    return root


def _too_deep(root: ET.Element) -> bool:
    """Whether elements nest deeper than MAX_DEPTH, `root` being depth 1."""
    if len(list(root.iter())) <= MAX_DEPTH:  # no deeper than there are elements
        return False
    level = [root]
    for _ in range(MAX_DEPTH):  # then one level deeper each time
        level = list(chain.from_iterable(level))
        if not level:
            return False
    return True


def _text(element: ET.Element) -> str:
    """All the text inside `element`, each run of whitespace made one space,
    none at either end."""
    return " ".join(("".join(element.itertext()) if len(element) else element.text or "").split())


def _outermost(root: ET.Element, tag: str) -> list[ET.Element]:
    """The `tag` elements of `root` that lie inside no other `tag` element."""
    inner: set[ET.Element] = set()
    outer = []
    for element in root.iter(tag):
        if element not in inner:
            outer.append(element)
            inner.update(element.iter(tag))
    return outer


def _record(root: ET.Element, source: str) -> ArticleRecord:
    """The article metadata of the first front's first journal- and article-meta."""
    front = root.find("front")
    article_meta = None if front is None else front.find("article-meta")
    if article_meta is None:
        raise ArticleStructureError(source, "missing front/article-meta block")
    journal_meta = front.find("journal-meta")
    if journal_meta is None:
        journal_meta = ET.Element("journal-meta")  # read as an empty block
    issns = (part.strip() for issn in journal_meta.iter("issn") for part in _text(issn).split(";"))
    doi = next((e for e in article_meta.iter("article-id") if e.get("pub-id-type") == "doi"), None)
    years = (_parse_year(_text(year)) for date in article_meta.iter("pub-date")
             if (year := date.find("year")) is not None)
    return ArticleRecord(
        source_path=source,
        article_type=root.get("article-type") or "",
        journal_title=next(filter(None, map(_text, journal_meta.iter("journal-title"))), ""),
        issn_list=tuple(dict.fromkeys(filter(None, issns))),
        doi=None if doi is None else normalize_doi(_text(doi)),
        pub_year=next((year for year in years if year is not None), None),
    )


def _references(root: ET.Element, issues: list[str]) -> list[ReferenceEntry]:
    """Every ref inside a ref-list, in document order. Each is read from its
    first citation of the best kind, direct or in a <citation-alternatives>:
    each field from the first element that gives it a value."""
    references: list[ReferenceEntry] = []
    seen: set[str] = set()
    anon = 0
    for ref in (ref for ref_list in _outermost(root, "ref-list") for ref in ref_list.iter("ref")):
        ref_id = ref.get("id") or ""
        if not ref_id:
            anon += 1
            ref_id = f"_anon{anon}"
        if ref_id in seen:
            issues.append(f"duplicate reference id {ref_id!r}; later entry kept unresolvable")
            ref_id = f"{ref_id}__dup{len(references)}"
        seen.add(ref_id)
        best, rank = None, len(_CITATION_RANK)
        for child in ref[:]:
            for cite in child[:] if child.tag == "citation-alternatives" else (child,):
                if _CITATION_RANK.get(cite.tag, rank) < rank:
                    best, rank = cite, _CITATION_RANK[cite.tag]
        doi = source = year = None
        for field in () if best is None else best.iter():
            tag = field.tag
            if tag == "source":
                source = source or _text(field) or None
            elif tag == "year":
                year = _parse_year(_text(field)) if year is None else year
            elif doi is None and tag in _DOI_FIELDS and field.get(tag + "-type") == "doi":
                doi = normalize_doi(_text(field))
        references.append(ReferenceEntry(
            ref_id, doi, source, year, None if best is None else best.get("publication-type"),
        ))
    return references


def _citation_xrefs(root: ET.Element) -> tuple[list[tuple[ET.Element, list[str], bool]], set]:
    """(xref, rids, typed) per citation xref, and the elements inside them.

    A citation xref has rids and no ref-type other than bibr; one inside
    another is read as part of it. An untyped one cites only if all its rids
    name references, which the caller checks.
    """
    xrefs = []
    inside: set[ET.Element] = set()
    for xref in root.iter("xref"):
        ref_type = xref.get("ref-type")
        rids = (xref.get("rid") or "").split()
        if xref in inside or not rids or ref_type not in (None, "bibr"):
            continue
        xrefs.append((xref, rids, ref_type is not None))
        if len(xref):
            inside.update(xref.iter())
    return xrefs, inside


def _section_tree(root: ET.Element, parents: Mapping, inside_xrefs: set):
    """The sections, sec elements inside a body and outside citation xrefs,
    numbered in document order; and each xref's outer section."""
    found: dict[ET.Element, list] = {}  # sec -> [id, depth, sec-type, title, children]
    roots: list[str] = []
    for sec in (sec for body in _outermost(root, "body") for sec in body.iter("sec")
                if sec not in inside_xrefs):
        node_id = f"s{len(found) + 1}"
        above = parents.get(sec)
        while above is not None and above not in found:
            above = parents.get(above)
        (roots if above is None else found[above][4]).append(node_id)
        title = sec.find("title")
        found[sec] = [node_id, 1 if above is None else found[above][1] + 1, sec.get("sec-type"),
                      None if title is None else _text(title), []]
    nodes = {node_id: SectionNode(node_id, depth, sec_type, title, tuple(children))
             for node_id, depth, sec_type, title, children in found.values()}
    outer_of = {xref: node_id for sec, (node_id, depth, *_) in found.items() if depth == 1
                for xref in sec.iter("xref")}
    return SectionTree(nodes, tuple(roots)), outer_of


def _gap(first: ET.Element, second: ET.Element, parents: Mapping) -> str | None:
    """The text between the end of `first` and the start of `second`, which
    follows it, or None when a non-inline element starts or ends in between."""
    parent = parents[first]
    if parents.get(second) is parent:  # the common case: adjacent siblings
        kids = parent[:]
        if kids[kids.index(first) + 1] is second:
            return first.tail or ""
    path = {}  # each ancestor of `second` -> its child on the way down
    node = second
    while node in parents:
        path[parents[node]] = node
        node = parents[node]
    pieces = []

    def between(kids: list[ET.Element]) -> bool:  # whole elements, with their tails
        for kid in kids:
            if any(element.tag not in _INLINE_TAGS for element in kid.iter()):
                return False
            pieces.extend(kid.itertext())
            pieces.append(kid.tail or "")
        return True

    node = first
    while True:  # up from `first`, closing its ancestors, to the one they share
        parent = parents[node]
        kids = parent[:]
        stop = kids.index(path[parent]) if parent in path else len(kids)
        pieces.append(node.tail or "")
        if not between(kids[kids.index(node) + 1:stop]):
            return None
        if parent in path:
            break
        if parent.tag not in _INLINE_TAGS:
            return None
        node = parent
    node = path[parent]
    while node is not second:  # down to `second`, opening its ancestors
        if node.tag not in _INLINE_TAGS:
            return None
        pieces.append(node.text or "")
        kids = node[:]
        if not between(kids[:kids.index(path[node])]):
            return None
        node = path[node]
    return "".join(pieces)


def _markers(xrefs: list, outer_of: Mapping, parents: Mapping,
             known: Container[str]) -> list[tuple[str | None, _Pairs]]:
    """(outer section, pairs) per run of citation xrefs with no block
    boundary and only a joiner between."""
    markers: list[tuple[str | None, _Pairs]] = []
    pairs: list[tuple[str | None, str]] = []
    previous = None
    for xref, rids, typed in xrefs:
        if not typed and not all(rid in known for rid in rids):
            previous = None  # an xref to something else is a block boundary
            continue
        sep = None
        # the text between two xrefs starts with the first one's tail
        if previous is not None and "".join((previous.tail or "").split()) in _JOINERS:
            gap = _gap(previous, xref, parents)
            sep = None if gap is None else _JOINERS.get("".join(gap.split()))
        if sep is None:
            pairs = []
            markers.append((outer_of.get(xref), pairs))
        for rid in rids:
            pairs.append((sep, rid))
            sep = LIST_SEPARATOR
        previous = xref
    return markers


def parse_article(data: bytes, source: str = "<bytes>") -> ParsedArticle:
    """Parse one JATS article file into a ParsedArticle, from its element tree.

    Raises XmlParseError for malformed XML (with the error's byte offset),
    an undefined or external entity included, and ArticleStructureError when
    the root is not <article>, the article metadata block is missing, or
    elements nest deeper than MAX_DEPTH.
    Input is read as UTF-8 whatever encoding it declares; undecodable bytes
    are replaced and noted as an issue rather than failing the file.
    """
    issues: list[str] = []
    utf8 = data
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        utf8 = data.decode("utf-8", errors="replace").encode("utf-8")
        issues.append("input was not valid UTF-8; bad bytes replaced")
    try:
        root = _build_tree(utf8)
    except ET.ParseError as exc:
        # expat ends a line at LF, CR or CR LF, as bytes.splitlines does, and
        # counts a column per character
        line, column = exc.position
        start = sum(map(len, utf8.splitlines(keepends=True)[:line - 1]))
        at = start + len(utf8[start:].decode("utf-8")[:column].encode("utf-8"))
        raise XmlParseError(source, min(at, len(data)), str(exc)) from exc
    if root.tag != "article":
        raise ArticleStructureError(source, f"root element is {root.tag!r}, not article")
    record = _record(root, source)
    if _too_deep(root):
        raise ArticleStructureError(source, "element nesting too deep")

    references = _references(root, issues)
    ref_order = [ref.ref_id for ref in references]
    order = {ref_id: i for i, ref_id in enumerate(ref_order)}
    xrefs, inside_xrefs = _citation_xrefs(root)
    parents = {kid: parent for parent in root.iter() if len(parent) for kid in parent[:]}
    sections, outer_of = _section_tree(root, parents, inside_xrefs)
    citations = []
    for outer_id, pairs in _markers(xrefs, outer_of, parents, order):
        ref_ids = _resolve(pairs, ref_order, order, issues)
        if ref_ids:
            citations.append(InTextCitation(outer_id, ref_ids))
    return ParsedArticle(record, sections, tuple(references), tuple(citations), tuple(issues))

"""JATS XML ingestion: metadata, section tree, references, in-text citations.

One article file goes in, one immutable ParsedArticle comes out. Parsing is
lossless for the four concerns the pipeline needs (metadata, body section
tree, reference list, located citation markers) and does no section-name
normalization; that happens downstream.

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
from typing import Iterable, Mapping, Sequence


class JatsError(Exception):
    """Base class for article ingestion failures."""


class XmlParseError(JatsError):
    """Input is not well-formed XML."""

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
    char_offset: int | None = None


@dataclass(frozen=True)
class RawMarker:
    """A marker before expansion: alternating ref-id / separator tokens.

    outer_node_id is the depth-1 section enclosing the marker, None outside
    any body section.
    """

    tokens: tuple[str, ...]
    outer_node_id: str | None
    char_offset: int


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
    changed = True
    while changed:
        changed = False
        for prefix in _DOI_PREFIXES:
            if text.startswith(prefix):
                text = text[len(prefix):].strip()
                changed = True
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
    order = {ref_id: i for i, ref_id in enumerate(all_refs)}
    refs = list(tokens[0::2])
    seps = list(tokens[1::2])
    if len(refs) != len(seps) + 1 or any(r in _SEPARATORS for r in refs) or any(
        s not in _SEPARATORS for s in seps
    ):
        raise ExpansionError(f"malformed marker tokens {tuple(tokens)!r}")
    for ref_id in refs:
        if ref_id not in order:
            raise ExpansionError(f"unknown reference id {ref_id!r}")
    out: dict[str, None] = {refs[0]: None}
    for sep, start, end in zip(seps, refs, refs[1:]):
        if sep in RANGE_SEPARATORS:
            lo, hi = order[start], order[end]
            if hi < lo:
                raise ExpansionError(f"reversed range {start!r}-{end!r}")
            for ref_id in all_refs[lo : hi + 1]:
                out[ref_id] = None
        else:
            out[end] = None
    return tuple(out)


def locate_in_text_citations(
    markers: Iterable[RawMarker],
    ref_order: Sequence[str],
) -> tuple[list[InTextCitation], list[str]]:
    """Resolve raw markers to InTextCitations attributed to outer sections.

    Range failures skip the whole marker (recorded); an unknown ref-id away
    from any range token is dropped individually.
    """
    known = set(ref_order)
    citations: list[InTextCitation] = []
    issues: list[str] = []
    for marker in markers:
        tokens, issue = _drop_unknown_refs(marker.tokens, known)
        if issue:
            issues.append(issue)
            if tokens is None:
                continue
        if not tokens:
            continue
        try:
            ref_ids = expand_citation_list(tokens, ref_order)
        except ExpansionError as exc:
            issues.append(f"citation skipped: {exc}")
            continue
        citations.append(InTextCitation(marker.outer_node_id, ref_ids, marker.char_offset))
    return citations, issues


def _drop_unknown_refs(
    tokens: tuple[str, ...], known: set[str]
) -> tuple[tuple[str, ...] | None, str | None]:
    """Strip unknown non-range ref-ids; None tokens means skip the marker."""
    refs = list(tokens[0::2])
    seps = list(tokens[1::2])
    unknown = [i for i, r in enumerate(refs) if r not in known]
    if not unknown:
        return tokens, None
    for i in unknown:
        before = seps[i - 1] if i > 0 else None
        after = seps[i] if i < len(seps) else None
        if before in RANGE_SEPARATORS or after in RANGE_SEPARATORS:
            return None, f"citation skipped: unknown range endpoint {refs[i]!r}"
    kept_refs = [r for i, r in enumerate(refs) if i not in set(unknown)]
    dropped = [refs[i] for i in unknown]
    rebuilt: list[str] = []
    for ref_id in kept_refs:
        if rebuilt:
            rebuilt.append(LIST_SEPARATOR)
        rebuilt.append(ref_id)
    return tuple(rebuilt), f"unknown reference id(s) dropped: {', '.join(dropped)}"


_WS = re.compile(r"\s+")


def _collapse(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _local(tag: object) -> str:
    """Local tag name; empty for comments/processing instructions."""
    if isinstance(tag, str):
        return tag.rpartition("}")[2]
    return ""


def _itertext(elem: ET.Element) -> str:
    return _collapse("".join(elem.itertext()))


def _first_local(elem: ET.Element, name: str) -> ET.Element | None:
    for child in elem:
        if _local(child.tag) == name:
            return child
    return None


def _find_local(root: ET.Element, *path: str) -> ET.Element | None:
    node: ET.Element | None = root
    for name in path:
        if node is None:
            return None
        node = _first_local(node, name)
    return node


def _iter_local(root: ET.Element, name: str) -> Iterable[ET.Element]:
    for elem in root.iter():
        if _local(elem.tag) == name:
            yield elem


_YEAR = re.compile(r"\d{4}")


def _parse_year(text: str | None) -> int | None:
    if not text:
        return None
    match = _YEAR.search(text)
    return int(match.group()) if match else None


# Inline formatting elements never break marker adjacency; everything else does.
_INLINE_TAGS = frozenset(
    {"sup", "sub", "italic", "bold", "underline", "sc", "strike", "roman",
     "sans-serif", "monospace", "overline", "named-content", "styled-content"}
)


class _BodyWalker:
    """Single document-order pass collecting body sections and raw markers."""

    def __init__(self, ref_ids: set[str]):
        self.ref_ids = ref_ids
        self.roots: list[str] = []
        # node id -> (depth, sec-type, title, child ids)
        self._drafts: dict[str, tuple[int, str | None, str | None, list[str]]] = {}
        self._stack: list[str] = []  # open sections; _stack[0] is the outer one
        self._in_body = 0
        self._counter = 0
        self._char_pos = 0
        self.markers: list[RawMarker] = []
        self._open: list[str] | None = None
        self._open_at: tuple[str | None, int] | None = None
        self._gap: list[str] = []

    def run(self, root: ET.Element) -> None:
        self._visit(root)
        self._flush()

    def _visit(self, elem: ET.Element) -> None:
        tag = _local(elem.tag)
        if not tag:  # comment / processing instruction
            self._text(elem.tail)
            return
        if tag == "body":
            self._in_body += 1
        opened_sec = False
        if tag == "sec" and self._in_body:
            self._open_section(elem)
            opened_sec = True
        if self._is_citation_xref(elem, tag):
            self._xref(elem)
            self._char_pos += len("".join(elem.itertext()))
        else:
            block = tag not in _INLINE_TAGS
            if block:
                self._flush()
            self._text(elem.text)
            for child in elem:
                self._visit(child)
            if block:
                self._flush()
        if opened_sec:
            self._stack.pop()
        if tag == "body":
            self._in_body -= 1
        self._text(elem.tail)

    def _is_citation_xref(self, elem: ET.Element, tag: str) -> bool:
        if tag != "xref":
            return False
        ref_type = elem.get("ref-type")
        rids = (elem.get("rid") or "").split()
        if ref_type == "bibr":
            return bool(rids)
        return ref_type is None and bool(rids) and all(r in self.ref_ids for r in rids)

    def _open_section(self, elem: ET.Element) -> None:
        self._counter += 1
        node_id = f"s{self._counter}"
        title_elem = _first_local(elem, "title")
        title = _itertext(title_elem) if title_elem is not None else None
        self._drafts[node_id] = (len(self._stack) + 1, elem.get("sec-type"), title, [])
        if self._stack:
            self._drafts[self._stack[-1]][3].append(node_id)
        else:
            self.roots.append(node_id)
        self._stack.append(node_id)

    def _text(self, text: str | None) -> None:
        if not text:
            return
        self._char_pos += len(text)
        if self._open is not None:
            self._gap.append(text)

    def _xref(self, elem: ET.Element) -> None:
        rids = (elem.get("rid") or "").split()
        if self._open is not None:
            sep = re.sub(r"\s+", "", "".join(self._gap))
            if sep in ("", ",", ";"):
                self._open.append(LIST_SEPARATOR)
            elif sep in RANGE_SEPARATORS:
                self._open.append(sep)
            else:
                self._flush()
        if self._open is None:
            self._open = []
            outer = self._stack[0] if self._stack else None
            self._open_at = (outer, self._char_pos)
        for i, rid in enumerate(rids):
            if i:
                self._open.append(LIST_SEPARATOR)
            self._open.append(rid)
        self._gap = []

    def _flush(self) -> None:
        if self._open is not None and self._open:
            outer, offset = self._open_at  # type: ignore[misc]
            self.markers.append(RawMarker(tuple(self._open), outer, offset))
        self._open = None
        self._open_at = None
        self._gap = []

    def tree(self) -> SectionTree:
        nodes = {
            node_id: SectionNode(
                node_id=node_id,
                depth=depth,
                sec_type=sec_type,
                title_raw=title,
                children=tuple(children),
            )
            for node_id, (depth, sec_type, title, children) in self._drafts.items()
        }
        return SectionTree(nodes=nodes, roots=tuple(self.roots))


def _byte_offset(data: bytes, line: int, column: int) -> int:
    """Approximate byte offset of a 1-based (line, column) parser position."""
    if line <= 1:
        return max(0, column)
    newline = -1
    for _ in range(line - 1):
        newline = data.find(b"\n", newline + 1)
        if newline < 0:
            return len(data)
    return min(len(data), newline + 1 + column)


_ENCODING_DECL = re.compile(r'(<\?xml[^>]*?)\s+encoding\s*=\s*("[^"]*"|\'[^\']*\')')


def parse_article(data: bytes, source: str = "<bytes>") -> ParsedArticle:
    """Parse one JATS article file into a ParsedArticle.

    Raises XmlParseError for malformed XML (with an approximate byte offset)
    and ArticleStructureError when the article metadata block is missing or
    the body nests elements too deeply to walk.
    Input is treated as UTF-8; undecodable bytes are replaced and noted as an
    issue rather than failing the file.
    """
    issues: list[str] = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("utf-8", errors="replace")
        issues.append("input was not valid UTF-8; bad bytes replaced")
    text = _ENCODING_DECL.sub(r"\1", text, count=1)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = getattr(exc, "position", (1, 0))
        raise XmlParseError(source, _byte_offset(data, line, column), str(exc)) from exc

    if _local(root.tag) != "article":
        raise ArticleStructureError(source, f"root element is {_local(root.tag)!r}, not article")
    front = _find_local(root, "front")
    article_meta = _first_local(front, "article-meta") if front is not None else None
    if article_meta is None:
        raise ArticleStructureError(source, "missing front/article-meta block")

    journal_title = ""
    issns: list[str] = []
    journal_meta = _first_local(front, "journal-meta") if front is not None else None
    if journal_meta is not None:
        for elem in journal_meta.iter():
            name = _local(elem.tag)
            if name == "journal-title" and not journal_title:
                journal_title = _itertext(elem)
            elif name == "issn":
                for value in _itertext(elem).split(";"):
                    value = value.strip()
                    if value and value not in issns:
                        issns.append(value)

    doi = None
    for elem in _iter_local(article_meta, "article-id"):
        if elem.get("pub-id-type") == "doi":
            doi = normalize_doi(_itertext(elem))
            break
    pub_year = None
    for date_elem in _iter_local(article_meta, "pub-date"):
        year_elem = _first_local(date_elem, "year")
        if year_elem is not None:
            pub_year = _parse_year(_itertext(year_elem))
            if pub_year is not None:
                break

    record = ArticleRecord(
        source_path=source,
        article_type=root.get("article-type") or "",
        journal_title=journal_title,
        issn_list=tuple(issns),
        doi=doi,
        pub_year=pub_year,
    )

    references = _parse_references(root, issues)
    ref_ids = {ref.ref_id for ref in references}

    walker = _BodyWalker(ref_ids)
    try:
        walker.run(root)
    except RecursionError:
        raise ArticleStructureError(source, "element nesting too deep") from None
    ref_order = [ref.ref_id for ref in references]
    citations, cite_issues = locate_in_text_citations(walker.markers, ref_order)
    issues.extend(cite_issues)

    return ParsedArticle(
        record=record,
        sections=walker.tree(),
        references=tuple(references),
        citations=tuple(citations),
        issues=tuple(issues),
    )


_CITATION_TAGS = ("element-citation", "mixed-citation", "citation", "nlm-citation")


def _parse_references(root: ET.Element, issues: list[str]) -> list[ReferenceEntry]:
    references: list[ReferenceEntry] = []
    seen: set[str] = set()
    anon = 0
    for ref_list in _iter_local(root, "ref-list"):
        for ref in _iter_local(ref_list, "ref"):
            ref_id = ref.get("id") or ""
            if not ref_id:
                anon += 1
                ref_id = f"_anon{anon}"
            if ref_id in seen:
                issues.append(f"duplicate reference id {ref_id!r}; later entry kept unresolvable")
                ref_id = f"{ref_id}__dup{len(references)}"
            seen.add(ref_id)
            references.append(_reference_entry(ref, ref_id))
    return references


def _reference_entry(ref: ET.Element, ref_id: str) -> ReferenceEntry:
    citation = None
    for tag in _CITATION_TAGS:
        citation = _first_local(ref, tag)
        if citation is not None:
            break
    doi = None
    journal = None
    year = None
    pub_type = None
    if citation is not None:
        pub_type = citation.get("publication-type")
        for elem in citation.iter():
            name = _local(elem.tag)
            if name == "pub-id" and elem.get("pub-id-type") == "doi" and doi is None:
                doi = normalize_doi(_itertext(elem))
            elif name == "ext-link" and elem.get("ext-link-type") == "doi" and doi is None:
                doi = normalize_doi(_itertext(elem))
            elif name == "source" and journal is None:
                journal = _itertext(elem) or None
            elif name == "year" and year is None:
                year = _parse_year(_itertext(elem))
    return ReferenceEntry(
        ref_id=ref_id,
        cited_doi=doi,
        cited_journal_title=journal,
        cited_year=year,
        pub_type_label=pub_type,
    )

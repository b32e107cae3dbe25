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
from dataclasses import dataclass
from typing import Any, Container, Mapping, Sequence
from xml.parsers import expat


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


def _collapse(text: str) -> str:
    """Runs of whitespace to one space, none at either end."""
    return " ".join(text.split())


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


# Deepest element nesting parse_article reads, the root being depth 1.
MAX_DEPTH = 1000

# Text that may join two citation xrefs into one marker, and the token it becomes.
_JOINERS = {"": LIST_SEPARATOR, ",": LIST_SEPARATOR, ";": LIST_SEPARATOR,
            **{dash: dash for dash in RANGE_SEPARATORS}}
_CITATION_TAGS = ("element-citation", "mixed-citation", "citation", "nlm-citation")
# Reference fields: the tag, the kind of value it holds, and how to read that value.
_FIELD_KINDS = {"pub-id": "doi", "ext-link": "doi", "source": "source", "year": "year"}
_FIELD_READERS = {"doi": normalize_doi, "source": lambda text: text or None, "year": _parse_year}
# Article metadata: the tag, and the block it is read in.
_META_TAGS = {"journal-title": "journal-meta", "issn": "journal-meta",
              "article-id": "article-meta"}
_SPAN_TAGS = frozenset({"title", *_META_TAGS, *_FIELD_KINDS})
_META_BLOCKS = ("front", "journal-meta", "article-meta")
_BEGIN_TAGS = _SPAN_TAGS | {"pub-date", "ref-list", "ref", "citation-alternatives", "body", "sec",
                            "xref", *_META_BLOCKS, *_CITATION_TAGS}


class _ArticlePass:
    """State of parse_article's one expat pass over a file.

    Character data goes straight into ``texts``; an element's text is the
    slice of ``texts`` between its start and its end, a ``[start, end]`` span
    read after the pass. ``stack`` holds a ``(tag, payload)`` frame per open
    element: ``_begin`` returns the payload (a span, a draft or True) of an
    element that matters, and ``end`` finishes it. An untyped xref is a
    citation only if all its rids name references, so ``markers`` folds the
    xrefs once the reference list is known.
    """

    def __init__(self) -> None:
        self.texts: list[str] = []
        self.stack: list[tuple[str, Any]] = []
        self.root = ("", "")  # (tag, article-type)
        self.too_deep = False
        self.seen: set[str] = set()  # the root's first front, its first journal-/article-meta
        self.region: str | None = None  # which of those is open
        self.meta: dict[str, list[list[int]]] = {tag: [] for tag in _META_TAGS}
        self.pub_dates: list[list] = []  # a [year span or None] slot per pub-date
        self.ref_lists = 0
        self.refs: list[tuple[str, list[list]]] = []  # (id, candidate citations) per ref
        self.fields: list[tuple[str, list[int]]] = []  # (kind, span) inside a citation
        self.citing = 0
        self.in_body = 0
        self.sections: dict[str, list] = {}  # id -> [depth, sec-type, title span, children]
        self.roots: list[str] = []
        self.open_sections: list[str] = []
        self.blocks = 0  # starts and ends of non-inline elements so far
        self.in_xref = False  # inside a citation xref, which is read as a whole
        # [rids, typed, outer section, text start, text end, blocks at start, at end]
        self.xrefs: list[list] = []

    def run(self, data: bytes) -> None:
        """Parse `data` as UTF-8; an ExpatError raised carries its `byte_index`."""
        parser = expat.ParserCreate("utf-8", namespace_separator="}")  # names come as "uri}local"
        parser.buffer_text = True
        parser.CharacterDataHandler = self.texts.append
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end

        def refuse_entity(name: str, *_: object) -> None:
            # With an external DTD, expat skips an undefined or external entity
            # without a word; dropping `&ndash;` can turn a range into a list.
            # An external entity's name comes last in a \f-separated context.
            line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
            name = name.rpartition("\f")[2]
            exc = expat.ExpatError(f"undefined entity &{name};: line {line}, column {column}")
            exc.byte_index = parser.CurrentByteIndex  # the parser moves on once this is raised
            raise exc

        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = refuse_entity
        try:
            parser.Parse(data, True)
        except expat.ExpatError as exc:
            exc.byte_index = getattr(exc, "byte_index", parser.ErrorByteIndex)
            raise
        finally:  # break the parser-handler cycle, so the pass is freed without the GC
            parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None

    def start(self, name: str, attrs: dict[str, str]) -> None:
        tag = name.rpartition("}")[2]
        stack = self.stack
        payload = None
        if not stack:
            self.root = (tag, attrs.get("article-type") or "")
        elif tag in _BEGIN_TAGS:
            payload = self._begin(tag, stack[-1], len(stack), attrs)
        if tag not in _INLINE_TAGS:
            self.blocks += 1
        stack.append((tag, payload))
        if len(stack) > MAX_DEPTH:
            self.too_deep = True

    def _begin(self, tag: str, parent: tuple[str, Any], parent_depth: int, attrs: dict[str, str]):
        """The payload of an element below the root whose tag is in _BEGIN_TAGS."""
        parent_tag, above = parent
        if tag in _SPAN_TAGS:
            span = [len(self.texts), 0]
            if tag in _FIELD_KINDS:
                doi = attrs.get(tag + "-type") == "doi"
                if self.citing and (doi or tag in ("source", "year")):
                    self.fields.append((_FIELD_KINDS[tag], span))
                if tag == "year" and parent_tag == "pub-date" and above and above[0] is None:
                    above[0] = span
            elif tag == "title":
                if parent_tag == "sec" and above is not None and above[2] is None:
                    above[2] = span
            elif self.region == _META_TAGS[tag] and (
                tag != "article-id" or attrs.get("pub-id-type") == "doi"
            ):
                self.meta[tag].append(span)
            return span
        if tag == "xref":
            rids = (attrs.get("rid") or "").split()
            if self.in_xref or not rids or attrs.get("ref-type", "bibr") != "bibr":
                return None
            self.in_xref = True
            outer = self.open_sections[0] if self.open_sections else None
            self.xrefs.append(
                [rids, "ref-type" in attrs, outer, len(self.texts), 0, self.blocks, 0]
            )
            return self.xrefs[-1]
        if tag in _CITATION_TAGS and above and parent_tag in ("ref", "citation-alternatives"):
            self.citing += 1
            above[1].append([tag, attrs.get("publication-type"), len(self.fields), 0])
            return above[1][-1]
        if tag == "ref" and self.ref_lists:
            self.refs.append((attrs.get("id") or "", []))
            return self.refs[-1]
        if tag == "citation-alternatives" and parent_tag == "ref":
            return above
        if tag == "ref-list":
            self.ref_lists += 1
            return True
        if tag == "sec" and self.in_body and not self.in_xref:
            node_id = f"s{len(self.sections) + 1}"
            opened = self.open_sections
            (self.sections[opened[-1]][3] if opened else self.roots).append(node_id)
            self.sections[node_id] = [len(opened) + 1, attrs.get("sec-type"), None, []]
            opened.append(node_id)
            return self.sections[node_id]
        if tag == "body" and not self.in_xref:
            self.in_body += 1
            return True
        if tag == "pub-date" and self.region == "article-meta":
            self.pub_dates.append([None])
            return self.pub_dates[-1]
        if tag in _META_BLOCKS and tag not in self.seen and (
            parent_depth == 1 if tag == "front" else parent == ("front", True)
        ):
            self.seen.add(tag)
            self.region = tag
            return True
        return None

    def end(self, name: str) -> None:
        tag, payload = self.stack.pop()
        if tag not in _INLINE_TAGS:
            self.blocks += 1
        if payload is None:
            return
        if tag in _SPAN_TAGS:
            payload[1] = len(self.texts)
        elif tag == "xref":
            payload[4], payload[6] = len(self.texts), self.blocks
            self.in_xref = False
        elif tag == "sec":
            self.open_sections.pop()
        elif tag in _CITATION_TAGS:
            payload[3] = len(self.fields)
            self.citing -= 1
        elif tag == "body":
            self.in_body -= 1
        elif tag == "ref-list":
            self.ref_lists -= 1
        elif tag in _META_BLOCKS:
            self.region = None

    def text(self, span: list[int]) -> str:
        return _collapse("".join(self.texts[span[0]:span[1]]))

    def references(self, issues: list[str]) -> list[ReferenceEntry]:
        references: list[ReferenceEntry] = []
        seen: set[str] = set()
        anon = 0
        for ref_id, cites in self.refs:
            if not ref_id:
                anon += 1
                ref_id = f"_anon{anon}"
            if ref_id in seen:
                issues.append(f"duplicate reference id {ref_id!r}; later entry kept unresolvable")
                ref_id = f"{ref_id}__dup{len(references)}"
            seen.add(ref_id)
            # the first citation of the best kind, direct or in <citation-alternatives>
            best = min(cites, key=lambda cite: _CITATION_TAGS.index(cite[0]), default=None)
            _, pub_type, first, last = best or ("", None, 0, 0)
            found: dict[str, object] = {}
            for kind, span in self.fields[first:last]:
                if found.get(kind) is None:
                    found[kind] = _FIELD_READERS[kind](self.text(span))
            references.append(ReferenceEntry(
                ref_id, found.get("doi"), found.get("source"), found.get("year"), pub_type
            ))
        return references

    def section_tree(self) -> SectionTree:
        nodes = {
            node_id: SectionNode(node_id, depth, sec_type, title and self.text(title), tuple(kids))
            for node_id, (depth, sec_type, title, kids) in self.sections.items()
        }
        return SectionTree(nodes, tuple(self.roots))

    def markers(self, known: Container[str]) -> list[tuple[str | None, _Pairs]]:
        """(outer section, pairs) per run of citation xrefs with no block
        boundary and only a separator between."""
        texts = self.texts
        markers: list[tuple[str | None, _Pairs]] = []
        pairs: list[tuple[str | None, str]] = []
        last_end, last_blocks = 0, -1
        for rids, typed, outer, start, end, blocks, blocks_after in self.xrefs:
            if not typed and not all(rid in known for rid in rids):
                last_blocks = -1  # an xref to something else is a block boundary
                continue
            sep = None
            if blocks == last_blocks:
                sep = _JOINERS.get("".join("".join(texts[last_end:start]).split()))
            if sep is None:
                pairs = []
                markers.append((outer, pairs))
            for rid in rids:
                pairs.append((sep, rid))
                sep = LIST_SEPARATOR
            last_end, last_blocks = end, blocks_after
        return markers


def parse_article(data: bytes, source: str = "<bytes>") -> ParsedArticle:
    """Parse one JATS article file into a ParsedArticle, in one expat pass.

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
    state = _ArticlePass()
    try:
        state.run(utf8)
    except expat.ExpatError as exc:
        at = exc.byte_index if exc.byte_index >= 0 else len(utf8)
        raise XmlParseError(source, min(at, len(data)), str(exc)) from exc

    root, article_type = state.root
    if root != "article":
        raise ArticleStructureError(source, f"root element is {root!r}, not article")
    if "article-meta" not in state.seen:
        raise ArticleStructureError(source, "missing front/article-meta block")
    if state.too_deep:
        raise ArticleStructureError(source, "element nesting too deep")

    meta = {tag: [state.text(span) for span in spans] for tag, spans in state.meta.items()}
    issns = (part.strip() for issn in meta["issn"] for part in issn.split(";"))
    years = (_parse_year(state.text(span)) for span, in state.pub_dates if span)
    record = ArticleRecord(
        source_path=source,
        article_type=article_type,
        journal_title=next(filter(None, meta["journal-title"]), ""),
        issn_list=tuple(dict.fromkeys(filter(None, issns))),
        doi=normalize_doi(meta["article-id"][0]) if meta["article-id"] else None,
        pub_year=next((year for year in years if year is not None), None),
    )
    references = state.references(issues)
    ref_order = [ref.ref_id for ref in references]
    order = {ref_id: i for i, ref_id in enumerate(ref_order)}
    citations = []
    for outer, pairs in state.markers(order):
        ref_ids = _resolve(pairs, ref_order, order, issues)
        if ref_ids:
            citations.append(InTextCitation(outer, ref_ids))
    return ParsedArticle(
        record, state.section_tree(), tuple(references), tuple(citations), tuple(issues)
    )

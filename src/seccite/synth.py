"""Synthetic JATS corpora with an independently computed expected ledger.

The generator plans every citation placement first (which reference, which
section, what kind of marker) and derives the expected ledger directly from
that plan with its own mention bookkeeping — the emitted XML is never parsed
to produce the ground truth. That makes a generated corpus an end-to-end
oracle for the whole ingest pipeline.
"""

from __future__ import annotations

import functools
import html
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .ledger import Ledger, tsv_lines, write_files
from .sections import CanonicalSection

# Escapes &, < and >, as xml.sax.saxutils.escape does, whose import would pull
# urllib.request and http.client into every command.
escape = functools.partial(html.escape, quote=False)

DEFAULT_STRUCTURE_MIX: dict[str, float] = {
    "ILM[RD]C": 0.21,
    "IM[RD]C": 0.16,
    "IMRDC": 0.12,
    "IMRD": 0.12,
    "ILMRDC": 0.12,
    "ILMRD": 0.07,
    "IBMRDCN": 0.10,
    "IMRDNC": 0.10,
}

# The fewest references a planned article may have.
MIN_REFS = 4


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for corpus generation. structure_mix probabilities must sum to 1."""

    seed: int = 7
    article_count: int = 200
    structure_mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_STRUCTURE_MIX)
    )
    refs_per_article: tuple[int, int] = (6, 14)
    doi_coverage: float = 0.85
    range_citation_rate: float = 0.25
    noise_section_rate: float = 0.15
    review_article_rate: float = 0.10
    subsection_rate: float = 0.35
    abstract_citation_rate: float = 0.10
    missing_year_rate: float = 0.10

    def validate(self) -> None:
        if self.article_count < 1:
            raise ValueError("article_count must be >= 1")
        if abs(sum(self.structure_mix.values()) - 1.0) > 1e-9:
            raise ValueError("structure_mix probabilities must sum to 1")
        lo, hi = self.refs_per_article
        if not MIN_REFS <= lo <= hi:
            raise ValueError(f"refs_per_article must be a range with {MIN_REFS} <= min <= max, "
                             f"got ({lo}, {hi})")
        works = _universe_size(self.article_count)
        if hi > works:
            raise ValueError(f"refs_per_article max {hi} exceeds the {works} citable works "
                             f"of a {self.article_count}-article corpus")
        for name in ("doi_coverage", "range_citation_rate", "noise_section_rate",
                     "review_article_rate", "subsection_rate",
                     "abstract_citation_rate", "missing_year_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for pattern, probability in self.structure_mix.items():
            if not 0.0 <= probability <= 1.0:  # also rejects NaN
                raise ValueError(f"structure_mix probability of {pattern!r} must be in [0, 1], "
                                 f"got {probability}")
            tokens = _pattern_tokens(pattern)
            if not tokens:
                raise ValueError(f"structure pattern {pattern!r} has no section token")
            for token in tokens:
                if token not in _TOKENS:
                    raise ValueError(f"unknown structure token {token!r} in {pattern!r}")


@dataclass
class GroundTruth:
    ledger: Ledger
    files: tuple[Path, ...]
    stats: dict[str, int]


# Citing journals (title, issn, field); the '&' exercises XML escaping end to end.
CITING_JOURNALS: tuple[tuple[str, str, str], ...] = (
    ("Journal of Synthetic Biology", "1111-0001", "Biology"),
    ("Annals of Data & Methods", "1111-0002", "Mathematics & Statistics"),
    ("Clinical Trials Quarterly", "1111-0003", "Clinical Medicine"),
    ("Computational Ecology Letters", "1111-0004", "Earth & Environmental Sciences"),
    ("Archives of Applied Physics", "1111-0005", "Physics & Astronomy"),
    ("Review of Social Dynamics", "1111-0006", "Social Sciences"),
    ("Materials Engineering Reports", "1111-0007", "Engineering"),
    ("Global Health Notes", "1111-0008", "Public Health & Health Services"),
)

CITED_JOURNALS: tuple[str, ...] = tuple(title for title, _, _ in CITING_JOURNALS) + (
    "Proceedings of Measurement Science",
    "Statistical Software Bulletin",
)

# Journal -> field rows for a classification fixture covering the pools.
# "Statistical Software Bulletin" stays unclassified on purpose.
CLASSIFICATION_ROWS: tuple[tuple[str, str, str, str], ...] = tuple(
    (title, issn, "", fld) for title, issn, fld in CITING_JOURNALS
) + (("Proceedings of Measurement Science", "", "", "Enabling & Strategic Technologies"),)


def write_classification(path: str | Path) -> Path:
    """Write the classification fixture matching the generator's journals."""
    path = Path(path)
    lines = tsv_lines(path.name, ["journal_title", "issn", "essn", "field"], CLASSIFICATION_ROWS)
    return write_files(path.parent, {path.name: lines})[0]


# Structure token -> (canonical section, sec-type attribute values, recognizable titles).
_TOKENS: dict[str, tuple[CanonicalSection | None, tuple[str, ...], tuple[str, ...]]] = {
    "I": (CanonicalSection.INTRODUCTION, ("intro", "introduction"), ("Introduction",)),
    "B": (CanonicalSection.BACKGROUND, ("background",), ("Background",)),
    "L": (CanonicalSection.BACKGROUND, (), ("Literature Review", "Related Literature")),
    "M": (
        CanonicalSection.METHODS,
        ("materials|methods", "methods"),
        ("Methods", "Materials and Methods", "Patients and Methods",
         "Statistical Analysis", "Study Design", "Methods/Design"),
    ),
    "R": (CanonicalSection.RESULTS, ("results",), ("Results",)),
    "D": (CanonicalSection.DISCUSSION, ("discussion",),
          ("Discussion", "Results and Discussion", "Limitations")),
    "[RD]": (CanonicalSection.DISCUSSION, (), ("Results and Discussion",)),
    "C": (
        CanonicalSection.CONCLUSION,
        ("conclusion", "conclusions"),
        ("Conclusion", "Conclusions", "Summary", "Concluding Remarks"),
    ),
    "N": (None, (), ("Acknowledgements", "Supplementary Material", "Author Contributions",
                     "Abbreviations", "Competing Interests", "Case Presentation")),
}

_DISPLAY_TITLES = (
    "Experimental Work", "What We Did", "Main Findings", "Closing Remarks",
    "Study Outline", "Analysis Details",
)

_FILLER = (
    "the assay", "a cohort", "sampling", "replication", "the model", "field data",
    "prior work", "estimates", "controls", "the protocol", "observations",
    "spectral fits", "survey waves", "annotation",
)


def _pattern_tokens(pattern: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(pattern):
        if pattern[i] == "[":
            end = pattern.find("]", i)
            if end < 0:
                raise ValueError(f"unbalanced '[' in pattern {pattern!r}")
            tokens.append(pattern[i : end + 1])
            i = end + 1
        else:
            tokens.append(pattern[i])
            i += 1
    return tokens


@dataclass(frozen=True)
class _Work:
    """One citable document in the synthetic universe."""

    doi: str | None
    journal: str
    year: int


@dataclass
class _PlanSection:
    token: str
    sec_type: str | None
    title: str
    nested_title: str | None
    markers: list["_PlanMarker"]
    nested_markers: list["_PlanMarker"]


@dataclass
class _PlanMarker:
    kind: str  # "single" | "list" | "range" | "idrefs"
    ref_indexes: tuple[int, ...]  # explicit endpoints / members (0-based)

    def mentioned(self) -> range | tuple[int, ...]:
        if self.kind == "range":
            return range(self.ref_indexes[0], self.ref_indexes[1] + 1)
        return self.ref_indexes


@dataclass
class _PlanArticle:
    """One planned article: what the XML writer renders and the oracle counts."""

    is_review: bool
    journal: str
    issn: str
    citing_doi: str | None
    pub_year: int | None
    refs: list[_Work]
    recorded_years: list[int | None]
    sections: list[_PlanSection]
    abstract_marker: _PlanMarker | None


def _choose_pattern(rng: random.Random, mix: Mapping[str, float]) -> str:
    roll = rng.random()
    acc = 0.0
    items = sorted(mix.items())
    for pattern, probability in items:
        acc += probability
        if roll < acc:
            return pattern
    return items[-1][0]


def _universe_size(article_count: int) -> int:
    """How many citable works a corpus of `article_count` articles cites from."""
    return max(article_count * 2, 40)


def _make_universe(rng: random.Random, spec: CorpusSpec) -> list[_Work]:
    works = []
    for index in range(_universe_size(spec.article_count)):
        has_doi = rng.random() < spec.doi_coverage
        journal = rng.choice(CITED_JOURNALS)
        # 2012 is over-weighted so single-year cohort analyses have samples.
        year = 2012 if rng.random() < 0.45 else rng.randint(2008, 2016)
        doi = f"10.9{index % 7}00/synth.{index:05d}" if has_doi else None
        works.append(_Work(doi=doi, journal=journal, year=year))
    return works


def _plan_marker(rng: random.Random, spec: CorpusSpec, ref_count: int) -> _PlanMarker:
    roll = rng.random()
    if roll < spec.range_citation_rate and ref_count >= 3:
        start = rng.randrange(0, ref_count - 2)
        end = min(ref_count - 1, start + rng.randint(1, 3))
        return _PlanMarker("range", (start, end))
    if roll < spec.range_citation_rate + 0.05:
        members = sorted(rng.sample(range(ref_count), 2))
        return _PlanMarker("idrefs", tuple(members))
    if roll < spec.range_citation_rate + 0.40:
        size = rng.randint(2, min(3, ref_count))
        return _PlanMarker("list", tuple(sorted(rng.sample(range(ref_count), size))))
    return _PlanMarker("single", (rng.randrange(0, ref_count),))


def _plan_markers(rng: random.Random, spec: CorpusSpec, ref_count: int) -> list[_PlanMarker]:
    return [_plan_marker(rng, spec, ref_count) for _ in range(rng.randint(1, 3))]


def _plan_article(
    rng: random.Random, spec: CorpusSpec, universe: Sequence[_Work], article_index: int
) -> _PlanArticle:
    """Draw one article's plan; every planning draw happens here, in a fixed order."""
    is_review = rng.random() < spec.review_article_rate
    journal, issn, _ = CITING_JOURNALS[article_index % len(CITING_JOURNALS)]
    pub_year = None if rng.random() < spec.missing_year_rate else rng.randint(2017, 2020)
    citing_doi = f"10.8000/citing.{article_index:05d}" if rng.random() < 0.8 else None

    ref_count = rng.randint(*spec.refs_per_article)
    refs = [universe[i] for i in rng.sample(range(len(universe)), ref_count)]
    recorded_years: list[int | None] = []
    for work in refs:
        if rng.random() < 0.05:
            recorded_years.append(work.year + rng.choice((-1, 1)))
        elif rng.random() < 0.03:
            recorded_years.append(None)
        else:
            recorded_years.append(work.year)

    tokens = _pattern_tokens(_choose_pattern(rng, spec.structure_mix))
    if rng.random() < spec.noise_section_rate:
        tokens.append("N")
    sections: list[_PlanSection] = []
    for position, token in enumerate(tokens, start=1):
        _, sec_types, titles = _TOKENS[token]
        use_attr = bool(sec_types) and rng.random() < 0.5
        if use_attr:
            sec_type = rng.choice(sec_types)
            title = rng.choice(_DISPLAY_TITLES)
        else:
            sec_type = None
            title = rng.choice(titles)
            if rng.random() < 0.4:
                title = f"{position}. {title}"
            elif rng.random() < 0.15:
                title = title.upper()
        nested_title = None
        nested_markers: list[_PlanMarker] = []
        if rng.random() < spec.subsection_rate:
            nested_title = f"{position}.1 Detail"
            nested_markers = _plan_markers(rng, spec, ref_count)
        sections.append(_PlanSection(
            token=token, sec_type=sec_type, title=title, nested_title=nested_title,
            markers=_plan_markers(rng, spec, ref_count), nested_markers=nested_markers,
        ))

    abstract_marker = (_plan_marker(rng, spec, ref_count)
                       if rng.random() < spec.abstract_citation_rate else None)
    return _PlanArticle(
        is_review=is_review, journal=journal, issn=issn, citing_doi=citing_doi,
        pub_year=pub_year, refs=refs, recorded_years=recorded_years, sections=sections,
        abstract_marker=abstract_marker,
    )


def _render_marker(marker: _PlanMarker, rng: random.Random) -> str:
    def xref(index: int) -> str:
        return f'<xref ref-type="bibr" rid="r{index + 1}">[{index + 1}]</xref>'

    if marker.kind == "single":
        return xref(marker.ref_indexes[0])
    if marker.kind == "range":
        dash = rng.choice(("-", "–"))
        return xref(marker.ref_indexes[0]) + dash + xref(marker.ref_indexes[1])
    if marker.kind == "idrefs":
        rids = " ".join(f"r{i + 1}" for i in marker.ref_indexes)
        label = ", ".join(str(i + 1) for i in marker.ref_indexes)
        return f'<xref ref-type="bibr" rid="{rids}">[{label}]</xref>'
    return ", ".join(xref(i) for i in marker.ref_indexes)


def _render_paragraph(markers: Sequence[_PlanMarker], rng: random.Random) -> str:
    pieces = []
    for marker in markers:
        pieces.append(f"We examined {rng.choice(_FILLER)} {_render_marker(marker, rng)}")
    return "<p>" + ". ".join(pieces) + ".</p>"


def _section_xml(plan: _PlanSection, position: int, rng: random.Random) -> str:
    attrs = f' id="sec{position}"'
    if plan.sec_type is not None:
        attrs += f' sec-type="{escape(plan.sec_type)}"'
    lines = [f"<sec{attrs}>", f"<title>{escape(plan.title)}</title>"]
    per_paragraph = [plan.markers[: len(plan.markers) // 2 + 1],
                     plan.markers[len(plan.markers) // 2 + 1 :]]
    for chunk in per_paragraph:
        if chunk:
            lines.append(_render_paragraph(chunk, rng))
    if plan.nested_title is not None:
        lines.append(f"<sec><title>{escape(plan.nested_title)}</title>")
        lines.append(_render_paragraph(plan.nested_markers, rng))
        lines.append("</sec>")
    lines.append("</sec>")
    return "\n".join(lines)


def _reference_xml(index: int, work: _Work, recorded_year: int | None) -> str:
    lines = [f'<ref id="r{index + 1}">', '<element-citation publication-type="journal">']
    lines.append(f"<article-title>Cited work {index + 1}</article-title>")
    lines.append(f"<source>{escape(work.journal)}</source>")
    if recorded_year is not None:
        lines.append(f"<year>{recorded_year}</year>")
    if work.doi is not None:
        lines.append(f'<pub-id pub-id-type="doi">{escape(work.doi)}</pub-id>')
    lines.append("</element-citation>")
    lines.append("</ref>")
    return "\n".join(lines)


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> GroundTruth:
    """Write a deterministic synthetic corpus and return its expected ledger.

    Every emitted file is a valid parse_article input. The returned ledger is
    computed from the placement plan, never by parsing the files. Raises
    ValueError before writing if out_dir holds an .xml file it would not write.
    """
    spec.validate()
    out_dir = Path(out_dir)
    for path in sorted(out_dir.rglob("*.xml")):
        index = path.name[len("article_"):-len(".xml")]
        if not (index.isdecimal() and int(index) < spec.article_count
                and path == out_dir / f"article_{int(index):05d}.xml"):
            raise ValueError(f"out_dir {out_dir} already holds {path}, "
                             "which this corpus would not write")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)
    universe = _make_universe(rng, spec)

    truth = Ledger()
    files: list[Path] = []
    stats = dict.fromkeys(
        ("documents", "research_articles", "references", "references_with_doi"), 0)

    for article_index in range(spec.article_count):
        plan = _plan_article(rng, spec, universe, article_index)
        path = out_dir / f"article_{article_index:05d}.xml"
        path.write_bytes(_article_xml(plan, rng).encode("utf-8"))
        files.append(path)

        stats["documents"] += 1
        if plan.is_review:
            continue
        stats["research_articles"] += 1
        stats["references"] += len(plan.refs)
        stats["references_with_doi"] += sum(1 for w in plan.refs if w.doi is not None)
        _account_article(truth, plan)

    return GroundTruth(ledger=truth, files=tuple(files), stats=stats)


def _account_article(truth: Ledger, plan: _PlanArticle) -> None:
    """Fold one planned article into the expected ledger.

    Mirrors the counting rules from the plan side: one mention per distinct
    DOI per marker, recognized-section denominators, other-only pairs worth
    one unit in the "other" buckets.
    """
    recognized: dict[str, dict[CanonicalSection, int]] = {}
    other: dict[str, int] = {}
    refs, journal = plan.refs, plan.journal

    def mention(marker: _PlanMarker, section: CanonicalSection | None) -> None:
        dois = sorted({refs[i].doi for i in marker.mentioned() if refs[i].doi is not None})
        for doi in dois:
            if section is None:
                other[doi] = other.get(doi, 0) + 1
            else:
                per = recognized.setdefault(doi, {})
                per[section] = per.get(section, 0) + 1

    for sec in plan.sections:
        section = _TOKENS[sec.token][0]
        for marker in sec.markers:
            mention(marker, section)
        for marker in sec.nested_markers:
            mention(marker, section)  # nested citations attribute to the outer section
    if plan.abstract_marker is not None:
        mention(plan.abstract_marker, None)

    doi_meta: dict[str, tuple[str, int | None]] = {}
    for work, recorded in zip(refs, plan.recorded_years):
        if work.doi is not None and work.doi not in doi_meta:
            doi_meta[work.doi] = (work.journal, recorded)

    for doi, per_section in recognized.items():
        total = sum(per_section.values())
        vector = truth.vectors.setdefault(doi, {})
        per_journal = truth.source_sections.setdefault(journal, {})
        for section, count in per_section.items():
            weight = Fraction(count, total)
            vector[section] = vector.get(section, Fraction(0)) + weight
            per_journal[section] = per_journal.get(section, Fraction(0)) + weight
        truth.cohort_index.setdefault(doi, set()).add((journal, plan.pub_year))
        cited_journal, cited_year = doi_meta[doi]
        truth.cited_journals.setdefault(doi, Counter())[cited_journal] += 1
        if cited_year is not None:
            truth.cited_years.setdefault(doi, Counter())[cited_year] += 1

    for doi in other:
        if doi in recognized:
            continue
        truth.source_other[journal] = truth.source_other.get(journal, Fraction(0)) + 1
        truth.target_other[doi_meta[doi][0]] = (
            truth.target_other.get(doi_meta[doi][0], Fraction(0)) + 1
        )
    if recognized or other:
        truth.source_issns.setdefault(journal, set()).add(plan.issn)


def _article_xml(plan: _PlanArticle, rng: random.Random) -> str:
    article_type = "review-article" if plan.is_review else "research-article"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<article article-type="{article_type}">',
        "<front>",
        "<journal-meta>",
        f"<journal-title-group><journal-title>{escape(plan.journal)}</journal-title></journal-title-group>",
        f'<issn pub-type="ppub">{plan.issn}</issn>',
        "</journal-meta>",
        "<article-meta>",
    ]
    if plan.citing_doi is not None:
        lines.append(f'<article-id pub-id-type="doi">{escape(plan.citing_doi)}</article-id>')
    lines.append("<title-group><article-title>Synthetic study</article-title></title-group>")
    if plan.pub_year is not None:
        lines.append(f'<pub-date pub-type="epub"><year>{plan.pub_year}</year></pub-date>')
    if plan.abstract_marker is not None:
        lines.append(
            "<abstract><p>Context is set by prior work "
            f"{_render_marker(plan.abstract_marker, rng)}.</p></abstract>"
        )
    else:
        lines.append("<abstract><p>A synthetic abstract.</p></abstract>")
    lines.append("</article-meta>")
    lines.append("</front>")
    lines.append("<body>")
    for position, section in enumerate(plan.sections, start=1):
        lines.append(_section_xml(section, position, rng))
    lines.append("</body>")
    lines.append("<back>")
    lines.append("<ref-list>")
    for index, (work, recorded) in enumerate(zip(plan.refs, plan.recorded_years)):
        lines.append(_reference_xml(index, work, recorded))
    lines.append("</ref-list>")
    lines.append("</back>")
    lines.append("</article>")
    return "\n".join(lines) + "\n"

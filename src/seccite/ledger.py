"""Fractional per-section citation counts per cited DOI, mergeable and exact.

Every (citing article, cited DOI) pair contributes total weight exactly 1:
split over the six canonical sections in proportion to mention counts when
the pair has at least one recognized-section mention, otherwise 1 to the
"other" bucket (unrecognized or outside-section contexts). All weights are
`fractions.Fraction`, so conservation, merge associativity/commutativity and
worker-count independence are exact, not approximate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping

from .sections import SECTION_ORDER, CanonicalSection, SectionLabel, normalize_section

if TYPE_CHECKING:
    from .jats import ParsedArticle, ReferenceEntry

OTHER_COLUMN = "other"


def outer_section_labels(
    article: ParsedArticle, table: Mapping[str, CanonicalSection] | None = None
) -> dict[str, SectionLabel]:
    """Normalize every outer (depth-1) section of an article."""
    labels = {}
    for node_id in article.sections.roots:
        node = article.sections.nodes[node_id]
        labels[node_id] = normalize_section(node.sec_type, node.title_raw, table)
    return labels


def exact_sum(weights: Iterable[Fraction]) -> Fraction:
    """Exact sum that adds integer numerators per denominator and builds one
    Fraction at the end, instead of normalizing after every addition."""
    by_denominator: dict[int, int] = {}
    for weight in weights:
        denominator = weight.denominator
        by_denominator[denominator] = by_denominator.get(denominator, 0) + weight.numerator
    common = lcm(*by_denominator)
    return Fraction(
        sum(numerator * (common // d) for d, numerator in by_denominator.items()), common
    )


@dataclass(frozen=True)
class ArticleTally:
    """Recognized-section mention counts of one citing article.

    mentions: cited DOI -> section -> mention count (>= 1). Only citations
    with a canonical section and a cited DOI appear.
    """

    citing_doi: str | None
    citing_journal: str
    citing_year: int | None
    mentions: Mapping[str, Mapping[CanonicalSection, int]]


@dataclass(frozen=True)
class CitationContribution:
    cited_doi: str
    section: CanonicalSection
    weight: Fraction


def _mention_maps(
    article: ParsedArticle, labels: Mapping[str, SectionLabel]
) -> tuple[dict[str, dict[CanonicalSection, int]], dict[str, int]]:
    """Split an article's markers into recognized and other-context mentions.

    Returns (recognized: doi -> section -> count, other: doi -> count). A
    marker counts each distinct cited DOI once.
    """
    refs = article.reference_map()
    recognized: dict[str, dict[CanonicalSection, int]] = {}
    other: dict[str, int] = {}
    for citation in article.citations:
        dois = sorted(
            {
                refs[rid].cited_doi
                for rid in citation.ref_ids
                if rid in refs and refs[rid].cited_doi is not None
            }
        )
        if not dois:
            continue
        label = None
        if citation.outer_section_node_id is not None:
            label = labels.get(citation.outer_section_node_id)
        if label is not None and label.is_recognized:
            assert label.section is not None
            for doi in dois:
                per_section = recognized.setdefault(doi, {})
                per_section[label.section] = per_section.get(label.section, 0) + 1
        else:
            for doi in dois:
                other[doi] = other.get(doi, 0) + 1
    return recognized, other


@lru_cache(maxsize=1024)
def _unit_weight(count: int, total: int) -> Fraction:
    """count/total; mention counts are small, so few distinct weights recur."""
    return Fraction(count, total)


def fractionalize(tally: ArticleTally) -> list[CitationContribution]:
    """Turn mention counts into per-DOI weights that sum to exactly 1."""
    contributions: list[CitationContribution] = []
    for doi in sorted(tally.mentions):
        per_section = tally.mentions[doi]
        total = sum(per_section.values())
        for section in SECTION_ORDER:
            count = per_section.get(section)
            if count:
                contributions.append(
                    CitationContribution(doi, section, _unit_weight(count, total))
                )
    return contributions


@dataclass
class Ledger:
    """Mergeable corpus aggregate of section citation weights.

    vectors and cohort_index always share a key set. Sidecar aggregates
    (cited-meta evidence, per-citing-journal weights, per-cited-journal
    other weights) exist so both share-table perspectives can be computed
    from a persisted ledger alone.
    """

    vectors: dict[str, dict[CanonicalSection, Fraction]] = field(default_factory=dict)
    cohort_index: dict[str, set[tuple[str, int | None]]] = field(default_factory=dict)
    cited_journals: dict[str, Counter] = field(default_factory=dict)
    cited_years: dict[str, Counter] = field(default_factory=dict)
    source_sections: dict[str, dict[CanonicalSection, Fraction]] = field(default_factory=dict)
    source_other: dict[str, Fraction] = field(default_factory=dict)
    source_issns: dict[str, set[str]] = field(default_factory=dict)
    target_other: dict[str, Fraction] = field(default_factory=dict)

    def dois(self) -> list[str]:
        return sorted(self.vectors)

    def total(self, doi: str) -> Fraction:
        return exact_sum(self.vectors[doi].values())

    def counts(self, doi: str, section: CanonicalSection) -> Fraction:
        return self.vectors[doi].get(section, Fraction(0))

    def add_article(self, article: ParsedArticle, labels: Mapping[str, SectionLabel]) -> None:
        """Fold one research article's citations into this ledger.

        Everything that can fail runs before the first write, so an article
        that raises leaves the ledger as it was.
        """
        recognized, other = _mention_maps(article, labels)
        record = article.record
        journal, year = record.journal_title, record.pub_year
        # Holds every DOI of `recognized` and `other`, which come from these references.
        refs_by_doi: dict[str, ReferenceEntry] = {}
        for ref in article.references:
            if ref.cited_doi is not None and ref.cited_doi not in refs_by_doi:
                refs_by_doi[ref.cited_doi] = ref
        per_doi: dict[str, dict[CanonicalSection, Fraction]] = {}
        per_section: dict[CanonicalSection, list[Fraction]] = {}
        for contribution in fractionalize(ArticleTally(record.doi, journal, year, recognized)):
            per_doi.setdefault(contribution.cited_doi, {})[contribution.section] = (
                contribution.weight
            )
            per_section.setdefault(contribution.section, []).append(contribution.weight)
        journal_weights = {section: exact_sum(weights) for section, weights in per_section.items()}
        # Mixed pairs carry all their weight in the six sections, so only
        # pairs cited outside them alone go to the "other" buckets.
        other_titles = Counter(
            refs_by_doi[doi].cited_journal_title or "" for doi in other if doi not in recognized
        )

        cohorts, journals, years = self.cohort_index, self.cited_journals, self.cited_years
        for doi, weights in per_doi.items():
            vector = self.vectors.get(doi)
            if vector is None:
                self.vectors[doi] = weights
            else:
                _add_weights(vector, weights)
            # `get` first, so that only a DOI new to the ledger gets a new container
            (cohorts.get(doi) or cohorts.setdefault(doi, set())).add((journal, year))
            ref = refs_by_doi[doi]
            if ref.cited_journal_title:
                counts = journals.get(doi) or journals.setdefault(doi, Counter())
                counts[ref.cited_journal_title] += 1
            if ref.cited_year is not None:
                counts = years.get(doi) or years.setdefault(doi, Counter())
                counts[ref.cited_year] += 1
        if journal_weights:
            _add_weights(self.source_sections.setdefault(journal, {}), journal_weights)
        if other_titles:
            self.source_other[journal] = (
                self.source_other.get(journal, Fraction(0)) + other_titles.total()
            )
            for title, count in other_titles.items():
                self.target_other[title] = self.target_other.get(title, Fraction(0)) + count
        if recognized or other:
            self.source_issns.setdefault(journal, set()).update(record.issn_list)

    def update(self, other: "Ledger") -> None:
        """In-place pointwise addition / evidence union.

        A key new to this ledger gets a copy of other's container, never the
        container itself, so later updates of either ledger stay apart.
        """
        for mine, theirs in (
            (self.vectors, other.vectors),
            (self.source_sections, other.source_sections),
        ):
            for key, weights in theirs.items():
                if key in mine:
                    _add_weights(mine[key], weights)
                else:
                    mine[key] = dict(weights)
        for mine, theirs in (
            (self.cohort_index, other.cohort_index),
            (self.cited_journals, other.cited_journals),
            (self.cited_years, other.cited_years),
            (self.source_issns, other.source_issns),
        ):
            # set.update takes the union, Counter.update adds the counts.
            for key, values in theirs.items():
                if key in mine:
                    mine[key].update(values)
                else:
                    mine[key] = values.copy()
        _add_weights(self.source_other, other.source_other)
        _add_weights(self.target_other, other.target_other)


def _add_weights(into: dict, weights: Mapping) -> None:
    """Add each weight into `into`; a new key takes the weight itself."""
    for key, weight in weights.items():
        old = into.get(key)
        into[key] = weight if old is None else old + weight


def merge(left: Ledger, right: Ledger) -> Ledger:
    """Pointwise rational addition of two ledgers; associative and commutative."""
    result = Ledger()
    result.update(left)
    result.update(right)
    return result


def _modal(counts: Mapping | None, default):
    """The most counted key, ties broken to the smallest; default if none."""
    return min(counts.items(), key=lambda item: (-item[1], item[0]))[0] if counts else default


def resolve_cited_year(ledger: Ledger, doi: str) -> int | None:
    """Modal cited-year across citing references; ties break to the earliest."""
    return _modal(ledger.cited_years.get(doi), None)


def modal_cited_journal(ledger: Ledger, doi: str) -> str:
    """Modal cited-journal title; ties break lexicographically. "" if unseen."""
    return _modal(ledger.cited_journals.get(doi), "")


# ---------------------------------------------------------------------------
# Persistence. One main TSV plus sidecar TSVs; exact round-trip.
# ---------------------------------------------------------------------------

LEDGER_COLUMNS = [s.column for s in SECTION_ORDER]


def _format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _check_keys(ledger: Ledger) -> None:
    """Raise ValueError for a DOI that would not read back: one missing from
    vectors or from cohort_index while another of the per-DOI maps holds it.
    Likewise for a citing journal in source_issns but in neither
    source_sections nor source_other, or the reverse."""
    for has, lacks in (("cohort_index", "vectors"), ("cited_journals", "vectors"),
                       ("cited_years", "vectors"), ("vectors", "cohort_index")):
        stray = getattr(ledger, has).keys() - getattr(ledger, lacks).keys()
        if stray:
            raise ValueError(f"cannot write DOI {min(stray)!r}: it is in {has} but not {lacks}")
    weighted = ledger.source_sections.keys() | ledger.source_other.keys()
    stray = weighted ^ ledger.source_issns.keys()
    if stray:
        raise ValueError(f"cannot write journal {min(stray)!r}: it must be in source_issns "
                         "exactly when it is in source_sections or source_other")


def _main_rows(ledger: Ledger) -> Iterator[list[str]]:
    for doi in sorted(ledger.vectors):
        counts = ledger.vectors[doi]
        yield [doi, *(_format_fraction(counts.get(s, Fraction(0))) for s in SECTION_ORDER),
               _format_fraction(ledger.total(doi))]


def _cohort_rows(ledger: Ledger) -> Iterator[list[str]]:
    for doi in sorted(ledger.cohort_index):
        pairs = ledger.cohort_index[doi]
        for journal, year in sorted(pairs, key=lambda p: (p[0], p[1] is None, p[1] or 0)):
            yield [doi, journal, "" if year is None else str(year)]


def _meta_rows(ledger: Ledger) -> Iterator[list[str]]:
    for doi in sorted(set(ledger.cited_journals) | set(ledger.cited_years)):
        for title, count in sorted(ledger.cited_journals.get(doi, {}).items()):
            yield [doi, "journal", title, str(count)]
        for year, count in sorted(ledger.cited_years.get(doi, {}).items()):
            yield [doi, "year", str(year), str(count)]


def _sources_rows(ledger: Ledger) -> Iterator[list[str]]:
    """Raises ValueError for an ISSN that is empty or holds ';', the cell's separator."""
    for journal in sorted(set(ledger.source_sections) | set(ledger.source_other)):
        issns = sorted(ledger.source_issns.get(journal, set()))
        for issn in issns:
            if not issn or ";" in issn:
                raise ValueError(f"cannot write ISSN {issn!r}: ledger ISSNs are joined by ';'")
        counts = ledger.source_sections.get(journal, {})
        yield [journal, ";".join(issns),
               *(_format_fraction(counts.get(s, Fraction(0))) for s in SECTION_ORDER),
               _format_fraction(ledger.source_other.get(journal, Fraction(0)))]


def _targets_rows(ledger: Ledger) -> Iterator[list[str]]:
    for title in sorted(ledger.target_other):
        yield [title, _format_fraction(ledger.target_other[title])]


# The files of a ledger, in write order: name part -> (header row, rows). The
# header is the only one read_ledger accepts; each row is a list of cells.
_FILES: dict[str, tuple[list[str], Callable[[Ledger], Iterable[list[str]]]]] = {
    "": (["doi", *LEDGER_COLUMNS, "total"], _main_rows),
    ".cohort": (["doi", "citing_journal", "citing_year"], _cohort_rows),
    ".meta": (["doi", "kind", "value", "count"], _meta_rows),
    ".sources": (["journal", "issns", *LEDGER_COLUMNS, OTHER_COLUMN], _sources_rows),
    ".targets": (["cited_journal", OTHER_COLUMN], _targets_rows),
}


def ledger_files(directory: str | Path) -> list[Path]:
    """The main TSV and its four sidecars (cohort, meta, sources, targets)."""
    return [Path(directory) / f"ledger{part}.tsv" for part in _FILES]


def tsv_lines(name: str, header: list[str], rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """The header and each row of file `name` as tab-joined lines. Raises
    ValueError naming the file for a cell that holds a tab or newline (a tab
    inside a cell adds one to its row's count)."""
    yield "\t".join(header) + "\n"
    for cells in rows:
        line = "\t".join(cells)
        if line.count("\t") != len(header) - 1 or "\n" in line:
            raise ValueError(f"{name}: a cell of {line!r} holds a tab or newline")
        yield line + "\n"


def write_files(directory: str | Path, files: Mapping[str, Iterable[str]]) -> list[Path]:
    """Write each file of `directory` from its lines; returns written paths.

    Each file is written as <name>.tmp and all of them are renamed into place
    at the end. A failed write or rename raises and leaves no temporary file;
    a failed write also leaves every earlier file of the group as it was.
    """
    Path(directory).mkdir(parents=True, exist_ok=True)
    paths = [Path(directory) / name for name in files]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        for temp, lines in zip(temps, files.values()):
            with temp.open("w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(lines)
        for temp, path in zip(temps, paths):
            temp.replace(path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    return paths


def write_ledger(ledger: Ledger, directory: str | Path) -> list[Path]:
    """Write the ledger and its sidecars through write_files; returns their paths.

    Raises ValueError for a ledger that would not read back unchanged:
    cohort_index keys other than the vectors keys, a cited_journals or
    cited_years DOI not in vectors, a tab or newline in any cell, an ISSN that
    is empty or holds ';', or source_issns keys other than the journals in
    source_sections or source_other.
    """
    _check_keys(ledger)
    return write_files(directory, {
        path.name: tsv_lines(path.name, header, rows(ledger))
        for path, (header, rows) in zip(ledger_files(directory), _FILES.values())
    })


def _read_rows(path: Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each row after the header, read line by line.

    Raises ValueError naming the file and line for a header other than
    `header` or a row whose cell count differs from the header's.
    """
    with path.open("r", encoding="utf-8", newline="\n") as handle:
        found = handle.readline().rstrip("\n")
        if found.split("\t") != header:
            expected = "\t".join(header)
            raise ValueError(f"{path}, line 1: header {found!r} is not {expected!r}")
        width = len(header)
        for number, line in enumerate(handle, start=2):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != width:
                raise ValueError(f"{path}, line {number}: {len(cells)} cells, not {width}")
            yield number, cells


def _parse_weight(cell: str, path: Path, line: int) -> Fraction:
    """An exact weight as _format_fraction writes it: integers "n/d", d > 0."""
    numerator, _, denominator = cell.partition("/")
    try:
        n, d = int(numerator), int(denominator)
        if d > 0:
            return Fraction(n, d)
    except ValueError:
        pass
    raise ValueError(f"{path}, line {line}: weight {cell!r} is not n/d with integers n and d > 0")


def _parse_int(cell: str, what: str, path: Path, line: int) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"{path}, line {line}: {what} {cell!r} is not an integer") from None


def _first(key: str, seen: Container[str], what: str, path: Path, line: int) -> str:
    """`key`, unless an earlier row of the file already had it."""
    if key in seen:
        raise ValueError(f"{path}, line {line}: {what} {key!r} repeats an earlier row")
    return key


class _Interned:
    """One object per distinct value met during one read_ledger call.

    A ledger repeats few values many times: the 80,442 weight cells of an
    8,000-article synthetic ledger hold 1,130 distinct texts. Only immutable
    values are shared; each key keeps its own dict, set and Counter.
    """

    def __init__(self) -> None:
        self.texts: dict[str, str] = {}
        self.weights: dict[str, Fraction] = {"0/1": Fraction(0)}
        self.years: dict[str, int] = {}
        self.pairs: dict[tuple[str, str], tuple[str, int | None]] = {}

    def text(self, text: str) -> str:
        return self.texts.setdefault(text, text)

    def weight(self, cell: str, path: Path, line: int) -> Fraction:
        value = self.weights.get(cell)
        if value is None:
            value = self.weights[cell] = _parse_weight(cell, path, line)
        return value

    def year(self, cell: str, path: Path, line: int) -> int:
        value = self.years.get(cell)
        if value is None:
            value = self.years[cell] = _parse_int(cell, "year", path, line)
        return value

    def pair(self, journal: str, year: str, path: Path, line: int) -> tuple[str, int | None]:
        key = (journal, year)
        value = self.pairs.get(key)
        if value is None:
            value = self.pairs[key] = (
                self.text(journal), self.year(year, path, line) if year else None
            )
        return value

    def section_weights(
        self, cells: list[str], path: Path, line: int
    ) -> dict[CanonicalSection, Fraction]:
        """The nonzero weights among a row's six section cells, in a new dict."""
        weights = {}
        for section, cell in zip(SECTION_ORDER, cells):
            value = self.weight(cell, path, line)
            if value:
                weights[section] = value
        return weights


def read_ledger(directory: str | Path) -> Ledger:
    """Load a ledger written by write_ledger; exact inverse.

    Raises ValueError naming the file and line for a header other than the
    one write_ledger writes, a row with another number of cells, a weight
    cell that is not "n/d" with integers n and d > 0, a count or year that
    is not an integer, a DOI, journal or cited-journal title that repeats
    an earlier row of its file, an empty ISSN in an issns cell, or a cohort
    or meta DOI with no row in ledger.tsv. Equal weights, cohort pairs,
    journal titles, years and DOIs come back as one shared object.
    """
    main, cohort, meta, sources, targets = ledger_files(directory)
    ledger = Ledger()
    values = _Interned()

    if not main.exists():
        raise FileNotFoundError(f"ledger file not found: {main}")
    for line, (doi, *cells) in _read_rows(main, _FILES[""][0]):
        doi = values.text(_first(doi, ledger.vectors, "DOI", main, line))
        ledger.vectors[doi] = values.section_weights(cells, main, line)
        ledger.cohort_index[doi] = set()

    for line, (doi, journal, year) in _read_rows(cohort, _FILES[".cohort"][0]):
        doi_cohort = ledger.cohort_index.get(doi)
        if doi_cohort is None:
            raise ValueError(f"{cohort}, line {line}: DOI {doi!r} has no row in {main.name}")
        doi_cohort.add(values.pair(journal, year, cohort, line))

    for line, (doi, kind, value, count) in _read_rows(meta, _FILES[".meta"][0]):
        if kind == "journal":
            counters, key = ledger.cited_journals, values.text(value)
        elif kind == "year":
            counters, key = ledger.cited_years, values.year(value, meta, line)
        else:
            raise ValueError(f"{meta}, line {line}: unknown meta kind {kind!r}")
        counter = counters.get(doi)
        if counter is None:
            if doi not in ledger.vectors:
                raise ValueError(f"{meta}, line {line}: DOI {doi!r} has no row in {main.name}")
            counter = counters[values.text(doi)] = Counter()
        counter[key] = counter.get(key, 0) + _parse_int(count, "count", meta, line)

    for line, (journal, issns, *cells) in _read_rows(sources, _FILES[".sources"][0]):
        journal = values.text(_first(journal, ledger.source_issns, "journal", sources, line))
        counts = values.section_weights(cells, sources, line)
        if counts:
            ledger.source_sections[journal] = counts
        other = values.weight(cells[-1], sources, line)
        if other:
            ledger.source_other[journal] = other
        ledger.source_issns[journal] = parts = set(issns.split(";")) if issns else set()
        if "" in parts:
            raise ValueError(f"{sources}, line {line}: issns {issns!r} holds an empty ISSN")

    for line, (title, weight) in _read_rows(targets, _FILES[".targets"][0]):
        title = values.text(_first(title, ledger.target_other, "cited journal", targets, line))
        ledger.target_other[title] = values.weight(weight, targets, line)

    return ledger

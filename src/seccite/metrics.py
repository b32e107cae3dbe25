"""Statistical analyses over a citation ledger.

Share tables (per source or target field), geometric means with one offset
over anchored subsets, per-field rank-correlation matrices with cross-field
medians and positive counts, and highly-cited single-section detection.

All functions are pure over an immutable ledger. Fractions are converted to
floats only here, at the metrics boundary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import atan, exp, expm1, fsum, lgamma, log, log1p, pi, sqrt
from statistics import NormalDist, median
from typing import Mapping, Sequence

from .fields import FieldMap, field_of
from .ledger import OTHER_COLUMN, Ledger, exact_sum, modal_cited_journal, resolve_cited_year
from .sections import SECTION_ORDER, CanonicalSection

ALL_COLUMN = "all"
UNCLASSIFIED = "unclassified"
MIN_YEAR = 1900  # the earliest cited year `correlation_tables` accepts

SHARE_COLUMNS: tuple[str, ...] = tuple(s.column for s in SECTION_ORDER) + (OTHER_COLUMN,)
CORRELATION_AXES: tuple[str, ...] = tuple(s.column for s in SECTION_ORDER) + (ALL_COLUMN,)


# ---------------------------------------------------------------------------
# Offset geometric mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoMeanResult:
    n: int
    mean: float
    ci_lo: float
    ci_hi: float


# Above this many degrees of freedom `_t_quantile` uses the Cornish-Fisher
# expansion, whose first omitted term is below 1e-15 there; at or below it, the
# exact CDF series, which needs df // 2 terms per evaluation.
_T_SERIES_MAX_DF = 1000


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| <= t) for t >= 0 and T Student-t with integer df: the finite
    series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df)."""
    odd = df % 2
    cos2 = df / (df + t * t)  # cos^2(theta), theta = atan(t / sqrt(df))
    term, total = 1.0, 0.0
    for k in range(df // 2):
        total += term
        term *= cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    sin = t / sqrt(df + t * t)
    if not odd:
        return sin * total
    return 2.0 / pi * (atan(t / sqrt(df)) + sin * sqrt(cos2) * total)


@lru_cache(maxsize=4096)
def _t_quantile(p: float, df: int) -> float:
    """Student-t quantile for 0.5 <= p < 1 and integer df >= 1, at full double
    precision.

    Up to _T_SERIES_MAX_DF: Newton's method on the exact CDF series, started
    from the normal quantile, which lies below the root. The CDF is concave
    for t > 0, so the iterates rise monotonically; the first step that does
    not raise t means rounding has taken over. Above it: the Cornish-Fisher
    expansion in 1/df to the 1/df^4 term (A&S 26.7.5).
    """
    x = NormalDist().inv_cdf(p)
    if df > _T_SERIES_MAX_DF:
        x2 = x * x
        g1 = x * (x2 + 1) / 4
        g2 = x * ((5 * x2 + 16) * x2 + 3) / 96
        g3 = x * (((3 * x2 + 19) * x2 + 17) * x2 - 15) / 384
        g4 = x * ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) / 92160
        return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    level = 2.0 * p - 1.0  # the central mass P(|T| <= t) at the root
    log_pdf_const = lgamma((df + 1) / 2.0) - lgamma(df / 2.0) - 0.5 * log(df * pi)
    t = x
    while True:
        pdf = exp(log_pdf_const - (df + 1) / 2.0 * log1p(t * t / df))
        step = (level - _t_central_mass(t, df)) / (2.0 * pdf)
        if t + step <= t:
            return t
        t += step


def geometric_mean_ci(values: Sequence[float], confidence: float = 0.95) -> GeoMeanResult:
    """Offset geometric mean exp(mean(ln(1+x)))-1 with a t-based CI.

    The interval is a two-sided t-interval on the log-transformed values,
    back-transformed with exp(.)-1. A single value has a degenerate interval
    equal to the mean.
    """
    if not values:
        raise ValueError("geometric_mean_ci requires at least one value")
    if any(v < 0 for v in values):
        raise ValueError("values must be non-negative")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    logs = [log1p(v) for v in values]
    center = fsum(logs) / n
    mean = expm1(center)
    if n == 1:
        return GeoMeanResult(1, mean, mean, mean)
    variance = fsum((y - center) ** 2 for y in logs) / (n - 1)
    se = sqrt(variance / n)
    t = _t_quantile(0.5 + confidence / 2.0, n - 1)
    return GeoMeanResult(n, mean, expm1(center - t * se), expm1(center + t * se))


# ---------------------------------------------------------------------------
# Spearman rank correlation with average ranks for ties
# ---------------------------------------------------------------------------


def _average_ranks(values: Sequence[float]) -> list[float]:
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        mean_rank = (start + stop) / 2.0 + 1.0  # ranks are 1-based
        for k in range(start, stop + 1):
            ranks[order[k]] = mean_rank
        start = stop + 1
    return ranks


def _centred_ranks(values: Sequence[float]) -> tuple[list[float], float]:
    """Average ranks less their mean, and the sum of their squares."""
    ranks = _average_ranks(values)
    mean = fsum(ranks) / len(ranks)
    centred = [r - mean for r in ranks]
    return centred, fsum(d * d for d in centred)


def _rank_correlation(
    x: tuple[list[float], float], y: tuple[list[float], float]
) -> float | None:
    """Pearson correlation of two `_centred_ranks` results."""
    (dx, sxx), (dy, syy) = x, y
    if sxx == 0.0 or syy == 0.0:
        return None
    r = fsum(a * b for a, b in zip(dx, dy)) / sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation; ties get average ranks.

    Returns None (undefined, reported as missing) when either rank vector
    has zero variance. Raises ValueError for mismatched lengths or n < 2.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("spearman requires at least two observations")
    return _rank_correlation(_centred_ranks(xs), _centred_ranks(ys))


# ---------------------------------------------------------------------------
# Cited DOIs grouped by target field
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CitedDoi:
    """One ledger DOI as the per-DOI tables read it."""

    doi: str
    vector: Mapping[CanonicalSection, Fraction]
    counts: tuple[float, ...]  # float(vector[s]) for s in SECTION_ORDER
    total: Fraction  # exact sum of vector
    year: int | None  # modal cited year


@dataclass(frozen=True)
class CitedDois:
    """Every ledger DOI resolved once, in DOI order, and the same DOIs grouped
    by the field of their modal cited journal (None: no field matched)."""

    dois: tuple[CitedDoi, ...]
    by_field: Mapping[str | None, Sequence[CitedDoi]]


def cited_dois(ledger: Ledger, field_map: FieldMap) -> CitedDois:
    """Resolve each ledger DOI once: its float counts, exact total, modal
    cited year and field. The tables take the result as `cited`, so one
    `stats` run resolves each DOI once rather than once per table."""
    fields: dict[str, str | None] = {}  # modal cited-journal title -> field
    dois: list[CitedDoi] = []
    by_field: dict[str | None, list[CitedDoi]] = {}
    for doi in ledger.dois():
        vector = ledger.vectors[doi]
        counts = tuple(
            w.numerator / w.denominator if (w := vector.get(s)) is not None else 0.0
            for s in SECTION_ORDER
        )
        entry = CitedDoi(doi, vector, counts, ledger.total(doi), resolve_cited_year(ledger, doi))
        title = modal_cited_journal(ledger, doi)
        if title not in fields:
            fields[title] = field_of(field_map, title)
        dois.append(entry)
        by_field.setdefault(fields[title], []).append(entry)
    return CitedDois(tuple(dois), by_field)


# ---------------------------------------------------------------------------
# Share tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShareRow:
    shares: tuple[float, ...]  # six sections then "other", summing to 1
    weight: Fraction


@dataclass(frozen=True)
class ShareTable:
    perspective: str  # "source-field" | "target-field"
    rows: Mapping[str, ShareRow]


def share_row(weights: Sequence[Fraction | float | int]) -> tuple[float, ...]:
    """Normalize one row of section weights into shares summing to 1."""
    exact = [Fraction(w) if not isinstance(w, Fraction) else w for w in weights]
    total = sum(exact, Fraction(0))
    if total <= 0:
        raise ValueError("cannot normalize a row with no weight")
    return tuple(float(w / total) for w in exact)


def _seven(counts: Mapping[CanonicalSection, Fraction], other: Fraction) -> list[Fraction]:
    row = [counts.get(s, Fraction(0)) for s in SECTION_ORDER]
    row.append(other)
    return row


def share_by_field(
    ledger: Ledger, field_map: FieldMap, perspective: str, cited: CitedDois | None = None
) -> ShareTable:
    """Citation-weight shares per field over seven columns (six sections + other).

    source-field groups by the citing journal's field; target-field groups by
    the cited DOI's field via its modal cited-journal title. Journals that
    match no field are gathered under an "unclassified" row. `cited` is
    `cited_dois(ledger, field_map)` when the caller already has it.
    """
    if perspective not in ("source-field", "target-field"):
        raise ValueError(f"unknown perspective {perspective!r}")
    weights: dict[str, list[Fraction]] = {}

    def bucket(field: str | None) -> list[Fraction]:
        key = field if field is not None else UNCLASSIFIED
        return weights.setdefault(key, [Fraction(0)] * 7)

    if perspective == "source-field":
        journals = set(ledger.source_sections) | set(ledger.source_other)
        for journal in sorted(journals):
            issns = sorted(ledger.source_issns.get(journal, set()))
            row = bucket(field_of(field_map, journal, issns))
            for i, value in enumerate(
                _seven(
                    ledger.source_sections.get(journal, {}),
                    ledger.source_other.get(journal, Fraction(0)),
                )
            ):
                row[i] += value
    else:
        if cited is None:
            cited = cited_dois(ledger, field_map)
        for field, group in cited.by_field.items():
            columns: dict[CanonicalSection, list[Fraction]] = {s: [] for s in SECTION_ORDER}
            for doi in group:
                for section, weight in doi.vector.items():
                    columns[section].append(weight)
            row = bucket(field)
            for i, section in enumerate(SECTION_ORDER):
                row[i] += exact_sum(columns[section])
        for title in sorted(ledger.target_other):
            row = bucket(field_of(field_map, title))
            row[6] += ledger.target_other[title]

    rows = {}
    for field, row in weights.items():
        total = sum(row, Fraction(0))
        if total > 0:
            rows[field] = ShareRow(shares=share_row(row), weight=total)
    return ShareTable(perspective=perspective, rows=rows)


# ---------------------------------------------------------------------------
# Anchored-subset geometric means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchoredTable:
    anchor: CanonicalSection
    rows: Mapping[str, Mapping[CanonicalSection, GeoMeanResult]]
    notes: tuple[str, ...]


def _anchored(doi: CitedDoi, anchor: CanonicalSection) -> bool:
    """True when the DOI has weight >= 1 in the anchor section."""
    weight = doi.vector.get(anchor)
    return weight is not None and weight.numerator >= weight.denominator


def anchored_subset_geomeans(
    ledger: Ledger, field_map: FieldMap, cited: CitedDois | None = None
) -> dict[CanonicalSection, AnchoredTable]:
    """Per-field geometric means over DOIs with >= 1 citation in the anchor,
    one table for each of the six sections as anchor.

    Zero-truncated: only DOIs present in the ledger participate. Fields with
    an empty anchored subset are omitted, with a note. `cited` is
    `cited_dois(ledger, field_map)` when the caller already has it.
    """
    if cited is None:
        cited = cited_dois(ledger, field_map)
    grouped = cited.by_field
    fields = sorted(field for field in grouped if field is not None)
    tables = {}
    for anchor in SECTION_ORDER:
        rows: dict[str, dict[CanonicalSection, GeoMeanResult]] = {}
        notes: list[str] = []
        for field in fields:
            subset = [doi for doi in grouped[field] if _anchored(doi, anchor)]
            if not subset:
                notes.append(f"{field}: no articles cited in {anchor.value}; row omitted")
                continue
            rows[field] = {
                section: geometric_mean_ci([doi.counts[i] for doi in subset])
                for i, section in enumerate(SECTION_ORDER)
            }
        tables[anchor] = AnchoredTable(anchor=anchor, rows=rows, notes=tuple(notes))
    return tables


# ---------------------------------------------------------------------------
# Correlation tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationMatrix:
    field: str
    year: int
    n: int
    values: tuple[tuple[float | None, ...], ...]  # 7x7 over sections + all


@dataclass(frozen=True)
class CorrelationReport:
    year: int
    per_field: tuple[CorrelationMatrix, ...]
    median: tuple[tuple[float | None, ...], ...]
    positive_share: tuple[tuple[float | None, ...], ...]
    notes: tuple[str, ...]


def _correlation_matrix(
    columns: Sequence[Sequence[float]],
) -> tuple[tuple[float | None, ...], ...]:
    """Pairwise `spearman` of equal-length columns (n >= 2), with 1.0 on the
    diagonal; each column is ranked once."""
    ranked = [_centred_ranks(column) for column in columns]
    size = len(ranked)
    cells: list[list[float | None]] = [[None] * size for _ in range(size)]
    for i in range(size):
        cells[i][i] = 1.0
        for j in range(i + 1, size):
            value = _rank_correlation(ranked[i], ranked[j])
            cells[i][j] = value
            cells[j][i] = value
    return tuple(tuple(row) for row in cells)


def aggregate_correlations(
    matrices: Sequence[tuple[tuple[float | None, ...], ...]],
) -> tuple[tuple[tuple[float | None, ...], ...], tuple[tuple[float | None, ...], ...]]:
    """Per-cell (median, positive-share) across same-shaped matrices.

    Undefined cells are excluded per cell; the median of an even count is the
    average of the two middle values. Cells with no defined value stay None.
    """
    size = len(CORRELATION_AXES)
    median_cells: list[list[float | None]] = [[None] * size for _ in range(size)]
    positive_cells: list[list[float | None]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            observed = [m[i][j] for m in matrices if m[i][j] is not None]
            if observed:
                median_cells[i][j] = float(median(observed))
                positive_cells[i][j] = sum(1 for v in observed if v > 0) / len(observed)
    return (
        tuple(tuple(row) for row in median_cells),
        tuple(tuple(row) for row in positive_cells),
    )


def correlation_tables(
    ledger: Ledger, field_map: FieldMap, year: int, cited: CitedDois | None = None
) -> CorrelationReport:
    """Per-field 7x7 Spearman matrices for DOIs resolved to one cited year,
    with a per-cell median matrix and positive-correlation share matrix
    across fields. `cited` is `cited_dois(ledger, field_map)` when the caller
    already has it."""
    if year < MIN_YEAR:
        raise ValueError(f"year {year} out of range")
    per_field: list[CorrelationMatrix] = []
    notes: list[str] = []
    if cited is None:
        cited = cited_dois(ledger, field_map)
    grouped = cited.by_field
    fields = sorted(field for field in grouped if field is not None)
    for field in fields:
        sample = [doi for doi in grouped[field] if doi.year == year]
        if len(sample) < 2:
            notes.append(f"{field}: n={len(sample)} < 2 for {year}; excluded")
            continue
        columns = [[doi.counts[i] for doi in sample] for i in range(len(SECTION_ORDER))]
        columns.append([float(doi.total) for doi in sample])
        per_field.append(
            CorrelationMatrix(
                field=field,
                year=year,
                n=len(sample),
                values=_correlation_matrix(columns),
            )
        )

    median_cells, positive_cells = aggregate_correlations([m.values for m in per_field])
    return CorrelationReport(
        year=year,
        per_field=tuple(per_field),
        median=median_cells,
        positive_share=positive_cells,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Highly cited single-section articles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopShareEntry:
    cited_doi: str
    section: CanonicalSection
    share: float
    total: Fraction


def top_share_articles(
    ledger: Ledger,
    min_total: Fraction | int = 100,
    k: int = 2,
    cited: CitedDois | None = None,
) -> list[TopShareEntry]:
    """For each section, the k qualifying DOIs with the highest section share.

    Qualification is total >= min_total over the six sections combined. Ties
    break to the larger total, then the lexicographically smaller DOI. The
    result is ordered by section, then descending share. `cited` is
    `cited_dois(ledger, field_map)` for any field map, when the caller
    already has it.
    """
    min_total = Fraction(min_total)
    if min_total <= 0:
        raise ValueError("min_total must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    if cited is None:
        cited = cited_dois(ledger, FieldMap(by_title={}, by_issn={}))
    qualifying = [doi for doi in cited.dois if doi.total >= min_total]
    entries: list[TopShareEntry] = []
    for section in SECTION_ORDER:
        scored = [
            (doi.vector.get(section, 0) / doi.total, doi.total, doi.doi)
            for doi in qualifying
        ]
        best = heapq.nsmallest(k, scored, key=lambda item: (-item[0], -item[1], item[2]))
        for share, total, doi in best:
            entries.append(
                TopShareEntry(cited_doi=doi, section=section, share=float(share), total=total)
            )
    return entries

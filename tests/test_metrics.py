from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seccite import Ledger, load_classification
from seccite.metrics import (
    CORRELATION_AXES,
    _correlation_matrix,
    _t_quantile,
    aggregate_correlations,
    anchored_subset_geomeans,
    correlation_tables,
    geometric_mean_ci,
    share_by_field,
    share_row,
    spearman,
    top_share_articles,
)
from seccite.ledger import modal_cited_journal, resolve_cited_year
from seccite.sections import SECTION_ORDER, CanonicalSection

import oracles
from conftest import random_ledger

I = CanonicalSection.INTRODUCTION
B = CanonicalSection.BACKGROUND
M = CanonicalSection.METHODS
R = CanonicalSection.RESULTS
D = CanonicalSection.DISCUSSION
C = CanonicalSection.CONCLUSION


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class TestGeometricMeanCi:
    def test_constant_ones(self):
        result = geometric_mean_ci([1.0, 1.0, 1.0])
        assert close(result.mean, 1.0)
        assert result.ci_lo <= result.mean <= result.ci_hi

    def test_all_zero(self):
        result = geometric_mean_ci([0.0, 0.0])
        assert result.mean == 0.0
        assert result.ci_lo == 0.0 and result.ci_hi == 0.0

    def test_zero_three_closed_form(self):
        # ln-space mean of (ln1, ln4) is ln2; back-transformed mean is 2-1=1
        result = geometric_mean_ci([0.0, 3.0])
        assert close(result.mean, 1.0)

    def test_single_value_degenerate_interval(self):
        result = geometric_mean_ci([5.0])
        assert result.ci_lo == result.mean == result.ci_hi
        assert close(result.mean, 5.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean_ci([])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            geometric_mean_ci([1.0, -0.5])

    @pytest.mark.parametrize("confidence", [0.0, -0.5, 1.0, 1.5])
    def test_confidence_outside_unit_interval_raises(self, confidence):
        with pytest.raises(ValueError):
            geometric_mean_ci([1.0, 2.0, 5.0], confidence=confidence)

    def test_matches_high_precision_oracle(self):
        rng = random.Random(1701)
        for _ in range(250):
            n = rng.randint(1, 200)
            values = [
                0.0 if rng.random() < 0.25 else rng.uniform(0.0, 60.0)
                for _ in range(n)
            ]
            got = geometric_mean_ci(values)
            mean, lo, hi = oracles.geomean_ci(values)
            assert close(got.mean, mean)
            assert close(got.ci_lo, lo)
            assert close(got.ci_hi, hi)

    def test_monotone_in_large_additions(self):
        rng = random.Random(5)
        for _ in range(100):
            values = [rng.uniform(0, 20) for _ in range(rng.randint(2, 30))]
            base = geometric_mean_ci(values).mean
            grown = geometric_mean_ci(values + [base + rng.uniform(0.1, 10)]).mean
            assert grown >= base - 1e-12

    def test_below_arithmetic_mean_unless_constant(self):
        rng = random.Random(6)
        for _ in range(100):
            values = [rng.uniform(0, 20) for _ in range(rng.randint(2, 30))]
            if len(set(values)) == 1:
                continue
            arithmetic = sum(values) / len(values)
            assert geometric_mean_ci(values).mean < arithmetic

    def test_large_n_matches_high_precision_oracle(self):
        rng = random.Random(10_000)
        values = [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 80.0) for _ in range(10_000)]
        got = geometric_mean_ci(values)
        mean, lo, hi = oracles.geomean_ci(values)
        assert got.n == 10_000
        assert close(got.mean, mean)
        assert close(got.ci_lo, lo)
        assert close(got.ci_hi, hi)


class TestTQuantile:
    @pytest.mark.parametrize("p", [0.975, 0.995])
    def test_matches_high_precision_oracle(self, p):
        # Both regimes: the exact series up to df 1000, Cornish-Fisher above.
        grid = [*range(1, 61), 999, 1000, 1001, 10_000, 100_000, 1_000_000]
        off = [
            df for df in grid
            if not math.isclose(_t_quantile(p, df), float(oracles.t_quantile(p, df)),
                                rel_tol=1e-12)
        ]
        assert off == []


class TestSpearman:
    def test_identical_order(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_order(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_ties_frozen_value(self):
        # oracle-derived: ranks (1, 2.5, 2.5, 4) vs (2, 1, 3, 4) -> 2/sqrt(10)
        got = spearman([1, 2, 2, 4], [2, 1, 3, 4])
        assert close(got, 0.6324555320336759)
        assert close(got, oracles.spearman([1, 2, 2, 4], [2, 1, 3, 4]))

    def test_zero_variance_is_missing(self):
        assert spearman([1.0, 1.0, 1.0], [1, 2, 3]) is None
        assert spearman([1, 2, 3], [7, 7, 7]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1], [1])

    def test_matches_counting_oracle_with_ties(self):
        rng = random.Random(99)
        tied = 0
        for _ in range(300):
            n = rng.randint(2, 50)
            def draw():
                if rng.random() < 0.5:
                    return [float(rng.randint(0, 6)) for _ in range(n)]
                return [rng.uniform(0, 100) for _ in range(n)]
            xs, ys = draw(), draw()
            if len(set(xs)) < len(xs) or len(set(ys)) < len(ys):
                tied += 1
            got = spearman(xs, ys)
            expected = oracles.spearman(xs, ys)
            if expected is None:
                assert got is None
            else:
                assert close(got, expected)
        assert tied >= 90  # ties are genuinely exercised

    def test_monotone_transform_invariance_exact(self):
        rng = random.Random(123)
        for _ in range(100):
            n = rng.randint(2, 40)
            xs = [float(rng.randint(-30, 30)) for _ in range(n)]
            ys = [float(rng.randint(-30, 30)) for _ in range(n)]
            base = spearman(xs, ys)
            stretched = spearman([math.exp(x / 10.0) for x in xs], ys)
            shifted = spearman(xs, [3.0 * y + 7.0 for y in ys])
            assert base == stretched == shifted

    def test_in_range(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 30)
            xs = [float(rng.randint(0, 4)) for _ in range(n)]
            ys = [float(rng.randint(0, 4)) for _ in range(n)]
            got = spearman(xs, ys)
            if got is not None:
                assert -1.0 <= got <= 1.0


TOTALS_ROW = (8093391, 1067107, 977738, 1604374, 6681164, 485103, 11587726)


class TestShareRow:
    def test_published_corpus_totals_round_to_known_percents(self):
        shares = share_row([Fraction(v) for v in TOTALS_ROW])
        percents = [round(100 * s) for s in shares]
        assert percents == [27, 3, 3, 5, 22, 2, 38]

    def test_equal_weights_one_seventh(self):
        shares = share_row([Fraction(5)] * 7)
        assert all(close(s, 1 / 7) for s in shares)

    def test_rows_sum_to_one(self):
        rng = random.Random(8)
        for _ in range(50):
            weights = [Fraction(rng.randint(0, 500), rng.randint(1, 9)) for _ in range(7)]
            if sum(weights) == 0:
                continue
            shares = share_row(weights)
            assert abs(sum(shares) - 1.0) <= 1e-9
            assert all(0.0 <= s <= 1.0 for s in shares)

    def test_zero_row_raises(self):
        with pytest.raises(ValueError):
            share_row([Fraction(0)] * 7)


@pytest.fixture()
def small_field_map(tmp_path):
    path = tmp_path / "fields.tsv"
    path.write_text(
        "journal_title\tissn\tessn\tfield\n"
        "Journal A\t1000-0001\t\tBiology\n"
        "Journal B\t1000-0002\t\tChemistry\n"
        "Cited Journal One\t\t\tBiology\n",
        "utf-8",
    )
    return load_classification(path)


class TestShareByField:
    def test_source_perspective_known_ratios(self, small_field_map):
        ledger = Ledger()
        ledger.source_sections["Journal A"] = {I: Fraction(3), M: Fraction(1)}
        ledger.source_other["Journal A"] = Fraction(4)
        ledger.source_issns["Journal A"] = {"1000-0001"}
        table = share_by_field(ledger, small_field_map, "source-field")
        row = table.rows["Biology"]
        assert close(row.shares[0], 3 / 8)
        assert close(row.shares[2], 1 / 8)
        assert close(row.shares[6], 4 / 8)
        assert row.weight == Fraction(8)

    def test_unclassified_bucket(self, small_field_map):
        ledger = Ledger()
        ledger.source_sections["Mystery Gazette"] = {D: Fraction(2)}
        table = share_by_field(ledger, small_field_map, "source-field")
        assert set(table.rows) == {"unclassified"}

    def test_target_perspective_uses_modal_journal(self, small_field_map):
        ledger = random_ledger(random.Random(17), dois=8)
        table = share_by_field(ledger, small_field_map, "target-field")
        # every ledger doi's modal journal resolves to a field or unclassified
        total_weight = sum((row.weight for row in table.rows.values()), Fraction(0))
        expected = sum((ledger.total(doi) for doi in ledger.dois()), Fraction(0))
        expected += sum(ledger.target_other.values(), Fraction(0))
        assert total_weight == expected

    def test_rows_sum_to_one(self, small_field_map):
        ledger = random_ledger(random.Random(23), dois=10)
        for perspective in ("source-field", "target-field"):
            table = share_by_field(ledger, small_field_map, perspective)
            for row in table.rows.values():
                assert abs(sum(row.shares) - 1.0) <= 1e-9

    def test_bad_perspective(self, small_field_map):
        with pytest.raises(ValueError):
            share_by_field(Ledger(), small_field_map, "sideways")


class TestAnchoredSubsets:
    def test_single_doi_anchor_hit(self, small_field_map):
        ledger = Ledger()
        ledger.vectors["10.1/x"] = {I: Fraction(1)}
        ledger.cohort_index["10.1/x"] = {("Journal A", 2019)}
        ledger.cited_journals["10.1/x"] = Counter({"Cited Journal One": 1})
        table = anchored_subset_geomeans(ledger, small_field_map)[I]
        row = table.rows["Biology"]
        assert row[I].n == 1
        assert close(row[I].mean, 1.0)
        assert row[M].mean == 0.0

    def test_empty_anchor_omits_rows_with_note(self, small_field_map):
        ledger = Ledger()
        ledger.vectors["10.1/x"] = {I: Fraction(1)}
        ledger.cited_journals["10.1/x"] = Counter({"Cited Journal One": 1})
        table = anchored_subset_geomeans(ledger, small_field_map)[C]
        assert table.rows == {}
        assert len(table.notes) == 1

    def test_matches_naive_oracle(self, small_field_map):
        rng = random.Random(31)
        ledger = random_ledger(rng, dois=30)
        # make modal journals resolvable for a subset
        for i, doi in enumerate(ledger.dois()):
            if i % 2 == 0:
                ledger.cited_journals[doi] = Counter({"Cited Journal One": 5})
        tables = anchored_subset_geomeans(ledger, small_field_map)
        assert list(tables) == list(SECTION_ORDER)
        for anchor in (I, M, C):
            table = tables[anchor]
            # naive: rescan every doi, filter, recompute via mpmath oracle
            from seccite.fields import field_of

            groups: dict[str, list[str]] = {}
            for doi in ledger.dois():
                field = field_of(small_field_map, modal_cited_journal(ledger, doi))
                if field is not None and ledger.counts(doi, anchor) >= 1:
                    groups.setdefault(field, []).append(doi)
            assert set(table.rows) == {f for f, dois in groups.items() if dois}
            for field, dois in groups.items():
                if not dois:
                    continue
                for section in SECTION_ORDER:
                    values = [float(ledger.counts(d, section)) for d in dois]
                    mean, lo, hi = oracles.geomean_ci(values)
                    got = table.rows[field][section]
                    assert got.n == len(dois)
                    assert close(got.mean, mean)
                    assert close(got.ci_lo, lo)
                    assert close(got.ci_hi, hi)


class TestAggregateCorrelations:
    def test_median_and_positive_share_definitions(self):
        size = len(CORRELATION_AXES)

        def matrix(fill):
            return tuple(tuple(fill for _ in range(size)) for _ in range(size))

        median, positive = aggregate_correlations(
            [matrix(-0.2), matrix(0.1), matrix(0.4)]
        )
        assert median[0][1] == pytest.approx(0.1)
        assert positive[0][1] == pytest.approx(2 / 3)

    def test_even_count_averages_middles(self):
        size = len(CORRELATION_AXES)
        matrices = [
            tuple(tuple(v for _ in range(size)) for _ in range(size))
            for v in (0.1, 0.2, 0.6, 0.9)
        ]
        median, _ = aggregate_correlations(matrices)
        assert median[2][3] == pytest.approx(0.4)

    def test_none_cells_excluded(self):
        size = len(CORRELATION_AXES)
        with_none = tuple(
            tuple(None if (i == 0 and j == 1) else 0.5 for j in range(size))
            for i in range(size)
        )
        full = tuple(tuple(0.3 for _ in range(size)) for _ in range(size))
        median, positive = aggregate_correlations([with_none, full])
        assert median[0][1] == pytest.approx(0.3)
        assert median[0][2] == pytest.approx(0.4)
        assert positive[0][1] == pytest.approx(1.0)

    def test_all_none_stays_none(self):
        size = len(CORRELATION_AXES)
        empty = tuple(tuple(None for _ in range(size)) for _ in range(size))
        median, positive = aggregate_correlations([empty])
        assert median[0][1] is None and positive[0][1] is None


def _year_ledger(rng: random.Random, fields_map, dois_per_field=12) -> Ledger:
    """Ledger whose DOIs resolve to cited year 2012 under two known fields."""
    ledger = Ledger()
    for f_i, journal in enumerate(("Journal A", "Journal B")):
        for d in range(dois_per_field):
            doi = f"10.7/{f_i}{d:02d}"
            counts = {
                section: Fraction(rng.randint(0, 12))
                for section in SECTION_ORDER
                if rng.random() < 0.8
            }
            counts = {s: w for s, w in counts.items() if w}
            if not counts:
                counts[I] = Fraction(1)
            ledger.vectors[doi] = counts
            ledger.cohort_index[doi] = {("X", 2019)}
            ledger.cited_journals[doi] = Counter({journal: 3})
            ledger.cited_years[doi] = Counter({2012: 2} if d % 4 else {2013: 1})
    return ledger


class TestCorrelationTables:
    def test_zero_variance_field_has_undefined_cells(self, small_field_map):
        ledger = Ledger()
        for d in range(4):
            doi = f"10.7/z{d}"
            ledger.vectors[doi] = {I: Fraction(2), M: Fraction(1)}
            ledger.cohort_index[doi] = {("X", 2019)}
            ledger.cited_journals[doi] = Counter({"Journal A": 1})
            ledger.cited_years[doi] = Counter({2012: 1})
        report = correlation_tables(ledger, small_field_map, 2012)
        (matrix,) = report.per_field
        assert matrix.n == 4
        assert matrix.values[0][0] == 1.0  # unit diagonal survives
        assert matrix.values[0][1] is None  # zero variance off-diagonal
        assert all(report.median[i][j] is None
                   for i in range(7) for j in range(7) if i != j)

    def test_small_fields_excluded_with_note(self, small_field_map):
        ledger = Ledger()
        ledger.vectors["10.7/a"] = {I: Fraction(1)}
        ledger.cohort_index["10.7/a"] = {("X", 2019)}
        ledger.cited_journals["10.7/a"] = Counter({"Journal A": 1})
        ledger.cited_years["10.7/a"] = Counter({2012: 1})
        report = correlation_tables(ledger, small_field_map, 2012)
        assert report.per_field == ()
        assert any("n=1" in note for note in report.notes)

    def test_year_validation(self, small_field_map):
        with pytest.raises(ValueError):
            correlation_tables(Ledger(), small_field_map, 1500)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(
                st.one_of(
                    st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n),
                    st.lists(st.floats(0, 50), min_size=n, max_size=n),
                    st.floats(0, 50).map(lambda v: [v] * n),
                ),
                min_size=7,
                max_size=7,
            )
        )
    )
    def test_matrix_cells_equal_pairwise_spearman(self, columns):
        values = _correlation_matrix(columns)
        for i in range(7):
            for j in range(7):
                expected = 1.0 if i == j else spearman(columns[i], columns[j])
                assert values[i][j] == expected

    def test_matches_brute_force_oracle(self, small_field_map):
        rng = random.Random(77)
        ledger = _year_ledger(rng, small_field_map)
        report = correlation_tables(ledger, small_field_map, 2012)
        assert len(report.per_field) == 2
        from seccite.fields import field_of

        for matrix in report.per_field:
            dois = [
                doi
                for doi in ledger.dois()
                if field_of(small_field_map, modal_cited_journal(ledger, doi))
                == matrix.field
                and resolve_cited_year(ledger, doi) == 2012
            ]
            assert matrix.n == len(dois)
            columns = [
                [float(ledger.counts(doi, section)) for doi in dois]
                for section in SECTION_ORDER
            ]
            columns.append([float(ledger.total(doi)) for doi in dois])
            for i in range(7):
                for j in range(7):
                    expected = 1.0 if i == j else oracles.spearman(columns[i], columns[j])
                    got = matrix.values[i][j]
                    if expected is None:
                        assert got is None
                    else:
                        assert close(got, expected)
            # symmetry and medians within bounds
            for i in range(7):
                for j in range(7):
                    assert matrix.values[i][j] == matrix.values[j][i]
        for i in range(7):
            for j in range(7):
                observed = [
                    m.values[i][j] for m in report.per_field
                    if m.values[i][j] is not None
                ]
                if observed:
                    assert min(observed) <= report.median[i][j] <= max(observed)


class TestTopShare:
    def _ledger(self, entries) -> Ledger:
        ledger = Ledger()
        for doi, counts in entries.items():
            ledger.vectors[doi] = {s: Fraction(w) for s, w in counts.items()}
            ledger.cohort_index[doi] = set()
        return ledger

    def test_pure_single_section_dominates(self):
        ledger = self._ledger({"10.1/a": {I: 120}, "10.1/b": {I: 150, M: 150}})
        entries = top_share_articles(ledger, min_total=100, k=1)
        intro = [e for e in entries if e.section is I][0]
        assert intro.cited_doi == "10.1/a"
        assert intro.share == 1.0

    def test_threshold_is_inclusive_at_exactly_100(self):
        ledger = self._ledger(
            {"10.1/edge": {I: 100}, "10.1/under": {I: Fraction(9999, 100)}}
        )
        entries = top_share_articles(ledger, min_total=100, k=5)
        selected = {e.cited_doi for e in entries}
        assert "10.1/edge" in selected
        assert "10.1/under" not in selected

    def test_ties_break_on_total_then_doi(self):
        ledger = self._ledger(
            {
                "10.1/big": {M: 400},
                "10.1/alpha": {M: 200},
                "10.1/beta": {M: 200},
            }
        )
        entries = [e for e in top_share_articles(ledger, k=3) if e.section is M]
        assert [e.cited_doi for e in entries] == ["10.1/big", "10.1/alpha", "10.1/beta"]

    def test_shorter_list_when_few_qualify(self):
        ledger = self._ledger({"10.1/a": {I: 120}})
        entries = top_share_articles(ledger, k=2)
        assert len([e for e in entries if e.section is I]) == 1

    def test_shares_non_increasing_per_section(self):
        rng = random.Random(10)
        ledger = Ledger()
        for i in range(40):
            counts = {
                s: Fraction(rng.randint(0, 300))
                for s in SECTION_ORDER
                if rng.random() < 0.7
            }
            counts = {s: w for s, w in counts.items() if w}
            if not counts:
                continue
            ledger.vectors[f"10.1/r{i:02d}"] = counts
            ledger.cohort_index[f"10.1/r{i:02d}"] = set()
        entries = top_share_articles(ledger, k=4)
        for section in SECTION_ORDER:
            shares = [e.share for e in entries if e.section is section]
            assert shares == sorted(shares, reverse=True)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(55)
        for trial in range(10):
            ledger = Ledger()
            for i in range(50):
                counts = {
                    s: Fraction(rng.randint(0, 120), rng.randint(1, 3))
                    for s in SECTION_ORDER
                    if rng.random() < 0.6
                }
                counts = {s: w for s, w in counts.items() if w}
                if not counts:
                    counts[D] = Fraction(rng.randint(1, 400))
                ledger.vectors[f"10.4/t{trial}d{i:02d}"] = counts
                ledger.cohort_index[f"10.4/t{trial}d{i:02d}"] = set()
            got = top_share_articles(ledger, min_total=Fraction(40), k=2)
            expected = oracles.top_share(ledger.vectors, Fraction(40), 2, SECTION_ORDER)
            assert [(e.section, e.cited_doi, e.total) for e in got] == [
                (s, doi, total) for s, doi, _, total in expected
            ]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            top_share_articles(Ledger(), min_total=0)
        with pytest.raises(ValueError):
            top_share_articles(Ledger(), k=0)

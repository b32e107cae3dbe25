from __future__ import annotations

import copy
import dataclasses
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seccite import (
    CanonicalSection,
    Ledger,
    fractionalize,
    merge,
    modal_cited_journal,
    outer_section_labels,
    parse_article,
    read_ledger,
    resolve_cited_year,
    write_ledger,
)
from seccite import ledger as ledger_module
from seccite.ledger import LEDGER_COLUMNS, ArticleTally
from seccite.sections import SECTION_ORDER

import oracles
from conftest import fail_second_rename, make_article, random_ledger, ref_entries, xref

I = CanonicalSection.INTRODUCTION
B = CanonicalSection.BACKGROUND
M = CanonicalSection.METHODS
R = CanonicalSection.RESULTS
D = CanonicalSection.DISCUSSION


def tally(mentions, journal="J", year=2019):
    return ArticleTally(None, journal, year, mentions)


class TestFractionalize:
    def test_worked_example_two_intro_one_discussion(self):
        contributions = fractionalize(tally({"10.1/x": {I: 2, D: 1}}))
        weights = {(c.section, c.cited_doi): c.weight for c in contributions}
        assert weights[(I, "10.1/x")] == Fraction(2, 3)
        assert weights[(D, "10.1/x")] == Fraction(1, 3)

    def test_single_mention_full_weight(self):
        (contribution,) = fractionalize(tally({"10.1/x": {M: 1}}))
        assert contribution.weight == Fraction(1)

    def test_four_sections_quarter_each(self):
        contributions = fractionalize(tally({"10.1/x": {I: 1, B: 1, M: 1, R: 1}}))
        assert [c.weight for c in contributions] == [Fraction(1, 4)] * 4

    def test_conservation_random(self):
        rng = random.Random(13)
        for _ in range(200):
            mentions = {}
            for d in range(rng.randint(1, 5)):
                per = {
                    s: rng.randint(1, 9)
                    for s in SECTION_ORDER
                    if rng.random() < 0.5
                }
                if per:
                    mentions[f"10.1/d{d}"] = per
            contributions = fractionalize(tally(mentions))
            per_doi = {}
            for c in contributions:
                per_doi[c.cited_doi] = per_doi.get(c.cited_doi, Fraction(0)) + c.weight
            assert all(total == 1 for total in per_doi.values())
            assert set(per_doi) == set(mentions)


def added(article, labels=None):
    """A fresh ledger holding one article; labels default to the shipped table."""
    ledger = Ledger()
    ledger.add_article(article, labels if labels is not None else outer_section_labels(article))
    return ledger


class TestTallyArticle:
    """Mention tallying as Ledger.add_article applies it."""

    def test_intro_twice_discussion_once(self):
        body = (
            "<sec><title>Introduction</title>"
            f"<p>One {xref('r1')} two {xref('r1')}.</p></sec>"
            f"<sec><title>Discussion</title><p>Three {xref('r1')}.</p></sec>"
        )
        article = parse_article(make_article(body=body), "t.xml")
        assert added(article).vectors == {"10.2000/aaa": {I: Fraction(2, 3), D: Fraction(1, 3)}}

    def test_unrecognized_section_dropped(self):
        body = f"<sec><title>Acknowledgements</title><p>{xref('r1')}.</p></sec>"
        article = parse_article(make_article(body=body), "t.xml")
        assert added(article).vectors == {}

    def test_outside_section_dropped(self):
        article = parse_article(
            make_article(abstract=f"<p>{xref('r1')}</p>"), "t.xml"
        )
        assert added(article).vectors == {}

    def test_ref_without_doi_dropped(self):
        refs = ref_entries(2, doi_for=lambda i: None)
        body = f"<sec><title>Methods</title><p>{xref('r1')}.</p></sec>"
        article = parse_article(make_article(body=body, refs=refs), "t.xml")
        assert added(article) == Ledger()

    def test_marker_order_irrelevant(self):
        refs = ref_entries(6)
        body = (
            f"<sec><title>Introduction</title><p>{xref('r1')} x {xref('r2')}.</p></sec>"
            f"<sec><title>Methods</title><p>{xref('r3')} x {xref('r1')}.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=refs), "t.xml")
        labels = outer_section_labels(article)
        baseline = added(article, labels)
        rng = random.Random(3)
        for _ in range(5):
            permuted = list(article.citations)
            rng.shuffle(permuted)
            shuffled = dataclasses.replace(article, citations=tuple(permuted))
            assert added(shuffled, labels) == baseline


class TestLedgerAccumulation:
    def test_pair_totals_count_pairs(self):
        refs = ref_entries(5)
        body = (
            f"<sec><title>Introduction</title><p>{xref('r1')}, {xref('r2')}.</p></sec>"
            f"<sec><title>Results</title><p>{xref('r1')} and {xref('r3')}.</p></sec>"
        )
        article = parse_article(make_article(body=body, refs=refs), "t.xml")
        ledger = Ledger()
        ledger.add_article(article, outer_section_labels(article))
        total = sum((ledger.total(doi) for doi in ledger.dois()), Fraction(0))
        assert total == 3  # three (citing, cited) pairs

    def test_mixed_pair_keeps_weight_in_sections(self):
        # r1 cited in a recognized section and in the abstract: the abstract
        # mention adds nothing anywhere.
        body = f"<sec><title>Methods</title><p>{xref('r1')}.</p></sec>"
        article = parse_article(
            make_article(body=body, abstract=f"<p>{xref('r1')}</p>"), "t.xml"
        )
        ledger = Ledger()
        ledger.add_article(article, outer_section_labels(article))
        assert ledger.total("10.2000/aaa") == 1
        assert ledger.source_other == {}
        assert ledger.target_other == {}

    def test_other_only_pair_counts_once_in_other(self):
        article = parse_article(
            make_article(abstract=f"<p>{xref('r1')} and {xref('r1')}</p>"), "t.xml"
        )
        ledger = Ledger()
        ledger.add_article(article, outer_section_labels(article))
        assert ledger.vectors == {}
        assert ledger.source_other == {"Fixture Journal": Fraction(1)}
        assert ledger.target_other == {"Cited Journal One": Fraction(1)}

    def test_cohort_and_meta_evidence(self):
        body = f"<sec><title>Introduction</title><p>{xref('r1')}.</p></sec>"
        article = parse_article(make_article(body=body), "t.xml")
        ledger = Ledger()
        ledger.add_article(article, outer_section_labels(article))
        assert ledger.cohort_index["10.2000/aaa"] == {("Fixture Journal", 2019)}
        assert ledger.cited_journals["10.2000/aaa"] == Counter({"Cited Journal One": 1})
        assert ledger.cited_years["10.2000/aaa"] == Counter({2012: 1})
        assert set(ledger.vectors) == set(ledger.cohort_index)


    @pytest.mark.parametrize("step", ["_mention_maps", "fractionalize", "exact_sum"])
    def test_failed_article_leaves_ledger_unchanged(self, monkeypatch, step):
        refs = ref_entries(4)
        body = (
            f"<sec><title>Introduction</title><p>{xref('r1')}, {xref('r2')}.</p></sec>"
            f"<sec><title>Methods</title><p>{xref('r1')} {xref('r3')}.</p></sec>"
        )
        article = parse_article(
            make_article(body=body, refs=refs, abstract=f"<p>{xref('r4')}</p>"), "t.xml"
        )
        labels = outer_section_labels(article)
        ledger = added(article, labels)
        before = copy.deepcopy(ledger)

        def fail(*args):
            raise KeyError(step)

        monkeypatch.setattr(ledger_module, step, fail)
        with pytest.raises(KeyError):
            ledger.add_article(article, labels)
        assert ledger == before


class TestMerge:
    def test_identity(self):
        ledger = random_ledger(random.Random(1))
        assert merge(ledger, Ledger()) == ledger
        assert merge(Ledger(), ledger) == ledger

    def test_halves_add_exactly(self):
        a, b = Ledger(), Ledger()
        for part in (a, b):
            part.vectors["10.1/x"] = {M: Fraction(1, 2)}
            part.cohort_index["10.1/x"] = {("J", 2019)}
        combined = merge(a, b)
        assert combined.vectors["10.1/x"][M] == Fraction(1)

    def test_commutative_associative(self):
        rng = random.Random(5)
        a, b, c = (random_ledger(rng, dois=6) for _ in range(3))
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    def test_any_permutation_matches_left_fold(self):
        rng = random.Random(99)
        parts = [random_ledger(rng, dois=4, journals=2) for _ in range(10)]
        reference = oracles.fold_merge(Ledger, merge, parts)
        for _ in range(6):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert oracles.fold_merge(Ledger, merge, shuffled) == reference

    def test_merge_does_not_mutate_inputs(self):
        rng = random.Random(8)
        a = random_ledger(rng, dois=3)
        b = random_ledger(rng, dois=3)
        a_copy, b_copy = copy.deepcopy(a), copy.deepcopy(b)
        merge(a, b)
        assert a == a_copy and b == b_copy


class TestResolution:
    def test_modal_year(self):
        ledger = Ledger()
        ledger.cited_years["10.1/x"] = Counter({2012: 2, 2013: 1})
        assert resolve_cited_year(ledger, "10.1/x") == 2012

    def test_tie_breaks_to_earliest(self):
        ledger = Ledger()
        ledger.cited_years["10.1/x"] = Counter({2011: 1, 2012: 1})
        assert resolve_cited_year(ledger, "10.1/x") == 2011

    def test_no_year_recorded(self):
        ledger = Ledger()
        assert resolve_cited_year(ledger, "10.1/x") is None

    def test_modal_journal_tie_lexicographic(self):
        ledger = Ledger()
        ledger.cited_journals["10.1/x"] = Counter({"B Journal": 1, "A Journal": 1})
        assert modal_cited_journal(ledger, "10.1/x") == "A Journal"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(1990, 1995), st.integers(1, 3), min_size=1, max_size=4)
           | st.dictionaries(st.sampled_from("ABCDE"), st.integers(1, 3), min_size=1, max_size=4))
    def test_modal_is_the_most_counted_then_smallest_key(self, counts):
        expected = min(counts.items(), key=lambda item: (-item[1], item[0]))[0]
        assert ledger_module._modal(Counter(counts), None) == expected


_PARTS = ["", ".cohort", ".meta", ".sources", ".targets"]


def _write_full_ledger(directory):
    """A written ledger whose five files each hold at least two rows."""
    ledger = random_ledger(random.Random(5), dois=4, journals=2)
    ledger.target_other = {"A": Fraction(1), "B": Fraction(2, 3)}
    write_ledger(ledger, directory)


def _fail_after_one_row(monkeypatch, part):
    """Make write_ledger raise OSError after the first row of ledger<part>.tsv."""
    header, rows = ledger_module._FILES[part]

    def failing(ledger):
        yield next(iter(rows(ledger)))
        raise OSError("disk full")

    monkeypatch.setitem(ledger_module._FILES, part, (header, failing))


# The integer cells of a ledger: file part, meta kind, column, name in errors.
_INTEGER_CELLS = pytest.mark.parametrize(
    "part, kind, column, what",
    [(".meta", "journal", 3, "count"), (".meta", "year", 2, "year"),
     (".cohort", None, 2, "year")],
    ids=["meta-count", "meta-year", "cohort-year"],
)


def _expect_bad_integer(directory, part, kind, column, what, cell):
    """Put `cell` in the first integer cell of its kind in a written ledger:
    read_ledger must fail naming the file and line."""
    _write_full_ledger(directory)
    path = directory / f"ledger{part}.tsv"
    lines = path.read_text("utf-8").split("\n")
    index = next(i for i, line in enumerate(lines[1:], 1)
                 if kind is None or line.split("\t")[1] == kind)
    cells = lines[index].split("\t")
    cells[column] = cell
    lines[index] = "\t".join(cells)
    path.write_text("\n".join(lines), "utf-8")
    message = re.escape(f"ledger{part}.tsv, line {index + 1}: {what} {cell!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        read_ledger(directory)


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ledger = random_ledger(random.Random(21), dois=20, journals=4)
        write_ledger(ledger, tmp_path)
        assert read_ledger(tmp_path) == ledger

    def test_synth_ledger_round_trip(self, tmp_path, synth_corpus):
        _, truth = synth_corpus
        write_ledger(truth.ledger, tmp_path)
        assert read_ledger(tmp_path) == truth.ledger

    def test_fraction_serialization_exact(self, tmp_path):
        ledger = Ledger()
        ledger.vectors["10.1/x"] = {M: Fraction(1, 3), D: Fraction(10**12, 7)}
        ledger.cohort_index["10.1/x"] = {("J", None)}
        write_ledger(ledger, tmp_path)
        back = read_ledger(tmp_path)
        assert back.vectors["10.1/x"][D] == Fraction(10**12, 7)
        assert back.cohort_index["10.1/x"] == {("J", None)}

    def test_read_without_cohort_leaves_only_cohort_index_empty(self, tmp_path, synth_corpus):
        write_ledger(synth_corpus[1].ledger, tmp_path / "full")
        full = read_ledger(tmp_path / "full")
        partial = read_ledger(tmp_path / "full", cohort=False)
        assert full.cohort_index and partial.cohort_index == {}
        assert partial == dataclasses.replace(full, cohort_index={})
        with pytest.raises(ValueError, match="in vectors but not cohort_index"):
            write_ledger(partial, tmp_path / "copy")
        assert not (tmp_path / "copy").exists()

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_ledger(tmp_path)

    def test_semicolon_joined_issns_round_trip(self, tmp_path):
        body = f"<sec><title>Methods</title><p>{xref('r1')}.</p></sec>"
        article = parse_article(make_article(body=body, issn="1234-5678; 9999-0000"), "t.xml")
        ledger = Ledger()
        ledger.add_article(article, outer_section_labels(article))
        assert ledger.source_issns["Fixture Journal"] == {"1234-5678", "9999-0000"}
        write_ledger(ledger, tmp_path)
        assert read_ledger(tmp_path) == ledger

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda led: led.source_issns["J"].add("1234-5678;9999-0000"),
            lambda led: led.source_issns["J"].add(""),
            lambda led: led.cited_journals["10.1/x"].update({"Tab\tJournal": 1}),
            lambda led: led.cohort_index["10.1/x"].add(("Line\nJournal", 2019)),
            lambda led: led.vectors.update({"10.1/\ty": {M: Fraction(1)}}),
            lambda led: led.target_other.update({"Line\n": Fraction(1)}),
            lambda led: led.cohort_index.pop("10.1/x"),
            lambda led: led.cohort_index.update({"10.1/y": {("J", 2019)}}),
            lambda led: led.cited_journals.update({"10.1/y": Counter({"Cited": 1})}),
            lambda led: led.cited_years.update({"10.1/y": Counter({2019: 1})}),
        ],
        ids=["issn-semicolon", "issn-empty", "meta-tab", "cohort-newline", "doi-tab",
             "target-newline", "cohort-lacks-doi", "cohort-extra-doi", "meta-journal-doi",
             "meta-year-doi"],
    )
    def test_write_rejects_cells_that_cannot_round_trip(self, tmp_path, spoil):
        ledger = Ledger()
        ledger.vectors["10.1/x"] = {M: Fraction(1)}
        ledger.cohort_index["10.1/x"] = {("J", 2019)}
        ledger.cited_journals["10.1/x"] = Counter({"Cited": 1})
        ledger.source_sections["J"] = {M: Fraction(1)}
        ledger.source_issns["J"] = {"1234-5678"}
        spoil(ledger)
        with pytest.raises(ValueError):
            write_ledger(ledger, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "ledger",
        [Ledger(source_issns={"J": {"1234-5678"}}), Ledger(source_other={"J": Fraction(1)})],
        ids=["issns-without-weights", "weights-without-issns"],
    )
    def test_source_issns_must_match_weighted_journals(self, tmp_path, ledger):
        with pytest.raises(ValueError, match="journal 'J'"):
            write_ledger(ledger, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "spoil, error",
        [
            (lambda led, _: (led.vectors.update({"10.1/\tx": {M: Fraction(1)}}),
                             led.cohort_index.update({"10.1/\tx": {("J", 2019)}})), ValueError),
            (lambda led, _: led.cited_journals["10.5000/rand000"].update({"Tab\tJournal": 1}),
             ValueError),
            (lambda led, _: led.target_other.update({"Line\nJournal": Fraction(1)}), ValueError),
            (lambda _, patch: _fail_after_one_row(patch, ".sources"), OSError),
        ],
        ids=["doi-tab", "meta-tab", "target-newline", "oserror-mid-file"],
    )
    def test_rejected_write_keeps_the_previous_ledger(self, tmp_path, monkeypatch, spoil, error):
        _write_full_ledger(tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(before) == 5
        ledger = random_ledger(random.Random(6), dois=6)
        spoil(ledger, monkeypatch)
        with pytest.raises(error):
            write_ledger(ledger, tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        _write_full_ledger(tmp_path)
        fail_second_rename(monkeypatch)
        with pytest.raises(OSError, match="cannot rename ledger.cohort.tsv.tmp"):
            write_ledger(random_ledger(random.Random(6), dois=6), tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"ledger{part}.tsv" for part in _PARTS)

    @pytest.mark.parametrize("cell", ["1.5", "x/2", "1/0", "1/-3", "2", "", "-1/2", "+0_3/1",
                                      pytest.param(" 1/2", id="space-1/2"),
                                      pytest.param("1/2 ", id="1/2-space"),
                                      "01/2", "1/02", "1_0/3", "\u0663/4"])
    @pytest.mark.parametrize("part, column", [("", 1), (".sources", -1), (".targets", 1)])
    def test_read_names_file_and_line_of_bad_weight(self, tmp_path, part, column, cell):
        _write_full_ledger(tmp_path)
        path = tmp_path / f"ledger{part}.tsv"
        lines = path.read_text("utf-8").split("\n")
        cells = lines[2].split("\t")
        cells[column] = cell
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines), "utf-8")
        message = re.escape(f"ledger{part}.tsv, line 3: weight {cell!r}")
        with pytest.raises(ValueError, match=message):
            read_ledger(tmp_path)

    @pytest.mark.parametrize("part", _PARTS)
    def test_read_names_file_of_wrong_header(self, tmp_path, part):
        _write_full_ledger(tmp_path)
        path = tmp_path / f"ledger{part}.tsv"
        path.write_bytes(b"x" + path.read_bytes())
        with pytest.raises(ValueError, match=re.escape(f"ledger{part}.tsv, line 1: header 'x")):
            read_ledger(tmp_path)

    @pytest.mark.parametrize("change", [-1, 1], ids=["cell-short", "cell-extra"])
    @pytest.mark.parametrize("part", _PARTS)
    def test_read_names_file_and_line_of_bad_row_width(self, tmp_path, part, change):
        _write_full_ledger(tmp_path)
        path = tmp_path / f"ledger{part}.tsv"
        lines = path.read_bytes().split(b"\n")
        width = lines[0].count(b"\t") + 1
        lines[2] = lines[2].rsplit(b"\t", 1)[0] if change < 0 else lines[2] + b"\t1/1"
        path.write_bytes(b"\n".join(lines))
        message = re.escape(f"ledger{part}.tsv, line 3: {width + change} cells, not {width}")
        with pytest.raises(ValueError, match=message):
            read_ledger(tmp_path)

    @_INTEGER_CELLS
    def test_read_names_file_and_line_of_bad_integer(self, tmp_path, part, kind, column, what):
        _expect_bad_integer(tmp_path, part, kind, column, what, "x")

    @pytest.mark.parametrize("cell", ["-1", "+1", pytest.param(" 1_0 ", id="space-1_0-space"),
                                      "1_0", "01", pytest.param("7 ", id="7-space"), "\u0663"])
    @_INTEGER_CELLS
    def test_read_takes_only_integers_as_write_ledger_writes_them(
        self, tmp_path, part, kind, column, what, cell
    ):
        _expect_bad_integer(tmp_path, part, kind, column, what, cell)

    @pytest.mark.parametrize(
        "part, what", [("", "DOI"), (".sources", "journal"), (".targets", "cited journal")]
    )
    def test_read_rejects_a_repeated_key(self, tmp_path, part, what):
        _write_full_ledger(tmp_path)
        path = tmp_path / f"ledger{part}.tsv"
        lines = path.read_text("utf-8").split("\n")
        lines.insert(3, lines[1])
        path.write_text("\n".join(lines), "utf-8")
        key = lines[1].split("\t")[0]
        message = re.escape(f"ledger{part}.tsv, line 4: {what} {key!r} repeats an earlier row")
        with pytest.raises(ValueError, match=message):
            read_ledger(tmp_path)

    @pytest.mark.parametrize("cell", ["1111-0001;;1111-0002", ";1111-0001", "1111-0001;", ";"])
    def test_read_rejects_an_empty_issn(self, tmp_path, cell):
        _write_full_ledger(tmp_path)
        path = tmp_path / "ledger.sources.tsv"
        lines = path.read_text("utf-8").split("\n")
        cells = lines[2].split("\t")
        cells[1] = cell
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines), "utf-8")
        message = re.escape(f"ledger.sources.tsv, line 3: issns {cell!r} holds an empty ISSN")
        with pytest.raises(ValueError, match=message):
            read_ledger(tmp_path)

    @pytest.mark.parametrize("part", [".cohort", ".meta"])
    def test_read_rejects_a_sidecar_of_another_ledger(self, tmp_path, part):
        _write_full_ledger(tmp_path / "mine")
        write_ledger(random_ledger(random.Random(6), dois=6), tmp_path / "theirs")
        name = f"ledger{part}.tsv"
        text = (tmp_path / "theirs" / name).read_text("utf-8")
        (tmp_path / "mine" / name).write_text(text, "utf-8")
        # The DOIs run rand000, rand001, ...: "mine" has the first four.
        line = next(number for number, row in enumerate(text.split("\n"), 1)
                    if row.startswith("10.5000/rand004\t"))
        message = f"{name}, line {line}: DOI '10.5000/rand004' has no row in ledger.tsv"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_ledger(tmp_path / "mine")

    def test_cut_main_row_does_not_load(self, tmp_path):
        ledger = Ledger()
        ledger.vectors["10.1/x"] = {I: Fraction(1, 2), M: Fraction(1, 2)}
        ledger.cohort_index["10.1/x"] = {("J", 2019)}
        write_ledger(ledger, tmp_path)
        (tmp_path / "ledger.tsv").write_text(
            "\t".join(["doi", *LEDGER_COLUMNS, "total"]) + "\n10.1/x\t1/2\t0/1\n", "utf-8"
        )
        with pytest.raises(ValueError, match=re.escape("ledger.tsv, line 2: 3 cells, not 8")):
            read_ledger(tmp_path)


def _twin_ledger():
    """Two DOIs with identical rows in every file."""
    ledger = Ledger()
    for doi in ("10.1/a", "10.1/b"):
        ledger.vectors[doi] = {I: Fraction(1, 2), M: Fraction(1, 4), D: Fraction(1, 4)}
        ledger.cohort_index[doi] = {("J", 2019), ("K", None)}
        ledger.cited_journals[doi] = Counter({"J": 2})
        ledger.cited_years[doi] = Counter({2012: 2})
    return ledger


def _same_key(mapping, key):
    return next(k for k in mapping if k == key)


class TestSharedValues:
    """read_ledger shares immutable values and never a mutable container."""

    def test_equal_values_load_as_one_object(self, tmp_path):
        write_ledger(_twin_ledger(), tmp_path)
        back = read_ledger(tmp_path)
        assert back == _twin_ledger()
        a, b = back.vectors["10.1/a"], back.vectors["10.1/b"]
        assert a[I] is b[I] and a[M] is b[M] and a[M] is a[D]
        assert a is not b
        pairs_a = sorted(back.cohort_index["10.1/a"], key=str)
        pairs_b = sorted(back.cohort_index["10.1/b"], key=str)
        assert all(x is y for x, y in zip(pairs_a, pairs_b))
        assert back.cohort_index["10.1/a"] is not back.cohort_index["10.1/b"]
        for counters in (back.cited_journals, back.cited_years):
            assert counters["10.1/a"] is not counters["10.1/b"]
            assert _same_key(counters["10.1/a"], next(iter(counters["10.1/b"]))) is next(
                iter(counters["10.1/b"])
            )
        # "J" is a citing journal in the cohort file and a cited one in the meta file.
        assert pairs_a[0] == ("J", 2019)
        assert _same_key(back.cited_journals["10.1/a"], "J") is pairs_a[0][0]
        for doi in ("10.1/a", "10.1/b"):
            key = _same_key(back.vectors, doi)
            for mapping in (back.cohort_index, back.cited_journals, back.cited_years):
                assert _same_key(mapping, doi) is key

    def test_update_of_one_doi_leaves_its_twin_unchanged(self, tmp_path):
        write_ledger(_twin_ledger(), tmp_path)
        back = read_ledger(tmp_path)
        delta = Ledger()
        delta.vectors["10.1/a"] = {I: Fraction(1, 2), R: Fraction(1, 2)}
        delta.cohort_index["10.1/a"] = {("L", 2020)}
        delta.cited_journals["10.1/a"] = Counter({"J": 1, "Other": 1})
        delta.cited_years["10.1/a"] = Counter({2012: 1, 2013: 1})
        back.update(delta)
        twin = _twin_ledger()
        assert back.vectors["10.1/a"] == {I: Fraction(1), M: Fraction(1, 4),
                                          D: Fraction(1, 4), R: Fraction(1, 2)}
        assert back.vectors["10.1/b"] == twin.vectors["10.1/b"]
        assert back.cohort_index["10.1/b"] == twin.cohort_index["10.1/b"]
        assert back.cited_journals["10.1/b"] == twin.cited_journals["10.1/b"]
        assert back.cited_years["10.1/b"] == twin.cited_years["10.1/b"]

    def test_update_copies_containers_it_takes_over(self):
        b = random_ledger(random.Random(13), dois=5, journals=2)
        b_before = copy.deepcopy(b)
        a = Ledger()
        a.update(b)
        assert a == b
        for doi in a.vectors:
            a.vectors[doi][R] = a.vectors[doi].get(R, Fraction(0)) + 1
            a.cohort_index[doi].add(("New", 2000))
            a.cited_journals[doi]["New"] += 1
            a.cited_years[doi][1999] += 1
        for journal in a.source_issns:
            a.source_sections.setdefault(journal, {})[R] = Fraction(7)
            a.source_issns[journal].add("0000-0000")
        a.update(b)
        assert b == b_before


# Text as the parser emits it: XML characters, whitespace runs collapsed to
# one space and trimmed.
_XML_CHARS = ("Cs", "Cc", "Cn")
_SPACES = ("Zs", "Zl", "Zp")


def _collapsed_text(min_size=0, exclude=""):
    chars = st.characters(blacklist_categories=_XML_CHARS, blacklist_characters=exclude)
    return (
        st.text(chars, max_size=12)
        .map(lambda text: " ".join(text.split()))
        .filter(lambda text: len(text) >= min_size)
    )


def _word(exclude=""):
    chars = st.characters(
        blacklist_categories=_XML_CHARS + _SPACES, blacklist_characters=exclude
    )
    return st.text(chars, min_size=1, max_size=10)


_dois = st.builds(lambda reg, suffix: f"10.{reg}/{suffix}".lower(), _word("/"), _word())
_titles = _collapsed_text()
_issns = _collapsed_text(min_size=1, exclude=";")
_weights = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4))
_sections = st.dictionaries(st.sampled_from(SECTION_ORDER), _weights, max_size=6)
_counts = st.integers(1, 50)
_years = st.integers(1800, 2100)


@st.composite
def ledgers(draw):
    """Ledgers in the shape read_ledger rebuilds: no zero weights or counts,
    and ISSN sets for exactly the journals that have a sources row."""
    ledger = Ledger()
    for doi in draw(st.lists(_dois, max_size=4, unique=True)):
        ledger.vectors[doi] = draw(_sections)
        ledger.cohort_index[doi] = draw(
            st.sets(st.tuples(_titles, st.none() | _years), max_size=3)
        )
        journals = draw(st.dictionaries(_titles, _counts, max_size=3))
        if journals:
            ledger.cited_journals[doi] = Counter(journals)
        years = draw(st.dictionaries(_years, _counts, max_size=3))
        if years:
            ledger.cited_years[doi] = Counter(years)
    for journal in draw(st.lists(_titles, max_size=3, unique=True)):
        sections = draw(_sections)
        other = draw(st.none() | _weights)
        if sections:
            ledger.source_sections[journal] = sections
        if other is not None or not sections:
            ledger.source_other[journal] = other or Fraction(1)
        ledger.source_issns[journal] = draw(st.sets(_issns, max_size=3))
    ledger.target_other = draw(st.dictionaries(_titles, _weights, max_size=3))
    return ledger


class TestLedgerProperties:
    @settings(max_examples=40, deadline=None)
    @given(ledgers())
    def test_merge_identity(self, ledger):
        assert merge(ledger, Ledger()) == ledger
        assert merge(Ledger(), ledger) == ledger

    @settings(max_examples=40, deadline=None)
    @given(ledgers(), ledgers(), ledgers())
    def test_merge_commutative_associative(self, a, b, c):
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    @settings(max_examples=40, deadline=None)
    @given(ledgers())
    def test_write_read_round_trip(self, ledger):
        with tempfile.TemporaryDirectory() as directory:
            write_ledger(ledger, directory)
            assert read_ledger(directory) == ledger

    @settings(max_examples=60, deadline=None)
    @given(ledgers(), st.data())
    def test_row_cut_at_a_tab_fails_naming_file_and_line(self, ledger, data):
        with tempfile.TemporaryDirectory() as directory:
            path = data.draw(st.sampled_from(write_ledger(ledger, directory)))
            lines = path.read_bytes().split(b"\n")
            index = data.draw(st.sampled_from([i for i, row in enumerate(lines) if row]))
            tabs = [i for i, byte in enumerate(lines[index]) if byte == ord("\t")]
            lines[index] = lines[index][: data.draw(st.sampled_from(tabs))]
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ValueError, match=re.escape(f"{path.name}, line {index + 1}: ")):
                read_ledger(directory)

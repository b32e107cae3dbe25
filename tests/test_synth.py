from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from seccite import (
    CorpusSpec,
    Ledger,
    generate_corpus,
    is_research_article,
    outer_section_labels,
    parse_article,
    write_ledger,
)


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.xml")):
        digest.update(file.name.encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def pipeline_ledger(corpus_dir: Path) -> Ledger:
    ledger = Ledger()
    for path in sorted(corpus_dir.glob("*.xml")):
        article = parse_article(path.read_bytes(), str(path))
        if is_research_article(article.record):
            ledger.add_article(article, outer_section_labels(article))
    return ledger


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = CorpusSpec(seed=42, article_count=25)
        first = generate_corpus(spec, tmp_path / "a")
        second = generate_corpus(spec, tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
        assert first.ledger == second.ledger
        assert first.stats == second.stats

    def test_different_seed_differs(self, tmp_path):
        generate_corpus(CorpusSpec(seed=1, article_count=10), tmp_path / "a")
        generate_corpus(CorpusSpec(seed=2, article_count=10), tmp_path / "b")
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


class TestGroundTruth:
    def test_zero_doi_coverage_gives_empty_ledger(self, tmp_path):
        truth = generate_corpus(
            CorpusSpec(seed=3, article_count=15, doi_coverage=0.0), tmp_path
        )
        assert truth.ledger == Ledger()
        assert truth.stats["references_with_doi"] == 0

    def test_every_file_parses(self, synth_corpus):
        corpus_dir, truth = synth_corpus
        for path in truth.files:
            article = parse_article(path.read_bytes(), str(path))
            assert article.record.journal_title

    def test_pipeline_equals_ground_truth(self, synth_corpus):
        corpus_dir, truth = synth_corpus
        assert pipeline_ledger(corpus_dir) == truth.ledger

    def test_weights_conserved_per_pair(self, synth_corpus):
        # A six-section pair adds 1 to its DOI's total, to its citing journal's
        # section weights and to its DOI's cited-journal count; an other-only
        # pair adds 1 to both "other" buckets.
        _, truth = synth_corpus
        ledger = truth.ledger
        total = sum((ledger.total(doi) for doi in ledger.dois()), start=0)
        assert total == sum(sum(c.values()) for c in ledger.cited_journals.values())
        assert total == sum((w for c in ledger.source_sections.values() for w in c.values()),
                            start=0)
        other_total = sum(ledger.source_other.values(), start=0)
        assert other_total == sum(ledger.target_other.values(), start=0)

    def test_stats_funnel_shape(self, synth_corpus):
        _, truth = synth_corpus
        stats = truth.stats
        assert stats["documents"] >= stats["research_articles"]
        assert stats["references"] >= stats["references_with_doi"] > 0

    def test_exercises_unrecognized_and_outside_paths(self, synth_corpus):
        _, truth = synth_corpus
        assert truth.ledger.source_other  # noise/abstract placements happened
        assert truth.ledger.target_other


EDGE_SPECS = [
    CorpusSpec(seed=101, article_count=25, range_citation_rate=0.9,
               noise_section_rate=0.6, subsection_rate=0.9,
               abstract_citation_rate=0.6, doi_coverage=0.3,
               review_article_rate=0.4, missing_year_rate=0.5),
    CorpusSpec(seed=202, article_count=25, range_citation_rate=0.0,
               noise_section_rate=0.0, subsection_rate=0.0,
               abstract_citation_rate=0.0, doi_coverage=1.0,
               review_article_rate=0.0),
    CorpusSpec(seed=303, article_count=25, refs_per_article=(4, 5),
               doi_coverage=0.5,
               structure_mix={"IN": 0.5, "NC": 0.25, "ILM[RD]C": 0.25}),
]


# A default-spec corpus must stay byte-identical, random draws included, when
# the generator gains an option; these digests pin two of them.
PINNED_SPECS = [
    (CorpusSpec(seed=7, article_count=40),
     "e5e43b7731ebb240db0e98964f7d1109444e7a058c33d169b8dc914a4233fbd3",
     "66794b74b6e7c5dd83622e16f9777a023f6c96975820a056e83c5f9c4515a022"),
    (CorpusSpec(seed=7, article_count=60, refs_per_article=(60, 120),
                structure_mix={"IBLMMMRRRDDDC": 1.0}),
     "f2f24df5a0c1258432f68125fb648b837d9f75dd6ca14b3bc009dc21d7c2ac3c",
     "c283fc84743ac04a362eb0b78ea56381f0b4d504d56d823ef5960b031f3ec43a"),
]


class TestPinnedCorpora:
    @pytest.mark.parametrize("spec, corpus_sha256, ledger_sha256", PINNED_SPECS,
                             ids=["default", "long-articles"])
    def test_corpus_and_ground_truth_digests(self, spec, corpus_sha256, ledger_sha256,
                                             tmp_path):
        truth = generate_corpus(spec, tmp_path / "corpus")
        write_ledger(truth.ledger, tmp_path / "ledger")
        digest = hashlib.sha256()
        for file in sorted((tmp_path / "ledger").glob("ledger*.tsv")):
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
        assert dir_digest(tmp_path / "corpus") == corpus_sha256
        assert digest.hexdigest() == ledger_sha256


class TestParameterCorners:
    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=lambda s: f"seed{s.seed}")
    def test_round_trip_at_corners(self, spec, tmp_path):
        truth = generate_corpus(spec, tmp_path)
        assert pipeline_ledger(tmp_path) == truth.ledger


class TestSpecValidation:
    def test_structure_mix_must_sum_to_one(self, tmp_path):
        spec = CorpusSpec(structure_mix={"IMRDC": 0.5})
        with pytest.raises(ValueError, match="sum to 1"):
            spec.validate()

    @pytest.mark.parametrize("mix", [
        {"IMRDC": float("nan")},
        {"IMRDC": 1.5, "IMRD": -0.5},
        {"IMRDC": float("inf"), "IMRD": float("-inf")},
    ], ids=["nan", "negative", "infinite"])
    def test_probabilities_must_be_in_unit_interval(self, mix):
        with pytest.raises(ValueError, match=r"probability of 'IMRDC' must be in \[0, 1\]"):
            CorpusSpec(structure_mix=mix).validate()

    @pytest.mark.parametrize("mix", [{"": 1.0}, {"IMRDC": 1.0, "": 0.0}],
                             ids=["only", "zero-weight"])
    def test_empty_pattern_rejected(self, mix):
        with pytest.raises(ValueError, match="structure pattern '' has no section token"):
            CorpusSpec(structure_mix=mix).validate()

    def test_unknown_token_rejected(self, tmp_path):
        spec = CorpusSpec(structure_mix={"IMQ": 1.0})
        with pytest.raises(ValueError, match="Q"):
            spec.validate()

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="doi_coverage"):
            CorpusSpec(doi_coverage=1.5).validate()

    def test_refs_range(self):
        with pytest.raises(ValueError, match="refs_per_article"):
            CorpusSpec(refs_per_article=(2, 10)).validate()

    @pytest.mark.parametrize("refs", [(3, 10), (10, 8)])
    def test_refs_range_names_both_ends(self, refs):
        with pytest.raises(ValueError, match=rf"4 <= min <= max, got \({refs[0]}, {refs[1]}\)"):
            CorpusSpec(refs_per_article=refs).validate()

    def test_refs_max_above_universe_rejected(self, tmp_path):
        spec = CorpusSpec(article_count=55, refs_per_article=(60, 120))
        with pytest.raises(ValueError, match="max 120 exceeds the 110 citable works "
                                             "of a 55-article corpus"):
            generate_corpus(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_refs_max_equal_to_universe_accepted(self, tmp_path):
        truth = generate_corpus(CorpusSpec(article_count=2, refs_per_article=(40, 40)), tmp_path)
        assert truth.stats["documents"] == 2

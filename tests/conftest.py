from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from seccite import CorpusSpec, Ledger, generate_corpus, write_classification
from seccite.sections import SECTION_ORDER

DEFAULT_REFS = """
<ref id="r1"><element-citation publication-type="journal">
  <source>Cited Journal One</source><year>2012</year>
  <pub-id pub-id-type="doi">10.2000/aaa</pub-id>
</element-citation></ref>
<ref id="r2"><element-citation publication-type="journal">
  <source>Cited Journal Two</source><year>2013</year>
  <pub-id pub-id-type="doi">10.2000/bbb</pub-id>
</element-citation></ref>
"""


def make_article(
    body: str = "",
    refs: str = DEFAULT_REFS,
    article_type: str = "research-article",
    journal: str = "Fixture Journal",
    issn: str = "1234-5678",
    doi: str | None = "10.1000/fixture",
    year: int | None = 2019,
    abstract: str = "<p>An abstract.</p>",
    meta: str | None = None,
) -> bytes:
    """Assemble a small JATS article around the given body markup."""
    if meta is None:
        parts = []
        if doi:
            parts.append(f'<article-id pub-id-type="doi">{doi}</article-id>')
        parts.append("<title-group><article-title>Fixture</article-title></title-group>")
        if year:
            parts.append(f"<pub-date><year>{year}</year></pub-date>")
        parts.append(f"<abstract>{abstract}</abstract>")
        meta = "<article-meta>" + "".join(parts) + "</article-meta>"
    xml = f"""<?xml version="1.0" encoding="UTF-8"?>
<article article-type="{article_type}">
<front>
<journal-meta>
<journal-title-group><journal-title>{journal}</journal-title></journal-title-group>
<issn pub-type="ppub">{issn}</issn>
</journal-meta>
{meta}
</front>
<body>
{body}
</body>
<back><ref-list>
{refs}
</ref-list></back>
</article>"""
    return xml.encode("utf-8")


def xref(rid: str, label: str | None = None) -> str:
    return f'<xref ref-type="bibr" rid="{rid}">[{label or rid[1:]}]</xref>'


def ref_entries(count: int, doi_for=lambda i: f"10.2000/ref{i}") -> str:
    """count numbered refs r1..rN; doi_for may return None to omit the DOI."""
    out = []
    for i in range(1, count + 1):
        doi = doi_for(i)
        pid = f'<pub-id pub-id-type="doi">{doi}</pub-id>' if doi else ""
        out.append(
            f'<ref id="r{i}"><element-citation publication-type="journal">'
            f"<source>Cited Journal {i}</source><year>201{i % 10}</year>{pid}"
            "</element-citation></ref>"
        )
    return "\n".join(out)


def random_ledger(rng: random.Random, dois: int = 12, journals: int = 3) -> Ledger:
    """A ledger filled with random but structurally consistent weights."""
    ledger = Ledger()
    journal_names = [f"Journal {chr(65 + j)}" for j in range(journals)]
    for i in range(dois):
        doi = f"10.5000/rand{i:03d}"
        counts = {}
        for section in SECTION_ORDER:
            if rng.random() < 0.6:
                counts[section] = Fraction(rng.randint(1, 40), rng.randint(1, 6))
        if not counts:
            counts[SECTION_ORDER[rng.randrange(6)]] = Fraction(1)
        ledger.vectors[doi] = counts
        journal = rng.choice(journal_names)
        ledger.cohort_index[doi] = {(journal, rng.randint(2015, 2020))}
        ledger.cited_journals.setdefault(doi, Counter())[rng.choice(journal_names)] += (
            rng.randint(1, 3)
        )
        ledger.cited_years.setdefault(doi, Counter())[rng.choice((2011, 2012, 2013))] += (
            rng.randint(1, 3)
        )
    for journal in journal_names:
        ledger.source_sections[journal] = {
            section: Fraction(rng.randint(0, 30), rng.randint(1, 4))
            for section in SECTION_ORDER
            if rng.random() < 0.7
        }
        if rng.random() < 0.7:
            ledger.source_other[journal] = Fraction(rng.randint(1, 10))
        ledger.source_issns[journal] = {f"{rng.randint(1000, 9999)}-000{rng.randint(0, 9)}"}
    if rng.random() < 0.8:
        ledger.target_other["Cited Journal One"] = Fraction(rng.randint(1, 8))
    return ledger


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory) -> tuple[Path, object]:
    """A 60-article synthetic corpus shared by the non-acceptance tests."""
    out = tmp_path_factory.mktemp("synth_corpus")
    truth = generate_corpus(CorpusSpec(seed=11, article_count=60), out)
    return out, truth


@pytest.fixture(scope="session")
def classification_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("classification") / "fields.tsv"
    return write_classification(path)


def fail_second_rename(monkeypatch) -> None:
    """Make the second Path.replace from here on raise OSError."""
    replace = Path.replace
    calls = []

    def failing(self, target):
        calls.append(self)
        if len(calls) == 2:
            raise OSError(f"cannot rename {self.name}")
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", failing)

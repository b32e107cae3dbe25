"""seccite: count citations separately by the section of the citing article.

The top level exports the library's entry points; every other name is
imported from its submodule (`seccite.jats`, `seccite.ledger`, ...).
"""

__version__ = "0.1.0"

from .fields import load_classification
from .jats import is_research_article, parse_article
from .ledger import (
    Ledger,
    fractionalize,
    merge,
    modal_cited_journal,
    outer_section_labels,
    read_ledger,
    resolve_cited_year,
    write_ledger,
)
from .metrics import (
    anchored_subset_geomeans,
    correlation_tables,
    geometric_mean_ci,
    share_by_field,
    share_row,
    spearman,
    top_share_articles,
)
from .sections import CanonicalSection
from .synth import CorpusSpec, generate_corpus, write_classification

__all__ = [
    "__version__",
    "CanonicalSection",
    "CorpusSpec",
    "Ledger",
    "anchored_subset_geomeans",
    "correlation_tables",
    "fractionalize",
    "generate_corpus",
    "geometric_mean_ci",
    "is_research_article",
    "load_classification",
    "merge",
    "modal_cited_journal",
    "outer_section_labels",
    "parse_article",
    "read_ledger",
    "resolve_cited_year",
    "share_by_field",
    "share_row",
    "spearman",
    "top_share_articles",
    "write_classification",
    "write_ledger",
]

"""seccite: count citations separately by the section of the citing article.

The top level exports the library's entry points; every other name is
imported from its submodule (`seccite.jats`, `seccite.ledger`, ...). Each
top-level name is imported from its submodule on first use, so importing
`seccite` (or `seccite.cli`) loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "load_classification": "fields",
    "is_research_article": "jats",
    "parse_article": "jats",
    "Ledger": "ledger",
    "fractionalize": "ledger",
    "merge": "ledger",
    "modal_cited_journal": "ledger",
    "outer_section_labels": "ledger",
    "read_ledger": "ledger",
    "resolve_cited_year": "ledger",
    "write_ledger": "ledger",
    "anchored_subset_geomeans": "metrics",
    "correlation_tables": "metrics",
    "geometric_mean_ci": "metrics",
    "share_by_field": "metrics",
    "share_row": "metrics",
    "spearman": "metrics",
    "top_share_articles": "metrics",
    "CanonicalSection": "sections",
    "CorpusSpec": "synth",
    "generate_corpus": "synth",
    "write_classification": "synth",
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    """Import a public name from its submodule on first use and keep it."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})

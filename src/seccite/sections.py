"""Canonical six-section vocabulary and normalization of raw section names.

Section names arrive either as a ``sec-type`` attribute value or as a section
title. Both are cleaned the same way (numbering stripped, lowercased,
whitespace collapsed) and then looked up in one exact-match table. Anything
that misses the table is Unrecognized; there is no fuzzy matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping


class CanonicalSection(Enum):
    """The six standard sections, in fixed report-column order."""

    INTRODUCTION = "Introduction"
    BACKGROUND = "Background"
    METHODS = "Methods"
    RESULTS = "Results"
    DISCUSSION = "Discussion"
    CONCLUSION = "Conclusion"

    # Members are singletons compared by identity, and Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    @property
    def column(self) -> str:
        """Short machine-readable column name used in all TSV outputs."""
        return _COLUMN_NAMES[self]


SECTION_ORDER: tuple[CanonicalSection, ...] = tuple(CanonicalSection)

_COLUMN_NAMES = {
    CanonicalSection.INTRODUCTION: "intro",
    CanonicalSection.BACKGROUND: "background",
    CanonicalSection.METHODS: "methods",
    CanonicalSection.RESULTS: "results",
    CanonicalSection.DISCUSSION: "discussion",
    CanonicalSection.CONCLUSION: "conclusion",
}

# Every recognized name, lowercased, in one table. The "materials|methods"
# entry is a sec-type attribute value; its spelled-out title form
# "materials and methods" is listed alongside it.
DEFAULT_NAME_TABLE: dict[str, CanonicalSection] = {}


def _register(section: CanonicalSection, names: str) -> None:
    for name in names.split(";"):
        DEFAULT_NAME_TABLE[name.strip()] = section


_register(CanonicalSection.INTRODUCTION, "intro; introduction")
_register(CanonicalSection.BACKGROUND, "background; literature review; related literature")
_register(
    CanonicalSection.METHODS,
    "materials|methods; materials and methods; methods; materialsandmethods; materials;"
    " statistical analysis; data analysis; statistical analyses; statistics; study design;"
    " study population; data collection; procedure; statistical methods; measures;"
    " patients and methods; data; experimental design; research design and methods;"
    " data extraction; sample collection; experimental procedures; methods/design",
)
_register(CanonicalSection.RESULTS, "results")
_register(
    CanonicalSection.DISCUSSION,
    "discussion; results and discussion; limitations; strengths and limitations;"
    " study limitations",
)
_register(
    CanonicalSection.CONCLUSION,
    "conclusion; conclusions; summary; concluding remarks; summary and conclusions;"
    " summary and conclusion; conclusions and outlook; conclusions and perspectives;"
    " conclusions and recommendations; conclusion and perspectives; conclusion and outlook;"
    " conclusions and future work; conclusion and future work",
)


@dataclass(frozen=True)
class SectionLabel:
    """Outcome of normalizing a raw section name.

    ``section`` is None for unrecognized names; ``raw`` then keeps the cleaned
    input for diagnostics.
    """

    section: CanonicalSection | None
    raw: str = ""

    @property
    def is_recognized(self) -> bool:
        return self.section is not None


_LEADING_NUMBERING = re.compile(r"^[\d.)\s]+")
_TRAILING_PUNCT = re.compile(r"[.:]+$")
_WS = re.compile(r"\s+")


def strip_title_numbering(raw: str) -> str:
    """Clean a section name: drop leading numbering, lowercase, collapse whitespace.

    Leading runs of digits, dots, closing parentheses and whitespace
    (``"2.1 "``, ``"3) "``) are removed, the remainder is lowercased with
    internal whitespace collapsed, and trailing "." / ":" runs are trimmed.
    """
    text = _LEADING_NUMBERING.sub("", raw)
    text = _WS.sub(" ", text).strip().lower()
    text = _TRAILING_PUNCT.sub("", text)
    return text.strip()


def normalize_section(
    sec_type_attr: str | None,
    title_raw: str | None,
    table: Mapping[str, CanonicalSection] | None = None,
) -> SectionLabel:
    """Map a section's sec-type attribute and/or title to a SectionLabel.

    The attribute is tried first and wins when both match; matching is exact
    on the cleaned form. Total: never raises.
    """
    names = DEFAULT_NAME_TABLE if table is None else table
    cleaned_attr = strip_title_numbering(sec_type_attr) if sec_type_attr else ""
    cleaned_title = strip_title_numbering(title_raw) if title_raw else ""
    if cleaned_attr and cleaned_attr in names:
        return SectionLabel(names[cleaned_attr])
    if cleaned_title and cleaned_title in names:
        return SectionLabel(names[cleaned_title])
    return SectionLabel(None, cleaned_title or cleaned_attr)


def load_name_table(override_path: str | Path | None = None) -> dict[str, CanonicalSection]:
    """Return the shipped name table, optionally extended from an override file.

    The override file holds one mapping per line, ``raw-name<TAB>SectionName``,
    UTF-8. Section names match CanonicalSection values case-insensitively.
    Blank lines and lines starting with "#" are skipped. Override entries are
    cleaned like titles and may replace shipped entries.
    """
    table = dict(DEFAULT_NAME_TABLE)
    if override_path is None:
        return table
    by_name = {s.value.lower(): s for s in CanonicalSection}
    for lineno, line in enumerate(Path(override_path).read_text("utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"{override_path}:{lineno}: expected 'raw-name<TAB>Section'")
        raw, _, section_name = line.partition("\t")
        key = strip_title_numbering(raw)
        section = by_name.get(section_name.strip().lower())
        if section is None:
            raise ValueError(f"{override_path}:{lineno}: unknown section {section_name.strip()!r}")
        if not key:
            raise ValueError(f"{override_path}:{lineno}: empty section name")
        table[key] = section
    return table

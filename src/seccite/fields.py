"""Journal-to-field classification over the 22 broad research categories.

The classification file is user-supplied (delimiter-separated, UTF-8, header
row with journal title / issn / essn / field columns). Lookups try ISSN
first, then normalized journal title. Journals that match nothing are
excluded from every per-field analysis.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

FIELD_NAMES: tuple[str, ...] = (
    "Agriculture, Fisheries & Forestry",
    "Biology",
    "Biomedical Research",
    "Built Environment & Design",
    "Chemistry",
    "Clinical Medicine",
    "Communication & Textual Studies",
    "Earth & Environmental Sciences",
    "Economics & Business",
    "Enabling & Strategic Technologies",
    "Engineering",
    "General Arts, Humanities & Social Sciences",
    "General Science & Technology",
    "Historical Studies",
    "Information & Communication Technologies",
    "Mathematics & Statistics",
    "Philosophy & Theology",
    "Physics & Astronomy",
    "Psychology & Cognitive Sciences",
    "Public Health & Health Services",
    "Social Sciences",
    "Visual & Performing Arts",
)


class FieldMapError(ValueError):
    """Classification file could not be loaded."""


_WS = re.compile(r"\s+")


def normalize_journal_title(raw: str) -> str:
    """Lowercase, collapse whitespace, drop a leading "the "."""
    title = _WS.sub(" ", raw).strip().lower()
    if title.startswith("the "):
        title = title[4:]
    return title


_ISSN_CHARS = re.compile(r"[^0-9X]")


def normalize_issn(raw: str) -> str:
    """Canonical ISSN form NNNN-NNNC; other shapes are kept cleaned as-is."""
    cleaned = _ISSN_CHARS.sub("", raw.upper())
    if len(cleaned) == 8:
        return f"{cleaned[:4]}-{cleaned[4:]}"
    return cleaned


@dataclass(frozen=True)
class FieldMap:
    by_title: Mapping[str, str]
    by_issn: Mapping[str, str]


def _sniff_delimiter(header: str) -> str:
    return "\t" if "\t" in header else ","


def _column_indexes(header: Sequence[str]) -> tuple[int, int | None, int | None, int]:
    """Locate (title, issn, essn, field) columns by name, else positionally."""
    lowered = [cell.strip().lower() for cell in header]
    title = issn = essn = fld = None
    for i, name in enumerate(lowered):
        if title is None and ("journal" in name or "title" in name):
            title = i
        elif issn is None and name == "issn":
            issn = i
        elif essn is None and name in ("essn", "eissn", "e-issn"):
            essn = i
        elif fld is None and ("field" in name or "categor" in name or "class" in name):
            fld = i
    if title is None or fld is None:
        if len(header) < 4:
            raise FieldMapError(
                "classification header must name journal title and field columns "
                "(or provide at least 4 columns: title, issn, essn, field)"
            )
        return 0, 1, 2, 3
    return title, issn, essn, fld


def _load_rows(path: Path) -> Iterable[tuple[str, list[str], str]]:
    """Yield (normalized title, normalized issns, field label) per data row."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first:
            return
        delimiter = _sniff_delimiter(first)
        header = next(csv.reader([first], delimiter=delimiter))
        title_col, issn_col, essn_col, field_col = _column_indexes(header)
        for row in csv.reader(handle, delimiter=delimiter):
            if not row or not any(cell.strip() for cell in row):
                continue
            title = normalize_journal_title(row[title_col]) if title_col < len(row) else ""
            field_label = row[field_col].strip() if field_col < len(row) else ""
            issns = []
            for col in (issn_col, essn_col):
                if col is not None and col < len(row) and row[col].strip():
                    issns.append(normalize_issn(row[col]))
            yield title, issns, field_label


def _merge_entry(mapping: dict[str, str], key: str, value: str, path: Path) -> None:
    existing = mapping.get(key)
    if existing is not None and existing != value:
        raise FieldMapError(
            f"{path}: key {key!r} maps to both {existing!r} and {value!r}"
        )
    mapping[key] = value


def load_classification(
    path: str | Path, extension_path: str | Path | None = None
) -> FieldMap:
    """Load a journal classification, optionally merged with an extension file.

    Duplicate keys with identical fields collapse silently; conflicting
    fields or an unknown field label raise FieldMapError.
    """
    by_title: dict[str, str] = {}
    by_issn: dict[str, str] = {}
    allowed = set(FIELD_NAMES)
    sources = [Path(path)]
    if extension_path is not None:
        sources.append(Path(extension_path))
    for source in sources:
        for title, issns, field_label in _load_rows(source):
            if field_label not in allowed:
                raise FieldMapError(
                    f"{source}: unknown field label {field_label!r}"
                )
            if title:
                _merge_entry(by_title, title, field_label, source)
            for issn in issns:
                _merge_entry(by_issn, issn, field_label, source)
    return FieldMap(by_title=by_title, by_issn=by_issn)


def field_of(
    field_map: FieldMap, journal_title: str, issns: Sequence[str] = ()
) -> str | None:
    """Field of a journal: ISSN match first, then exact normalized title."""
    for issn in issns:
        match = field_map.by_issn.get(normalize_issn(issn))
        if match is not None:
            return match
    return field_map.by_title.get(normalize_journal_title(journal_title))

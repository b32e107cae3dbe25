"""Correctness gate: every benchmark run checks the program's outputs.

Each check returns a list of problems; an empty list means the output passed.
The checks know the output formats only as files and JSON, never through
the program's own reader, so a defect in the reader cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

LEDGER_FILES = (
    "ledger.tsv",
    "ledger.cohort.tsv",
    "ledger.meta.tsv",
    "ledger.sources.tsv",
    "ledger.targets.tsv",
)

SHARE_TOLERANCE = 1e-12


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> dict:
    """Content digest of a directory: sha256 over sorted (path, size, sha256)."""
    digest = hashlib.sha256()
    files = 0
    size = 0
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        rel = path.relative_to(root).as_posix()
        length = path.stat().st_size
        digest.update(f"{rel}\t{length}\t{sha256_file(path)}\n".encode("utf-8"))
        files += 1
        size += length
    return {"files": files, "bytes": size, "sha256": digest.hexdigest()}


def check_ledger(output_dir: Path, truth_dir: Path) -> list[str]:
    """The ingested ledger must equal the synthetic ground truth byte for byte."""
    problems = []
    for name in LEDGER_FILES:
        produced = output_dir / name
        expected = truth_dir / name
        if not produced.is_file() or not expected.is_file():
            problems.append(f"{produced if not produced.is_file() else expected}: missing")
        elif produced.read_bytes() != expected.read_bytes():
            problems.append(f"{produced}: differs from {expected}")
    return problems


def check_ingest_log(output_dir: Path) -> list[str]:
    """No file of a synthetic corpus may be logged MALFORMED."""
    log = output_dir / "ingest_log.txt"
    if not log.is_file():
        return [f"{log}: missing"]
    return [
        f"{log}: {line}"
        for line in log.read_text("utf-8").splitlines()
        if line.startswith("MALFORMED")
    ]


def check_stats(output_dir: Path) -> list[str]:
    """Invariants of a stats bundle that hold for any ledger."""
    bundle_path = output_dir / "report.json"
    try:
        bundle = json.loads(bundle_path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{bundle_path}: unreadable ({exc})"]
    problems = []
    for perspective, table in sorted(bundle["share"].items()):
        for field, row in sorted(table["rows"].items()):
            total = sum(row["shares"])
            if abs(total - 1.0) > SHARE_TOLERANCE:
                problems.append(f"share {perspective} {field}: row sums to {total!r}")
    correlations = bundle["correlations"]
    matrices = [(f"field {m['field']}", m["values"]) for m in correlations["per_field"]]
    matrices.append(("median", correlations["median"]))
    for name, matrix in matrices:
        for i, row in enumerate(matrix):
            if row[i] is None or abs(row[i] - 1.0) > SHARE_TOLERANCE:
                problems.append(f"correlation {name}: diagonal [{i}] is {row[i]!r}")
    if not correlations["per_field"]:
        problems.append("correlations: no per-field matrix")
    if not bundle["top_share"]:
        problems.append("top_share: empty")
    return problems


def output_digests(output_dir: Path) -> dict[str, str]:
    """sha256 of every file a stats run wrote, so two commits can be diffed."""
    return {
        path.name: sha256_file(path)
        for path in sorted(output_dir.iterdir())
        if path.is_file()
    }

"""In-process traced run: spans around calls into each seccite module.

The benchmark replaces the module-level names that `seccite.cli` and
`seccite.metrics` call with wrappers that record a span (name, start, end,
parent) per call, then runs the real CLI commands in-process through
`seccite.cli.main`. Nothing inside `src/` changes. A span's name is
`<layer>.<function>`, where the layer is the seccite module the function
belongs to; `bench.*` spans are the benchmark's own work and count in no
layer.

Per-DOI helpers (`modal_cited_journal`) are counted, not spanned: one span
per call would cost more than the call itself, so their time shows as the
caller's self time.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import time
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

LAYERS = ("cli", "jats", "sections", "ledger", "fields", "metrics", "synth")


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def roots(self) -> list[int]:
        """Index of each span's top-level ancestor (parents precede children)."""
        roots: list[int] = []
        for index, (_, _, _, parent) in enumerate(self.spans):
            roots.append(index if parent < 0 else roots[parent])
        return roots

    def seconds(self, name: str, root: str | None = None) -> tuple[float, int]:
        """Total duration and call count of spans called `name` under `root`."""
        roots = self.roots()
        total = 0
        calls = 0
        for index, (span_name, start, end, _) in enumerate(self.spans):
            if span_name == name and (root is None or self.spans[roots[index]][0] == root):
                total += end - start
                calls += 1
        return total / 1e9, calls

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += end - start - child[index]
        return {layer: totals[layer] / 1e9 for layer in totals}

    def write(self, path: Path) -> None:
        records = [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": records, "counts": dict(self.counts)}) + "\n")


def span_cost_seconds(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call."""

    def noop():
        return None

    wrapped = Tracer().wrap("bench.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def _entries(delta) -> int:
    """Keyed values a Ledger.update folds: one per (key, inner key) pair."""
    nested = (delta.vectors, delta.cohort_index, delta.cited_journals,
              delta.cited_years, delta.source_sections, delta.source_issns)
    flat = (delta.source_other, delta.target_other)
    return sum(len(v) for m in nested for v in m.values()) + sum(len(m) for m in flat)


@contextlib.contextmanager
def instrumented(tracer: Tracer, captured: dict):
    """Swap traced wrappers into seccite for the duration of the block."""
    import seccite.cli as cli
    import seccite.metrics as metrics
    from seccite.ledger import Ledger

    def parse_article(data, source="<bytes>"):
        parsed = traced_parse(data, source)
        tracer.counts["jats.references"] += len(parsed.references)
        tracer.counts["jats.markers"] += len(parsed.citations)
        return parsed

    def update(self, other):
        with tracer.span("bench.pickle_delta"):
            tracer.counts["ledger.delta_bytes"] += len(pickle.dumps(other))
            tracer.counts["ledger.merge_entries"] += _entries(other)
        return traced_update(self, other)

    def read_ledger(*args, **kwargs):
        ledger = traced_read(*args, **kwargs)
        captured["ledger"] = ledger
        return ledger

    def modal_cited_journal(ledger, doi):
        tracer.counts["ledger.modal_journal_calls"] += 1
        return original_modal(ledger, doi)

    traced_parse = tracer.wrap("jats.parse_article", cli.parse_article)
    traced_update = tracer.wrap("ledger.update", Ledger.update)
    traced_read = tracer.wrap("ledger.read_ledger", cli.read_ledger)
    original_modal = metrics.modal_cited_journal
    replacements = [
        (cli, "parse_article", parse_article),
        (cli, "read_ledger", read_ledger),
        (metrics, "modal_cited_journal", modal_cited_journal),
        (Ledger, "update", update),
        (Ledger, "add_article", tracer.wrap("ledger.add_article", Ledger.add_article)),
    ]
    for owner, name, layer in (
        (cli, "outer_section_labels", "sections"),
        (cli, "load_name_table", "sections"),
        (cli, "write_ledger", "ledger"),
        (cli, "load_classification", "fields"),
        (cli, "share_by_field", "metrics"),
        (cli, "anchored_subset_geomeans", "metrics"),
        (cli, "correlation_tables", "metrics"),
        (cli, "top_share_articles", "metrics"),
        (cli, "generate_corpus", "synth"),
    ):
        replacements.append((owner, name, tracer.wrap(f"{layer}.{name}", getattr(owner, name))))
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    for owner, name, replacement in replacements:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def run_cli_traced(tracer: Tracer, command: str, argv: list[str], log: Path) -> tuple[int, str]:
    """Run one CLI command in-process under a `cli.<command>` span."""
    import seccite.cli as cli

    out = io.StringIO()
    with log.open("w", encoding="utf-8") as err, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out), tracer.span(f"cli.{command}"):
        code = cli.main([command, *argv])
    return code, out.getvalue()


def xml_floor_seconds(corpus_dir: Path) -> tuple[float, int]:
    """stdlib ET.fromstring alone over every file's bytes: a floor, not a layer."""
    blobs = [path.read_bytes() for path in sorted(corpus_dir.rglob("*.xml"))]
    start = time.perf_counter()
    for blob in blobs:
        ET.fromstring(blob)
    return time.perf_counter() - start, len(blobs)


def layer_metrics(tracer: Tracer, floor: tuple[float, int], ledger, stats_ledger_dir: Path,
                  min_total: Fraction) -> dict[str, float]:
    """Per-layer figures from the spans and counts of one traced run."""
    parse_s, parsed = tracer.seconds("jats.parse_article", "cli.ingest")
    label_s, labelled = tracer.seconds("sections.outer_section_labels", "cli.ingest")
    add_s, added = tracer.seconds("ledger.add_article", "cli.ingest")
    merge_s, merges = tracer.seconds("ledger.update", "cli.ingest")
    counts = tracer.counts
    figures = {
        "jats.parse_ms_per_article": 1e3 * parse_s / parsed,
        "jats.xml_floor_ms_per_article": 1e3 * floor[0] / floor[1],
        "jats.references_per_article": counts["jats.references"] / parsed,
        "jats.markers_per_article": counts["jats.markers"] / parsed,
        "sections.label_us_per_article": 1e6 * label_s / labelled,
        "ledger.add_article_us_per_article": 1e6 * add_s / added,
        "ledger.merge_s": merge_s,
        "ledger.merge_entries": counts["ledger.merge_entries"],
        "ledger.delta_bytes_per_article": counts["ledger.delta_bytes"] / merges,
        "ledger.write_s": tracer.seconds("ledger.write_ledger", "cli.ingest")[0],
        "ledger.read_s": tracer.seconds("ledger.read_ledger", "cli.stats")[0],
        "ledger.bytes": sum(p.stat().st_size for p in stats_ledger_dir.glob("ledger*.tsv")),
        "ledger.modal_journal_calls": counts["ledger.modal_journal_calls"],
        "metrics.share_s": tracer.seconds("metrics.share_by_field", "cli.stats")[0],
        "metrics.anchored_s": tracer.seconds("metrics.anchored_subset_geomeans", "cli.stats")[0],
        "metrics.correlation_s": tracer.seconds("metrics.correlation_tables", "cli.stats")[0],
        "metrics.top_share_s": tracer.seconds("metrics.top_share_articles", "cli.stats")[0],
        "metrics.top_share_qualifiers": sum(
            1 for doi in ledger.vectors if ledger.total(doi) >= min_total
        ),
    }
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return figures


def traced_total(tracer: Tracer, command: str) -> float:
    """A command's traced duration less the benchmark's own spans inside it."""
    total, _ = tracer.seconds(f"cli.{command}")
    bench, _ = tracer.seconds("bench.pickle_delta", f"cli.{command}")
    return total - bench

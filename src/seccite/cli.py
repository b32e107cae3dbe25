"""Command-line entry point: ingest, stats, synth, report.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Progress and
diagnostics go to stderr; data goes to files (or stdout for `report`).
Machine-readable outputs are byte-identical across re-runs with the same
inputs and config.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import stat
import sys
from collections import Counter
from pathlib import Path

from . import _HOMES as _PUBLIC_HOMES, __version__

WORKERS_ENV = "SECCITE_WORKERS"


# Library names -> the submodule that defines each: the package's public names
# and the others the commands call. A name becomes a global of this module only
# when a command that runs its submodule starts or it is read from outside, so
# a command imports only what it runs and callers can replace `cli.<name>`.
_HOMES = {
    **_PUBLIC_HOMES,
    "JatsError": "jats",
    "ledger_files": "ledger",
    "tsv_lines": "ledger",
    "write_files": "ledger",
    "CORRELATION_AXES": "metrics",
    "MIN_YEAR": "metrics",
    "SHARE_COLUMNS": "metrics",
    "cited_dois": "metrics",
    "load_name_table": "sections",
    "MIN_REFS": "synth",
}

# The submodules whose names each command calls.
_MODULES = {
    "ingest": ("jats", "ledger", "sections"),
    "stats": ("fields", "ledger", "metrics", "sections"),
    "synth": ("ledger", "synth"),
    "report": (),
}


def _bind(command: str) -> None:
    """Bind every library name from the command's submodules into this
    module's globals, leaving alone a name that is already bound (or
    replaced by a caller)."""
    namespace = globals()
    for name, home in _HOMES.items():
        if home in _MODULES[command] and name not in namespace:
            module = importlib.import_module(f"{__package__}.{home}")
            namespace[name] = getattr(module, name)


def __getattr__(name: str):
    """Bind a library name the first time it is read from outside."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_HOMES[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _year(text: str) -> int:
    year = int(text)
    if year < MIN_YEAR:
        raise ValueError(f"must be >= {MIN_YEAR}")
    return year


def _min_total(text: str):
    from fractions import Fraction

    value = Fraction(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seccite",
        description="Count citations to articles separately by citing section.",
    )
    parser.add_argument("--version", action="version", version=f"seccite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="Parse a JATS XML corpus into a ledger")
    ingest.add_argument("--corpus-dir", type=Path, default=None)
    ingest.add_argument("--output-dir", type=Path, default=None)
    ingest.add_argument("--workers", type=_positive_int, default=None)
    ingest.add_argument("--section-overrides", type=Path, default=None,
                        help="extra raw-name<TAB>Section mappings")
    ingest.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file (flags win)")

    stats = sub.add_parser("stats", help="Compute all report tables from a ledger")
    stats.add_argument("--ledger-dir", type=Path, default=None)
    stats.add_argument("--classification", type=Path, default=None)
    stats.add_argument("--extension", type=Path, default=None)
    stats.add_argument("--year", type=int, default=None, help="cited-year filter (default 2012)")
    stats.add_argument("--min-total", type=str, default=None,
                       help="citation threshold for top-share lists (default 100)")
    stats.add_argument("--output-dir", type=Path, default=None)
    stats.add_argument("--config", type=Path, default=None)

    synth = sub.add_parser("synth", help="Generate a synthetic corpus + ground truth")
    synth.add_argument("--out-dir", type=Path, required=True)
    # A flag left out keeps CorpusSpec's default.
    synth.add_argument("--articles", type=_positive_int)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--doi-coverage", type=_rate)
    synth.add_argument("--range-rate", type=_rate)
    synth.add_argument("--refs-min", type=_positive_int)
    synth.add_argument("--refs-max", type=_positive_int)
    synth.add_argument("--structure-mix", type=str, help='e.g. "IMRDC=0.5,ILM[RD]C=0.5"')

    report = sub.add_parser("report", help="Render a report.json bundle for humans")
    report.add_argument("--input", type=Path, required=True, help="path to report.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "stats": cmd_stats,
        "synth": cmd_synth,
        "report": cmd_report,
    }
    _bind(args.command)
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"seccite: error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Config resolution: flags > config file > defaults
# ---------------------------------------------------------------------------


def _load_config(path: Path | None) -> dict[str, str]:
    if path is None:
        return {}
    if not path.exists():
        raise ValueError(f"config file not found (--config): {path}")
    values = {}
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str,
             default, convert=str):
    """The flag's value, else the config file's, else `default`, through
    `convert`; a value it rejects fails naming the flag or the file and key."""
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return _convert(flag_value, convert, f"--{key.replace('_', '-')} ")
    if key not in config:
        return default
    return _convert(config[key], convert, f"{args.config}: {key}=")


def _convert(value, convert, source: str):
    """convert(value), or ValueError "<source><value>: <reason>" if it fails."""
    try:
        return convert(value)
    except ZeroDivisionError:
        reason = "zero denominator"
    except (ValueError, argparse.ArgumentTypeError) as exc:
        reason = str(exc)
    raise ValueError(f"{source}{value}: {reason}")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


# Files per worker task. A task folds its files into one Ledger, so the
# parent unpickles and merges one Ledger per chunk rather than one per file.
_CHUNK_FILES = 32

# The largest corpus file ingest reads (256 MiB), far above any article. A
# larger file is logged MALFORMED without being read.
MAX_FILE_BYTES = 1 << 28


def _ingest_chunk(paths: list[str], names: dict):
    """Worker: fold a run of files into one Ledger and one funnel Counter.

    Returns (ledger, funnel, malformed, issues), where malformed holds a
    (path, reason) pair per failed file and issues a (path, issue) pair per
    issue of a counted file, both in file order. An exception raised for one
    file adds only its MALFORMED pair: a file is counted once it has parsed
    and been tallied, and add_article writes the Ledger only in its last,
    infallible step. An unexpected one (not a JatsError) also prints its
    traceback to stderr. `names` is the run's one section-name table.
    """
    _bind("ingest")  # a spawned or forkserver worker never ran main()
    ledger = Ledger()
    funnel = Counter()
    malformed = []
    issues = []
    for path_text in paths:
        try:  # opening a FIFO must not block, and a file too large is not read
            with open(path_text, "rb", opener=lambda p, f: os.open(p, f | os.O_NONBLOCK)) as file:
                info = os.fstat(file.fileno())
                if not stat.S_ISREG(info.st_mode):
                    raise OSError("not a regular file")
                data = file.read(info.st_size + 1) if info.st_size <= MAX_FILE_BYTES else b""
                if len(data) > info.st_size:  # it grew after the fstat
                    data += file.read(MAX_FILE_BYTES + 1 - len(data))
            if max(info.st_size, len(data)) > MAX_FILE_BYTES:
                raise OSError(f"larger than {MAX_FILE_BYTES} bytes")
        except OSError as exc:
            malformed.append((path_text, f"{path_text}: cannot read file: {exc.strerror or exc}"))
            continue
        try:
            parsed = parse_article(data, source=path_text)
            research = is_research_article(parsed.record)
            if research:
                ledger.add_article(parsed, outer_section_labels(parsed, names))
        except JatsError as exc:
            malformed.append((path_text, str(exc)))
        except Exception as exc:
            import traceback

            print(f"seccite: {path_text}: unexpected error\n{traceback.format_exc()}",
                  file=sys.stderr)
            malformed.append((path_text, f"{type(exc).__name__}: {exc}"))
        else:
            funnel["documents"] += 1
            if research:
                funnel["research_articles"] += 1
                funnel["references"] += len(parsed.references)
                funnel["references_with_doi"] += sum(
                    1 for ref in parsed.references if ref.cited_doi is not None
                )
            issues.extend((path_text, issue) for issue in parsed.issues)
    return ledger, funnel, malformed, issues


def cmd_ingest(args: argparse.Namespace) -> int:
    import contextlib

    config = _load_config(args.config)
    corpus_dir = _resolve(args, config, "corpus_dir", None, Path)
    output_dir = _resolve(args, config, "output_dir", None, Path)
    workers = _resolve(args, config, "workers", None, _positive_int)
    if workers is None:
        workers = _convert(os.environ.get(WORKERS_ENV) or "1", _positive_int, f"{WORKERS_ENV}=")
    overrides = _resolve(args, config, "section_overrides", None, Path)
    if corpus_dir is None or output_dir is None:
        raise ValueError("ingest requires --corpus-dir and --output-dir")
    if not corpus_dir.is_dir():
        raise ValueError(f"corpus directory not found (--corpus-dir): {corpus_dir}")

    files = sorted(str(p) for p in corpus_dir.rglob("*.xml"))
    if not files:
        raise ValueError(f"no .xml files under {corpus_dir}")

    if overrides is not None and not overrides.exists():
        raise ValueError(f"section override file not found: {overrides}")
    names = load_name_table(overrides)  # every chunk gets this table, read once

    ledger = Ledger()
    totals = Counter()
    failures: list[tuple[str, str]] = []
    issues: list[tuple[str, str]] = []

    chunks = [files[i:i + _CHUNK_FILES] for i in range(0, len(files), _CHUNK_FILES)]
    work = (_ingest_chunk, chunks, [names] * len(chunks))
    died = ()  # what the pool raises once a worker process has died
    try:
        with contextlib.ExitStack() as stack:
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool as died

                results = stack.enter_context(ProcessPoolExecutor(workers)).map(*work)
            else:
                results = map(*work)
            done = 0
            for chunk, (part, counts, failed, logged) in zip(chunks, results):
                ledger.update(part)
                totals.update(counts)
                failures.extend(failed)
                issues.extend(logged)
                for mark in range((done // 200 + 1) * 200, done + len(chunk) + 1, 200):
                    print(f"seccite: ingested {mark}/{len(files)}", file=sys.stderr)
                done += len(chunk)
    except died as exc:
        raise ValueError(f"an ingest worker process died: {exc}") from exc

    if totals["documents"] == 0:
        raise ValueError(
            f"no parseable articles under {corpus_dir} "
            f"({len(failures)} malformed file(s))"
        )

    written = write_ledger(ledger, output_dir)

    doi_pct = (
        100.0 * totals["references_with_doi"] / totals["references"]
        if totals["references"]
        else 0.0
    )
    log_lines = [
        f"documents seen\t{totals['documents']}",
        f"research articles kept\t{totals['research_articles']}",
        f"references seen\t{totals['references']}",
        f"references with DOIs\t{totals['references_with_doi']}\t({doi_pct:.1f}%)",
        f"cited DOIs in ledger\t{len(ledger.vectors)}",
        f"malformed files\t{len(failures)}",
    ]
    # Escaped, so that each record stays one line of three cells for any path.
    escape = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
    for kind, records in (("MALFORMED", failures), ("ISSUE", issues)):
        log_lines.extend(f"{kind}\t{path_text.translate(escape)}\t{text.translate(escape)}"
                         for path_text, text in sorted(records))
    # A byte of a file name that is not UTF-8 is written as \xNN.
    log = ("\n".join(log_lines) + "\n").encode("utf-8", "surrogateescape")
    write_files(output_dir, {"ingest_log.txt": [log.decode("utf-8", "backslashreplace")]})

    for line in log_lines[:6]:
        print("seccite: " + line.replace("\t", " "), file=sys.stderr)
    print(f"seccite: wrote {len(written)} ledger file(s) to {output_dir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read in blocks rather than held whole."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _ratio(fraction) -> str:
    return f"{fraction.numerator}/{fraction.denominator}"


def _stats_files(bundle: dict):
    """(file name, header, rows) for each of the 12 stats TSVs, from the bundle
    alone. Section and axis order come from the correlation axes, not from dict
    key order, so the bundle and `json.loads(report.json)` give the same bytes."""
    correlations = bundle["correlations"]
    axes = correlations["axes"]
    sections = axes[:-1]  # the last axis is "all"
    for perspective in ("source", "target"):
        table = bundle["share"][f"{perspective}-field"]
        yield (f"share_{perspective}.tsv", ["field", *table["columns"], "weight"],
               [[field, *map(_fmt, row["shares"]), row["weight"]]
                for field, row in sorted(table["rows"].items())])
    for anchor in sections:
        yield (f"anchored_{anchor}.tsv",
               ["field", "n", *(f"{s}_{part}" for s in sections for part in ("mean", "lo", "hi"))],
               [[field, str(row[sections[0]]["n"]),
                 *(_fmt(row[s][key]) for s in sections for key in ("mean", "ci_lo", "ci_hi"))]
                for field, row in sorted(bundle["anchored"][anchor]["rows"].items())])
    yield ("corr_fields.tsv", ["field", "n", "axis", *axes],
           [[matrix["field"], str(matrix["n"]), axis, *map(_fmt, row)]
            for matrix in correlations["per_field"]
            for axis, row in zip(axes, matrix["values"])])
    for name, key in (("corr_median.tsv", "median"), ("corr_positive.tsv", "positive_share")):
        yield (name, ["axis", *axes],
               [[axis, *map(_fmt, row)] for axis, row in zip(axes, correlations[key])])
    yield ("top_share.tsv", ["section", "doi", "share", "total"],
           [[entry["section"], entry["doi"], _fmt(entry["share"]), entry["total"]]
            for entry in bundle["top_share"]])


def _notes(bundle: dict) -> list[str]:
    """The correlation notes, then each anchored table's, in section order."""
    correlations = bundle["correlations"]
    return [*correlations["notes"], *(note for anchor in correlations["axes"][:-1]
                                      for note in bundle["anchored"][anchor]["notes"])]


def cmd_stats(args: argparse.Namespace) -> int:
    import hashlib
    from fractions import Fraction

    config = _load_config(args.config)
    ledger_dir = _resolve(args, config, "ledger_dir", None, Path)
    classification = _resolve(args, config, "classification", None, Path)
    extension = _resolve(args, config, "extension", None, Path)
    year = _resolve(args, config, "year", 2012, _year)
    min_total = _resolve(args, config, "min_total", Fraction(100), _min_total)
    output_dir = _resolve(args, config, "output_dir", None, Path)
    if ledger_dir is None or output_dir is None:
        raise ValueError("stats requires --ledger-dir and --output-dir")
    if classification is None:
        raise ValueError("missing classification file (--classification)")
    if not classification.exists():
        raise ValueError(f"classification file not found (--classification): {classification}")
    if extension is not None and not extension.exists():
        raise ValueError(f"extension file not found (--extension): {extension}")

    try:  # no table reads the cohort rows; their file's header is still checked
        ledger = read_ledger(ledger_dir, cohort=False)
    except FileNotFoundError as exc:
        raise ValueError(f"ledger not found (--ledger-dir): {exc}") from exc
    field_map = load_classification(classification, extension)

    cited = cited_dois(ledger, field_map)
    share_source = share_by_field(ledger, field_map, "source-field")
    share_target = share_by_field(ledger, field_map, "target-field", cited)
    anchored = anchored_subset_geomeans(ledger, field_map, cited)
    correlations = correlation_tables(ledger, field_map, year, cited)
    top = top_share_articles(ledger, min_total=min_total, k=2, cited=cited)

    # Inputs are named by content, so the same inputs at another path give
    # the same bundle.
    config_used = {
        "ledger_sha256": {path.name: _sha256(path) for path in ledger_files(ledger_dir)},
        "classification_sha256": _sha256(classification),
        "extension_sha256": _sha256(extension) if extension else "",
        "year": str(year),
        "min_total": str(min_total),
    }
    config_hash = hashlib.sha256(
        json.dumps(config_used, sort_keys=True).encode("utf-8")
    ).hexdigest()

    # Rows keep the order the tables computed: report.json sorts its keys and
    # _stats_files sorts the rows it writes.
    bundle = {
        "provenance": {"tool": "seccite", "version": __version__,
                       "config": config_used, "config_hash": config_hash},
        "share": {
            perspective: {
                "columns": list(SHARE_COLUMNS),
                "rows": {
                    field: {"shares": [float(s) for s in row.shares], "weight": _ratio(row.weight)}
                    for field, row in table.rows.items()
                },
            }
            for perspective, table in (("source-field", share_source),
                                       ("target-field", share_target))
        },
        "anchored": {
            anchor.column: {
                "anchor": anchor.column,
                "rows": {
                    field: {
                        section.column: {"n": result.n, "mean": result.mean,
                                         "ci_lo": result.ci_lo, "ci_hi": result.ci_hi}
                        for section, result in row.items()
                    }
                    for field, row in table.rows.items()
                },
                "notes": list(table.notes),
            }
            for anchor, table in anchored.items()
        },
        "correlations": {
            "axes": list(CORRELATION_AXES),
            "year": correlations.year,
            "per_field": [
                {"field": matrix.field, "n": matrix.n,
                 "values": [list(row) for row in matrix.values]}
                for matrix in correlations.per_field
            ],
            "median": [list(row) for row in correlations.median],
            "positive_share": [list(row) for row in correlations.positive_share],
            "notes": list(correlations.notes),
        },
        "top_share": [
            {"doi": entry.cited_doi, "section": entry.section.column,
             "share": entry.share, "total": _ratio(entry.total)}
            for entry in top
        ],
    }

    # One group: a failed write leaves the previous run's 13 outputs as they were.
    write_files(output_dir, {
        "report.json": [json.dumps(bundle, sort_keys=True, indent=2) + "\n"],
        **{name: tsv_lines(name, header, rows) for name, header, rows in _stats_files(bundle)},
    })

    for note in _notes(bundle):
        print(f"seccite: note: {note}", file=sys.stderr)
    print(f"seccite: wrote report bundle to {output_dir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _parse_structure_mix(text: str) -> dict[str, float]:
    mix = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad --structure-mix entry {item!r}; expected PATTERN=prob")
        pattern, _, prob = item.partition("=")
        name = pattern.strip()
        if name in mix:
            raise ValueError(f"--structure-mix: pattern {name!r} is given twice")
        mix[name] = _convert(prob, float, f"--structure-mix {pattern}=")
    return mix


def cmd_synth(args: argparse.Namespace) -> int:
    mix = None if args.structure_mix is None else _parse_structure_mix(args.structure_mix)
    lo, hi = CorpusSpec.refs_per_article
    lo, hi = args.refs_min or lo, args.refs_max or hi
    if not MIN_REFS <= lo <= hi:
        raise ValueError(f"--refs-min {lo} --refs-max {hi}: "
                         f"need {MIN_REFS} <= --refs-min <= --refs-max")
    given = {"seed": args.seed, "article_count": args.articles, "structure_mix": mix,
             "refs_per_article": (lo, hi), "doi_coverage": args.doi_coverage,
             "range_citation_rate": args.range_rate}
    spec = CorpusSpec(**{key: value for key, value in given.items() if value is not None})
    truth = generate_corpus(spec, args.out_dir)
    truth_dir = Path(args.out_dir) / "ground_truth"
    write_ledger(truth.ledger, truth_dir)
    summary = json.dumps(truth.stats, sort_keys=True, indent=2) + "\n"
    write_files(truth_dir, {"stats.json": [summary]})
    print(
        f"seccite: wrote {len(truth.files)} articles to {args.out_dir} "
        f"(ground truth in {truth_dir})",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cell(value: float | None, spec: str = ".2f") -> str:
    """`value` formatted by `spec`, or "-" for None. A value that rounds to
    zero loses its minus sign, so no cell reads "-0.00"."""
    if value is None:
        return "-"
    text = format(value, spec)
    return text[1:] if text.startswith("-") and float(text.rstrip("%")) == 0 else text


def _table(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    """A titled text table and a blank line. Each column is as wide as its
    widest cell; the first is left-aligned and the others right-aligned."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return [f"== {title} ==", *("  ".join(cell.rjust(width) if i else cell.ljust(width)
                                          for i, (cell, width) in enumerate(zip(row, widths)))
                                for row in (header, *rows)), ""]


def _render_report(bundle: dict) -> list[str]:
    provenance = bundle.get("provenance", {})
    out = [f"seccite report (tool {provenance.get('version', '?')}, "
           f"config {provenance.get('config_hash', '?')[:12]})", ""]
    for perspective in ("source", "target"):
        table = bundle["share"][f"{perspective}-field"]
        out += _table(f"Share of citation weight by {perspective} field",
                      ["field", *table["columns"]],
                      [[field, *(_cell(share, ".1%") for share in row["shares"])]
                       for field, row in sorted(table["rows"].items())])
    correlations = bundle["correlations"]
    axes = correlations["axes"]
    sections = axes[:-1]  # the last axis is "all"
    for title, matrix, spec in (
        (f"Median rank correlation across fields (cited year {correlations['year']})",
         correlations["median"], ".2f"),
        ("Share of fields with a positive correlation", correlations["positive_share"], ".0%"),
        *((f"Rank correlation in {m['field']} (n={m['n']})", m["values"], ".2f")
          for m in correlations.get("per_field", [])),
    ):
        out += _table(title, ["axis", *axes], [[axis, *(_cell(value, spec) for value in row)]
                                               for axis, row in zip(axes, matrix)])
    for anchor in sections:
        out += _table(f"Geometric mean citations of articles cited in {anchor} (95% CI)",
                      ["field", "n", *sections],
                      [[field, str(row[sections[0]]["n"]),
                        *(f"{_cell(row[s]['mean'])} [{_cell(row[s]['ci_lo'])}, "
                          f"{_cell(row[s]['ci_hi'])}]" for s in sections)]
                       for field, row in sorted(bundle["anchored"][anchor]["rows"].items())])
    out.append("== Highly cited articles with the largest single-section share ==")
    for entry in bundle["top_share"]:
        numerator, denominator = map(int, entry["total"].split("/"))
        whole, remainder = divmod(numerator, denominator)
        total_text = f"{numerator / denominator:.2f}" if remainder else str(whole)
        out.append(
            f"  {entry['section']:<12} {entry['doi']:<40} "
            f"share {100.0 * entry['share']:5.1f}%  total {total_text}"
        )
    notes = _notes(bundle)
    if notes:
        out.append("")
        out.append("== Notes ==")
        out.extend(f"  {note}" for note in notes)
    return out


def cmd_report(args: argparse.Namespace) -> int:
    if not args.input.exists():
        raise ValueError(f"report bundle not found (--input): {args.input}")
    try:
        out = _render_report(json.loads(args.input.read_text("utf-8")))
    except KeyError as exc:
        raise ValueError(f"{args.input}: not a seccite report bundle (missing {exc})") from exc
    except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.input}: not a seccite report bundle ({exc})") from exc
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

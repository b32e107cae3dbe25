from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import operator
import os
import re
import shutil
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import seccite
from seccite import (
    anchored_subset_geomeans,
    cli,
    correlation_tables,
    load_classification,
    read_ledger,
    share_by_field,
    top_share_articles,
    write_ledger,
)
from seccite.cli import main
from seccite.jats import ArticleStructureError
from seccite.ledger import tsv_lines, write_files
from seccite.metrics import CitedDois

from conftest import fail_second_rename, make_article


def run(*argv: str) -> int:
    return main(list(argv))


def ledger_bytes(directory: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(directory).glob("ledger*.tsv"))
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli_corpus")
    code = run("synth", "--out-dir", str(out), "--articles", "40", "--seed", "13")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ingested(corpus, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli_ledger")
    assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out)) == 0
    return out


class TestSynthCommand:
    def test_deterministic_across_runs(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert run("synth", "--out-dir", str(again), "--articles", "40", "--seed", "13") == 0
        ours = sorted(p.name for p in corpus.glob("*.xml"))
        theirs = sorted(p.name for p in again.glob("*.xml"))
        assert ours == theirs
        for name in ours:
            assert (corpus / name).read_bytes() == (again / name).read_bytes()
        assert ledger_bytes(corpus / "ground_truth") == ledger_bytes(again / "ground_truth")

    def test_zero_doi_coverage(self, tmp_path):
        out = tmp_path / "empty"
        assert run("synth", "--out-dir", str(out), "--articles", "5",
                   "--doi-coverage", "0") == 0
        ledger = read_ledger(out / "ground_truth")
        assert ledger.vectors == {}

    def test_ground_truth_stats_written(self, corpus):
        stats = json.loads((corpus / "ground_truth" / "stats.json").read_text())
        assert stats["documents"] == 40

    @pytest.mark.parametrize("mix, message", [
        ("IMRDC=abc", "--structure-mix IMRDC=abc: could not convert string to float"),
        ("IMRDC=nan", "probability of 'IMRDC' must be in [0, 1], got nan"),
        ("IMRDC=1.5,IMRD=-0.5", "probability of 'IMRDC' must be in [0, 1], got 1.5"),
        ("=1", "structure pattern '' has no section token"),
        ("IMRDC=0.5, IMRDC =0.5", "--structure-mix: pattern 'IMRDC' is given twice"),
    ], ids=["not-a-number", "nan", "negative", "empty-pattern", "repeated-pattern"])
    def test_bad_structure_mix_is_runtime_error(self, tmp_path, capsys, mix, message):
        assert run("synth", "--out-dir", str(tmp_path / "out"), "--articles", "5",
                   "--structure-mix", mix) == 1
        err = capsys.readouterr().err
        assert err.startswith("seccite: error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--refs-min", "3"), "--refs-min 3 --refs-max 14: need 4 <= --refs-min <= --refs-max"),
        (("--refs-min", "10", "--refs-max", "8"),
         "--refs-min 10 --refs-max 8: need 4 <= --refs-min <= --refs-max"),
        (("--articles", "55", "--refs-min", "60", "--refs-max", "120"),
         "refs_per_article max 120 exceeds the 110 citable works of a 55-article corpus"),
    ], ids=["min-below-4", "max-below-min", "max-above-universe"])
    def test_bad_refs_range_is_runtime_error(self, tmp_path, capsys, flags, message):
        assert run("synth", "--out-dir", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert err == f"seccite: error: {message}\n"
        assert not (tmp_path / "out").exists()


    def test_out_dir_holding_other_articles_is_refused(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("synth", "--out-dir", str(out), "--articles", "30") == 0

        def files() -> dict[Path, bytes]:
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        before = files()
        capsys.readouterr()
        assert run("synth", "--out-dir", str(out), "--articles", "10") == 1
        assert capsys.readouterr().err == (
            f"seccite: error: out_dir {out} already holds {out / 'article_00010.xml'}, "
            "which this corpus would not write\n"
        )
        assert files() == before
        assert run("synth", "--out-dir", str(out), "--articles", "30") == 0
        assert files() == before
        assert run("synth", "--out-dir", str(out), "--articles", "40") == 0
        nested = out / "old" / "article_00001.xml"
        nested.parent.mkdir()
        nested.write_bytes(b"<article/>")
        assert run("synth", "--out-dir", str(out), "--articles", "40") == 1
        assert f"already holds {nested}," in capsys.readouterr().err


class TestIngestCommand:
    def test_ledger_matches_ground_truth_files(self, corpus, ingested):
        assert ledger_bytes(ingested) == ledger_bytes(corpus / "ground_truth")

    def test_log_reports_funnel(self, corpus, ingested):
        log = (ingested / "ingest_log.txt").read_text()
        stats = json.loads((corpus / "ground_truth" / "stats.json").read_text())
        assert f"documents seen\t{stats['documents']}" in log
        assert f"research articles kept\t{stats['research_articles']}" in log
        assert f"references seen\t{stats['references']}" in log
        assert f"references with DOIs\t{stats['references_with_doi']}" in log

    def test_workers_do_not_change_output(self, corpus, tmp_path):
        seq = tmp_path / "w1"
        par = tmp_path / "w4"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(seq),
                   "--workers", "1") == 0
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(par),
                   "--workers", "4") == 0
        assert ledger_bytes(seq) == ledger_bytes(par)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_progress_reported_at_any_worker_count(self, tmp_path, capsys, workers):
        corpus = tmp_path / "many"
        corpus.mkdir()
        for i in range(201):
            (corpus / f"a{i:03d}.xml").write_bytes(make_article())
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(tmp_path / "out"),
                   "--workers", workers) == 0
        err = capsys.readouterr().err
        assert "seccite: ingested 200/201" in err
        assert "documents seen 201" in err

    def test_empty_corpus_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("ingest", "--corpus-dir", str(empty), "--output-dir",
                   str(tmp_path / "out")) == 1
        assert "no .xml files" in capsys.readouterr().err

    def test_malformed_file_logged_valid_files_kept(self, tmp_path):
        corpus = tmp_path / "mixed"
        corpus.mkdir()
        (corpus / "good.xml").write_bytes(make_article(
            body='<sec><title>Introduction</title>'
                 '<p><xref ref-type="bibr" rid="r1">[1]</xref></p></sec>'
        ))
        (corpus / "bad.xml").write_bytes(b"<article><unclosed>")
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out)) == 0
        log = (out / "ingest_log.txt").read_text()
        assert "malformed files\t1" in log
        assert "bad.xml" in log
        ledger = read_ledger(out)
        assert "10.2000/aaa" in ledger.vectors

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_deep_or_unreadable_file_logged_rest_kept(self, tmp_path, workers):
        corpus = tmp_path / "mixed"
        corpus.mkdir()
        (corpus / "good.xml").write_bytes(make_article(
            body='<sec><title>Introduction</title>'
                 '<p><xref ref-type="bibr" rid="r1">[1]</xref></p></sec>'
        ))
        depth = 2000
        (corpus / "deep.xml").write_bytes(make_article(
            body="<sec><title>Methods</title>" + "<list>" * depth + "</list>" * depth + "</sec>"
        ))
        (corpus / "folder.xml").mkdir()  # matched by *.xml, cannot be read as a file
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out),
                   "--workers", workers) == 0
        log = (out / "ingest_log.txt").read_text()
        assert "malformed files\t2" in log
        malformed = [line for line in log.splitlines() if line.startswith("MALFORMED\t")]
        assert len(malformed) == 2
        assert "deep.xml" in malformed[0] and "nesting too deep" in malformed[0]
        assert "folder.xml" in malformed[1] and "cannot read file" in malformed[1]
        assert "10.2000/aaa" in read_ledger(out).vectors

    def test_unexpected_error_in_one_file_is_logged_rest_kept(
        self, corpus, ingested, tmp_path, monkeypatch, capsys
    ):
        files = sorted(corpus.glob("*.xml"))
        victim = files[0]
        real_parse = cli.parse_article

        def parse_article(data, source="<bytes>"):
            if source == str(victim):
                raise KeyError("broken")
            return real_parse(data, source=source)

        monkeypatch.setattr(cli, "parse_article", parse_article)
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out),
                   "--workers", "1") == 0
        log = (out / "ingest_log.txt").read_text()
        malformed = [line for line in log.splitlines() if line.startswith("MALFORMED\t")]
        assert malformed == [f"MALFORMED\t{victim}\tKeyError: 'broken'"]
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError: 'broken'" in err

        monkeypatch.undo()
        rest = tmp_path / "rest"
        rest.mkdir()
        for file in files[1:]:
            shutil.copy(file, rest / file.name)
        expected = tmp_path / "expected"
        assert run("ingest", "--corpus-dir", str(rest), "--output-dir", str(expected)) == 0
        assert ledger_bytes(out) == ledger_bytes(expected)
        assert ledger_bytes(out) != ledger_bytes(ingested)

    @pytest.fixture
    def forked_workers(self):
        """Pool workers see this process's monkeypatches only when forked from
        it; fork is the default start method on Linux only up to Python 3.13."""
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("fork", force=True)
        yield
        multiprocessing.set_start_method(previous, force=True)

    @pytest.fixture
    def mixed_corpus(self, corpus, tmp_path) -> Path:
        """The synth corpus plus a malformed file and one that logs an ISSUE."""
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus, mixed, ignore=shutil.ignore_patterns("ground_truth"))
        (mixed / "bad.xml").write_bytes(b"<article><unclosed>")
        (mixed / "issue.xml").write_bytes(make_article(
            body='<sec><title>Introduction</title>'
                 '<p><xref ref-type="bibr" rid="r1 r9">[1, 9]</xref></p></sec>'
        ))
        return mixed

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunk_size_does_not_change_output(
        self, mixed_corpus, tmp_path, monkeypatch, chunk, workers
    ):
        expected = tmp_path / "expected"
        assert run("ingest", "--corpus-dir", str(mixed_corpus), "--output-dir", str(expected),
                   "--workers", "1") == 0
        log = (expected / "ingest_log.txt").read_text()
        assert "MALFORMED\t" in log and "ISSUE\t" in log
        monkeypatch.setattr(cli, "_CHUNK_FILES", chunk)
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(mixed_corpus), "--output-dir", str(out),
                   "--workers", workers) == 0
        assert ledger_bytes(out) == ledger_bytes(expected)
        assert (out / "ingest_log.txt").read_bytes() == (expected / "ingest_log.txt").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failures_inside_a_chunk_cost_only_their_file(
        self, corpus, tmp_path, monkeypatch, workers, forked_workers
    ):
        files = sorted(corpus.glob("*.xml"))
        victim = files[10]
        real_parse = cli.parse_article

        def parse_article(data, source="<bytes>"):
            if source == str(victim):
                raise KeyError("broken")
            return real_parse(data, source=source)

        with_failures = tmp_path / "with_failures"
        shutil.copytree(corpus, with_failures, ignore=shutil.ignore_patterns("ground_truth"))
        unreadable = with_failures / (files[3].stem + "_folder.xml")
        unreadable.mkdir()
        victim = with_failures / victim.name
        monkeypatch.setattr(cli, "_CHUNK_FILES", 7)
        monkeypatch.setattr(cli, "parse_article", parse_article)
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(with_failures), "--output-dir", str(out),
                   "--workers", workers) == 0
        log = (out / "ingest_log.txt").read_text()
        malformed = [line for line in log.splitlines() if line.startswith("MALFORMED\t")]
        assert len(malformed) == 2
        assert f"{unreadable}: cannot read file" in malformed[0]
        assert malformed[1] == f"MALFORMED\t{victim}\tKeyError: 'broken'"

        monkeypatch.undo()
        rest = tmp_path / "rest"
        rest.mkdir()
        for file in files:
            if file.name != victim.name:
                shutil.copy(file, rest / file.name)
        expected = tmp_path / "expected"
        assert run("ingest", "--corpus-dir", str(rest), "--output-dir", str(expected)) == 0
        assert ledger_bytes(out) == ledger_bytes(expected)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_progress_marks_crossed_inside_a_chunk_are_each_printed(
        self, tmp_path, capsys, monkeypatch, chunk, workers, forked_workers
    ):
        corpus = tmp_path / "many"
        corpus.mkdir()
        for i in range(401):
            (corpus / f"a{i:03d}.xml").write_bytes(make_article())
        monkeypatch.setattr(cli, "_CHUNK_FILES", chunk)
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(tmp_path / "out"),
                   "--workers", workers) == 0
        progress = [line for line in capsys.readouterr().err.splitlines() if "ingested" in line]
        assert progress == ["seccite: ingested 200/401", "seccite: ingested 400/401"]

    def test_documents_seen_counts_only_files_that_parsed(self, mixed_corpus, tmp_path):
        (mixed_corpus / "folder.xml").mkdir()
        entries = len(list(mixed_corpus.rglob("*.xml")))
        out = tmp_path / "out"
        open_fds = len(os.listdir("/proc/self/fd"))
        assert run("ingest", "--corpus-dir", str(mixed_corpus), "--output-dir", str(out),
                   "--workers", "1") == 0
        assert len(os.listdir("/proc/self/fd")) == open_fds  # folder.xml left no descriptor open
        log = (out / "ingest_log.txt").read_text()
        assert "malformed files\t2\n" in log
        assert f"documents seen\t{entries - 2}\n" in log

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("entry", ["fifo", "sparse"])
    def test_fifo_or_oversize_file_costs_only_itself(
        self, corpus, ingested, tmp_path, entry, workers
    ):
        hostile = tmp_path / "hostile"
        shutil.copytree(corpus, hostile, ignore=shutil.ignore_patterns("ground_truth"))
        path = hostile / "zz_entry.xml"
        if entry == "fifo":
            os.mkfifo(path)
            reason = "not a regular file"
        else:
            path.touch()
            os.truncate(path, cli.MAX_FILE_BYTES + 1)  # sparse: no disk use, and never read
            reason = f"larger than {cli.MAX_FILE_BYTES} bytes"
        out = tmp_path / "out"
        ingest_in_subprocess(hostile, out, workers)
        log = (out / "ingest_log.txt").read_text()
        malformed = [line for line in log.splitlines() if line.startswith("MALFORMED\t")]
        assert malformed == [f"MALFORMED\t{path}\t{path}: cannot read file: {reason}"]
        assert ledger_bytes(out) == ledger_bytes(ingested)

    def test_log_records_stay_one_line_for_any_path(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        bad = corpus / "bad\ttab\nnl.xml"
        bad.write_bytes(b"<article><unclosed>")
        odd = corpus / "back\\slash.xml"
        odd.write_bytes(make_article(
            body='<sec><title>Introduction</title>'
                 '<p><xref ref-type="bibr" rid="r1 r9">[1, 9]</xref></p></sec>'
        ))
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out)) == 0
        lines = (out / "ingest_log.txt").read_bytes().decode("utf-8").split("\n")
        records = [line.split("\t") for line in lines if line.startswith(("MALFORMED", "ISSUE"))]
        assert [len(cells) for cells in records] == [3, 3]
        unescape = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}
        unescaped = [[re.sub(r"\\.", lambda m: unescape[m.group()], cell) for cell in cells]
                     for cells in records]
        assert [cells[:2] for cells in unescaped] == [["MALFORMED", str(bad)], ["ISSUE", str(odd)]]
        assert unescaped[0][2].startswith(f"{bad}: malformed XML")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_file_name_that_is_not_utf8_is_escaped_in_the_log(self, tmp_path, workers):
        corpus = tmp_path / "c"
        assert run("synth", "--out-dir", str(corpus), "--articles", "3") == 0
        (corpus / os.fsdecode(b"bad\xff.xml")).write_bytes(b"<article><unclosed>")
        out = tmp_path / "out"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out),
                   "--workers", workers) == 0
        log = (out / "ingest_log.txt").read_bytes().decode("utf-8")
        malformed = [line.split("\t") for line in log.splitlines()
                     if line.startswith("MALFORMED")]
        shown = f"{corpus}/bad\\xff.xml"
        assert [cells[1] for cells in malformed] == [shown]
        assert malformed[0][2].startswith(f"{shown}: malformed XML")
        assert ledger_bytes(out) == ledger_bytes(corpus / "ground_truth")

    def test_worker_entry_runs_in_a_spawned_process(self, corpus):
        # A spawned (or forkserver) worker imports seccite.cli afresh and never
        # runs main(), so the worker entry must bind what it calls itself.
        paths = [str(p) for p in sorted(corpus.glob("*.xml"))[:8]]
        expected = cli._ingest_chunk(paths, None)
        assert expected[0].vectors
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            assert pool.submit(cli._ingest_chunk, paths, None).result() == expected

    def test_run_level_failures_stay_fatal(self, corpus, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", "utf-8")
        assert run("ingest", "--corpus-dir", str(corpus),
                   "--output-dir", str(blocker / "out")) == 1
        overrides = tmp_path / "overrides.tsv"
        overrides.write_text("no tab here\n", "utf-8")
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(tmp_path / "o"),
                   "--section-overrides", str(overrides), "--workers", "2") == 1
        assert "expected 'raw-name<TAB>Section'" in capsys.readouterr().err

    def test_missing_corpus_dir_flag(self, tmp_path, capsys):
        assert run("ingest", "--output-dir", str(tmp_path)) == 1
        assert "--corpus-dir" in capsys.readouterr().err

    def test_section_overrides_flag(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "a.xml").write_bytes(make_article(
            body='<sec><title>Wrap-Up</title>'
                 '<p><xref ref-type="bibr" rid="r1">[1]</xref></p></sec>'
        ))
        overrides = tmp_path / "overrides.tsv"
        overrides.write_text("Wrap-Up\tConclusion\n", "utf-8")
        out_plain = tmp_path / "plain"
        out_over = tmp_path / "over"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out_plain)) == 0
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out_over),
                   "--section-overrides", str(overrides)) == 0
        assert read_ledger(out_plain).vectors == {}
        assert "10.2000/aaa" in read_ledger(out_over).vectors


class TestStatsCommand:
    def test_full_bundle_and_rerun_identical(self, ingested, classification_file, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            code = run("stats", "--ledger-dir", str(ingested),
                       "--classification", str(classification_file),
                       "--output-dir", str(out), "--year", "2012",
                       "--min-total", "3")
            assert code == 0
        names = sorted(p.name for p in out1.iterdir())
        assert "report.json" in names
        assert "share_source.tsv" in names and "share_target.tsv" in names
        assert "corr_median.tsv" in names and "top_share.tsv" in names
        assert sum(1 for n in names if n.startswith("anchored_")) == 6
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_classification_names_flag(self, ingested, tmp_path, capsys):
        assert run("stats", "--ledger-dir", str(ingested),
                   "--output-dir", str(tmp_path / "x")) == 1
        assert "--classification" in capsys.readouterr().err

    def test_nonexistent_classification_path(self, ingested, tmp_path, capsys):
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(tmp_path / "nope.tsv"),
                   "--output-dir", str(tmp_path / "x")) == 1
        assert "--classification" in capsys.readouterr().err

    def test_bad_classification_is_runtime_error(self, ingested, tmp_path, capsys):
        bad = tmp_path / "fields.tsv"
        bad.write_text("journal_title\tissn\tessn\tfield\nJournal A\t\t\tAstrology\n")
        assert run("stats", "--ledger-dir", str(ingested), "--classification", str(bad),
                   "--output-dir", str(tmp_path / "out")) == 1
        assert "seccite: error:" in capsys.readouterr().err

    def test_parse_error_raised_inside_a_command_is_runtime_error(
        self, ingested, classification_file, tmp_path, capsys, monkeypatch
    ):
        def read_ledger(directory):
            raise ArticleStructureError(str(directory), "not a ledger")

        monkeypatch.setattr(cli, "read_ledger", read_ledger)
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("seccite: error:")

    def test_single_doi_ledger_degenerates_gracefully(
        self, tmp_path, classification_file
    ):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "one.xml").write_bytes(make_article(
            body='<sec><title>Introduction</title>'
                 '<p><xref ref-type="bibr" rid="r1">[1]</xref></p></sec>'
        ))
        led = tmp_path / "led"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(led)) == 0
        out = tmp_path / "out"
        assert run("stats", "--ledger-dir", str(led),
                   "--classification", str(classification_file),
                   "--output-dir", str(out)) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["correlations"]["per_field"] == []

    def test_report_json_has_provenance(self, ingested, classification_file, tmp_path):
        out = tmp_path / "rep"
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(out)) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["provenance"]["tool"] == "seccite"
        assert len(bundle["provenance"]["config_hash"]) == 64
        assert set(bundle["share"]) == {"source-field", "target-field"}

    def test_bundle_names_inputs_by_content_not_path(
        self, ingested, classification_file, tmp_path, capsys
    ):
        outputs = []
        for home in (tmp_path / "a", tmp_path / "b" / "nested"):
            shutil.copytree(ingested, home / "ledger")
            shutil.copy(classification_file, home / "fields.tsv")
            assert run("stats", "--ledger-dir", str(home / "ledger"),
                       "--classification", str(home / "fields.tsv"),
                       "--output-dir", str(home / "out"), "--min-total", "3") == 0
            capsys.readouterr()
            assert run("report", "--input", str(home / "out" / "report.json")) == 0
            outputs.append(((home / "out" / "report.json").read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        config = json.loads(outputs[0][0])["provenance"]["config"]
        digest = hashlib.sha256((ingested / "ledger.tsv").read_bytes()).hexdigest()
        assert config["ledger_sha256"]["ledger.tsv"] == digest
        assert len(config["ledger_sha256"]) == 5


    def test_shared_view_gives_each_table_called_alone(
        self, synth_corpus, classification_file, tmp_path, monkeypatch
    ):
        _, truth = synth_corpus
        write_ledger(truth.ledger, tmp_path / "ledger")
        tables = {}
        for name in ("share_by_field", "anchored_subset_geomeans", "correlation_tables",
                     "top_share_articles"):
            def record(*args, _name=name, _table=getattr(cli, name), **kwargs):
                shared = any(isinstance(a, CitedDois) for a in (*args, *kwargs.values()))
                result = _table(*args, **kwargs)
                tables.setdefault(_name, []).append((shared, result))
                return result

            monkeypatch.setattr(cli, name, record)
        assert run("stats", "--ledger-dir", str(tmp_path / "ledger"),
                   "--classification", str(classification_file),
                   "--output-dir", str(tmp_path / "out"), "--year", "2012",
                   "--min-total", "3") == 0

        ledger = read_ledger(tmp_path / "ledger")
        field_map = load_classification(classification_file)
        correlations = correlation_tables(ledger, field_map, 2012)
        top = top_share_articles(ledger, min_total=3, k=2)
        assert correlations.per_field and top
        assert tables == {
            "share_by_field": [(False, share_by_field(ledger, field_map, "source-field")),
                               (True, share_by_field(ledger, field_map, "target-field"))],
            "anchored_subset_geomeans": [(True, anchored_subset_geomeans(ledger, field_map))],
            "correlation_tables": [(True, correlations)],
            "top_share_articles": [(True, top)],
        }

    def test_each_tsv_is_regenerated_from_report_json(
        self, synth_corpus, classification_file, tmp_path
    ):
        _, truth = synth_corpus
        write_ledger(truth.ledger, tmp_path / "ledger")
        out = tmp_path / "out"
        assert run("stats", "--ledger-dir", str(tmp_path / "ledger"),
                   "--classification", str(classification_file),
                   "--output-dir", str(out), "--min-total", "3") == 0
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(written) == 13
        del written["report.json"]
        regenerated = {}
        for name, header, rows in cli._stats_files(json.loads((out / "report.json").read_text())):
            write_files(tmp_path, {name: tsv_lines(name, header, rows)})
            regenerated[name] = (tmp_path / name).read_bytes()
        assert regenerated == written

    @pytest.mark.parametrize("fifth", ["oserror-before-it", "rows-raise"])
    def test_failed_rerun_keeps_the_previous_outputs(
        self, ingested, classification_file, tmp_path, capsys, monkeypatch, fifth
    ):
        out = tmp_path / "out"
        argv = ["stats", "--ledger-dir", str(ingested),
                "--classification", str(classification_file), "--output-dir", str(out)]
        assert run(*argv, "--min-total", "3") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before) == 13
        stats_files = cli._stats_files

        def first_row_then_oserror(rows):
            yield rows[0]
            raise OSError("disk full")

        def failing(bundle):
            for index, (name, header, rows) in enumerate(stats_files(bundle)):
                if index == 4:
                    if fifth == "oserror-before-it":
                        raise OSError("disk full")
                    rows = first_row_then_oserror(rows)
                yield name, header, rows

        monkeypatch.setattr(cli, "_stats_files", failing)
        capsys.readouterr()
        assert run(*argv, "--min-total", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("seccite: error:") and err.count("\n") == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_rename_leaves_no_temporary_file(
        self, ingested, classification_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        argv = ["stats", "--ledger-dir", str(ingested),
                "--classification", str(classification_file), "--output-dir", str(out)]
        assert run(*argv, "--min-total", "3") == 0
        fail_second_rename(monkeypatch)
        capsys.readouterr()
        assert run(*argv, "--min-total", "1") == 1
        assert capsys.readouterr().err == "seccite: error: cannot rename share_source.tsv.tmp\n"
        assert len(list(out.iterdir())) == 13
        assert list(out.glob("*.tmp")) == []


def write_bundle(path: Path, top_share: list[dict]) -> Path:
    """A report.json with empty tables and the given top-share entries."""
    empty = {"columns": ["introduction"], "rows": {}}
    path.write_text(json.dumps({
        "provenance": {"version": "0.1.0", "config_hash": "0" * 64},
        "share": {"source-field": empty, "target-field": empty},
        "correlations": {"axes": [], "year": 2012, "median": [], "positive_share": [],
                         "notes": []},
        "top_share": top_share,
    }), "utf-8")
    return path


def _error_text(function, *args) -> str:
    """The message of the ArithmeticError that function(*args) raises."""
    with pytest.raises(ArithmeticError) as excinfo:
        function(*args)
    return str(excinfo.value)


class TestReportCommand:
    def test_renders_bundle(self, ingested, classification_file, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(out), "--min-total", "3") == 0
        capsys.readouterr()
        assert run("report", "--input", str(out / "report.json")) == 0
        rendered = capsys.readouterr().out
        assert "source field" in rendered
        assert "%" in rendered

    def test_missing_bundle(self, tmp_path, capsys):
        assert run("report", "--input", str(tmp_path / "report.json")) == 1
        assert "--input" in capsys.readouterr().err

    def test_total_rendered_from_its_exact_ratio(self, tmp_path, capsys):
        bundle = write_bundle(tmp_path / "report.json", [
            {"section": "methods", "doi": "10.1000/seven-halves", "share": 0.5,
             "total": "7/2"},
            {"section": "results", "doi": "10.1000/six-halves", "share": 0.25,
             "total": "6/2"},
            {"section": "discussion", "doi": "10.1000/six-quarters", "share": 1.0,
             "total": "6/4"},
            {"section": "introduction", "doi": "10.1000/none", "share": 0.0,
             "total": "0/1"},
        ])
        assert run("report", "--input", str(bundle)) == 0
        assert capsys.readouterr().out.splitlines()[-4:] == [
            "  methods      10.1000/seven-halves                     share  50.0%  total 3.50",
            "  results      10.1000/six-halves                       share  25.0%  total 3",
            "  discussion   10.1000/six-quarters                     share 100.0%  total 1.50",
            "  introduction 10.1000/none                             share   0.0%  total 0",
        ]

    def test_renders_every_table_in_the_bundle(self, classification_file, tmp_path, capsys):
        # The seed-7 20-article ground truth has correlation and anchored notes,
        # and median cells that round to zero from below.
        assert run("synth", "--out-dir", str(tmp_path / "corpus"), "--articles", "20",
                   "--seed", "7") == 0
        out = tmp_path / "stats"
        capsys.readouterr()
        assert run("stats", "--ledger-dir", str(tmp_path / "corpus" / "ground_truth"),
                   "--classification", str(classification_file),
                   "--output-dir", str(out), "--min-total", "3") == 0
        prefix = "seccite: note: "
        notes = [line[len(prefix):] for line in capsys.readouterr().err.splitlines()
                 if line.startswith(prefix)]
        assert run("report", "--input", str(out / "report.json")) == 0
        lines = capsys.readouterr().out.splitlines()
        bundle = json.loads((out / "report.json").read_text())
        correlations = bundle["correlations"]
        axes = correlations["axes"]
        sections = axes[:-1]
        assert correlations["per_field"] and notes

        tables: dict[str, list[list[str]]] = {}
        for line in lines[1:]:
            if line.startswith("== "):
                rows = tables[line.strip("= ")] = []
            elif line:
                rows.append(re.split(r"\s{2,}", line.strip()))
        assert list(tables) == [
            "Share of citation weight by source field",
            "Share of citation weight by target field",
            "Median rank correlation across fields (cited year 2012)",
            "Share of fields with a positive correlation",
            *(f"Rank correlation in {matrix['field']} (n={matrix['n']})"
              for matrix in correlations["per_field"]),
            *(f"Geometric mean citations of articles cited in {anchor} (95% CI)"
              for anchor in sections),
            "Highly cited articles with the largest single-section share",
            "Notes",
        ]

        def cell(title: str, row: str, column: str) -> str:
            header, *body = tables[title]
            return next(r for r in body if r[0] == row)[header.index(column)]

        field, row = next(iter(bundle["share"]["source-field"]["rows"].items()))
        assert cell("Share of citation weight by source field", field, "intro") == (
            f"{100 * row['shares'][0]:.1f}%")
        near_zero = [(axis, column) for axis, values in zip(axes, correlations["median"])
                     for column, value in zip(axes, values)
                     if value is not None and value < 0 and round(value, 2) == 0]
        assert near_zero
        for axis, column in near_zero:
            assert cell("Median rank correlation across fields (cited year 2012)",
                        axis, column) == "0.00"
        positive = correlations["positive_share"][0][1]
        assert cell("Share of fields with a positive correlation", "intro", "background") == (
            f"{100 * positive:.0f}%")
        for matrix in correlations["per_field"]:
            for i, axis in enumerate(axes):
                expected = "-" if matrix["values"][i][i] is None else "1.00"
                assert cell(f"Rank correlation in {matrix['field']} (n={matrix['n']})",
                            axis, axis) == expected
        for anchor in sections:
            for field, row in bundle["anchored"][anchor]["rows"].items():
                assert cell(f"Geometric mean citations of articles cited in {anchor} (95% CI)",
                            field, "n") == str(row[sections[0]]["n"])
        assert [row[0] for row in tables["Notes"]] == notes

    @pytest.mark.parametrize("text, missing", [
        ("[]", "'list' object has no attribute"),
        ('{"provenance": {}}', "missing 'share'"),
        ({}, "missing 'total'"),
        ("{", "Expecting property name"),
        ({"total": "1/0"}, _error_text(divmod, 1, 0)),
        ({"total": f"{10**400 + 1}/2"}, _error_text(operator.truediv, 10**400 + 1, 2)),
    ], ids=["json-list", "no-share", "top-share-without-total", "not-json",
            "zero-total-denominator", "total-beyond-float"])
    def test_input_that_is_not_a_bundle_is_runtime_error(self, tmp_path, capsys,
                                                         text, missing):
        path = tmp_path / "report.json"
        if isinstance(text, dict):  # a top-share entry's total
            write_bundle(path, [{"section": "methods", "doi": "10.1000/x", "share": 0.5,
                                 **text}])
        else:
            path.write_text(text, "utf-8")
        assert run("report", "--input", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"seccite: error: {path}: not a seccite report bundle ({missing}")
        assert captured.err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run("stats", "--bogus")
        assert excinfo.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 2

    def test_bad_worker_count_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("ingest", "--corpus-dir", str(tmp_path),
                "--output-dir", str(tmp_path), "--workers", "0")
        assert excinfo.value.code == 2


class TestWorkerEnvVar:
    def test_env_default_is_read(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SECCITE_WORKERS", "0")
        assert run("ingest", "--corpus-dir", str(corpus),
                   "--output-dir", str(tmp_path / "o")) == 1
        assert "SECCITE_WORKERS=0: must be >= 1" in capsys.readouterr().err

    def test_bad_env_value_names_the_variable(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SECCITE_WORKERS", "abc")
        assert run("ingest", "--corpus-dir", str(corpus),
                   "--output-dir", str(tmp_path / "o")) == 1
        assert "SECCITE_WORKERS=abc" in capsys.readouterr().err

    def test_env_value_used_when_flag_absent(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("SECCITE_WORKERS", "2")
        out = tmp_path / "env2"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(out)) == 0
        assert (out / "ledger.tsv").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(
        self, corpus, classification_file, tmp_path
    ):
        led = tmp_path / "led"
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(led)) == 0
        config = tmp_path / "run.conf"
        config.write_text(
            f"ledger_dir={led}\nclassification={classification_file}\n"
            f"year=2013\nmin_total=5\n",
            "utf-8",
        )
        out = tmp_path / "out"
        assert run("stats", "--config", str(config), "--output-dir", str(out),
                   "--year", "2012") == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["correlations"]["year"] == 2012  # flag beat config
        assert bundle["provenance"]["config"]["min_total"] == "5"

    def test_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("not a pair\n", "utf-8")
        assert run("stats", "--config", str(config),
                   "--output-dir", str(tmp_path)) == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["year=abc", "min_total=lots", "min_total=1/0"])
    def test_bad_config_value_names_key_and_file(
        self, ingested, classification_file, tmp_path, capsys, line
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"{line}\n", "utf-8")
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(tmp_path / "o"), "--config", str(config)) == 1
        assert f"seccite: error: {config}: {line}: " in capsys.readouterr().err

    def test_unparseable_numeric_value_is_runtime_error(
        self, ingested, classification_file, tmp_path, capsys
    ):
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(tmp_path / "o"),
                   "--min-total", "lots") == 1
        assert "error" in capsys.readouterr().err

    def test_zero_denominator_flag_names_the_flag(
        self, ingested, classification_file, tmp_path, capsys
    ):
        assert run("stats", "--ledger-dir", str(ingested),
                   "--classification", str(classification_file),
                   "--output-dir", str(tmp_path / "o"), "--min-total", "1/0") == 1
        err = capsys.readouterr().err
        assert err.startswith("seccite: error: --min-total 1/0: zero denominator")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value, reason", [
        ("year", "1800", "must be >= 1900"),
        ("min_total", "0", "must be positive"),
        ("min_total", "-1/2", "must be positive"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_value_names_its_source(
        self, ingested, classification_file, tmp_path, capsys, key, value, reason, source
    ):
        argv = ["stats", "--ledger-dir", str(ingested), "--classification",
                str(classification_file), "--output-dir", str(tmp_path / "o")]
        if source == "flag":
            flag = "--" + key.replace("_", "-")
            argv.append(f"{flag}={value}")
            expected = f"seccite: error: {flag} {value}: {reason}\n"
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"{key}={value}\n", "utf-8")
            argv += ["--config", str(config)]
            expected = f"seccite: error: {config}: {key}={value}: {reason}\n"
        assert run(*argv) == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o").exists()

    def test_config_worker_count_below_one_names_key_and_file(self, corpus, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("workers=0\n", "utf-8")
        assert run("ingest", "--corpus-dir", str(corpus), "--output-dir", str(tmp_path / "o"),
                   "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert f"seccite: error: {config}: workers=0: must be >= 1" in err
        assert "--workers" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("--version")
    assert excinfo.value.code == 0


def seccite_env() -> dict[str, str]:
    """The environment of a new Python process that imports this seccite."""
    src = str(Path(seccite.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def fresh_interpreter(code: str) -> str:
    """Run `code` in a new Python process that imports this seccite; its stdout."""
    return subprocess.run([sys.executable, "-c", code], env=seccite_env(),
                          capture_output=True, text=True, check=True).stdout


def ingest_in_subprocess(corpus: Path, out: Path, workers: str) -> None:
    """`seccite ingest` in a new process session. A run that blocks fails after
    a timeout and is killed with its workers, rather than hanging the suite."""
    argv = [sys.executable, "-m", "seccite.cli", "ingest", "--corpus-dir", str(corpus),
            "--output-dir", str(out), "--workers", workers]
    with subprocess.Popen(argv, env=seccite_env(), stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, err


SUBMODULES = {f"seccite.{name}" for name in
              ("cli", "fields", "jats", "ledger", "metrics", "sections", "synth")}


@pytest.mark.parametrize("command, absent", [
    ("import seccite", SUBMODULES),
    ("import seccite.cli", SUBMODULES - {"seccite.cli"}),
    ("report", SUBMODULES - {"seccite.cli"}
     | {"fractions", "concurrent.futures", "hashlib", "traceback"}),
    ("stats", {"seccite.jats", "seccite.synth", "concurrent.futures"}),
    ("ingest", {"seccite.metrics", "seccite.fields", "seccite.synth", "concurrent.futures"}),
    ("synth", {"seccite.jats", "seccite.metrics", "seccite.fields", "concurrent.futures"}),
], ids=["package", "cli", "report", "stats", "ingest", "synth"])
def test_import_leaves_out_scipy_and_numpy(command, absent, corpus, ingested,
                                           classification_file, tmp_path):
    argv = {
        "report": ["--input", str(write_bundle(tmp_path / "report.json", []))],
        "stats": ["--ledger-dir", str(ingested), "--classification",
                  str(classification_file), "--output-dir", str(tmp_path / "stats")],
        "ingest": ["--corpus-dir", str(corpus), "--output-dir", str(tmp_path / "ledger"),
                   "--workers", "1"],
        "synth": ["--out-dir", str(tmp_path / "synth"), "--articles", "5"],
    }
    if command in argv:
        command = ("from seccite.cli import main\n"
                   f"if main({[command, *argv[command]]!r}):\n    sys.exit('failed')")
    absent |= {"scipy", "numpy", "urllib.request", "http.client"}
    code = f"import sys\n{command}\nprint(sorted(set(sys.modules) & {absent!r}))"
    assert fresh_interpreter(code).splitlines()[-1] == "[]"


# Every top-level name of seccite -> the submodule that defines it.
PUBLIC_HOMES = {
    "load_classification": "fields",
    "is_research_article": "jats",
    "parse_article": "jats",
    **dict.fromkeys(["Ledger", "fractionalize", "merge", "modal_cited_journal",
                     "outer_section_labels", "read_ledger", "resolve_cited_year",
                     "write_ledger"], "ledger"),
    **dict.fromkeys(["anchored_subset_geomeans", "correlation_tables", "geometric_mean_ci",
                     "share_by_field", "share_row", "spearman", "top_share_articles"],
                    "metrics"),
    "CanonicalSection": "sections",
    **dict.fromkeys(["CorpusSpec", "generate_corpus", "write_classification"], "synth"),
}

# Names of seccite.cli that callers replace before running a command.
PATCHED_CLI_NAMES = {
    "_CHUNK_FILES": None,
    "parse_article": "seccite.jats",
    "load_name_table": "seccite.sections",
    "load_classification": "seccite.fields",
    "generate_corpus": "seccite.synth",
    **dict.fromkeys(["outer_section_labels", "read_ledger", "write_ledger"],
                    "seccite.ledger"),
    **dict.fromkeys(["share_by_field", "anchored_subset_geomeans", "correlation_tables",
                     "top_share_articles"], "seccite.metrics"),
}


def test_lazy_names_keep_the_public_api():
    namespace: dict = {}
    exec("from seccite import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(seccite.__all__)
    assert set(seccite.__all__) == {"__version__", *PUBLIC_HOMES}
    for name, home in PUBLIC_HOMES.items():
        assert namespace[name] is getattr(importlib.import_module(f"seccite.{home}"), name)
    for module in (seccite, cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018

    code = ("import seccite.cli as cli\n"
            f"print({{name: getattr(getattr(cli, name), '__module__', None)"
            f" for name in {sorted(PATCHED_CLI_NAMES)!r}}})")
    assert fresh_interpreter(code).strip() == repr(dict(sorted(PATCHED_CLI_NAMES.items())))

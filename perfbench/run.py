"""seccite benchmark: synth -> ingest (1 and nproc workers) -> stats -> report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small-articles --seed 7 --seconds 10 --trace 0

`--trace 0` times the real CLI as subprocesses and reports the end-to-end
metrics; `--trace 1` runs the same commands in-process with spans around
each module's public calls and reports the per-layer metrics. Every run
checks its outputs against the synthetic ground truth. The last line of
stdout is the result as one JSON object; the line before it carries the
provenance. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
NPROC = len(os.sched_getaffinity(0))

YEAR = "2012"
# The largest per-DOI total in a synthetic ledger is about 14, so the CLI's
# default of 100 would leave the top-share table with nothing to score.
MIN_TOTAL = "8"
COMMAND_TIMEOUT_S = 150.0
# A run starts no new measuring cycle that would end past this many seconds.
RUN_BUDGET_S = 150.0


@dataclass(frozen=True)
class Corpus:
    """One `seccite synth` corpus: its size, its smoke size and other flags."""

    articles: int
    smoke_articles: int
    flags: tuple[str, ...] = ()

    def synth_args(self, seed: int, smoke: bool) -> list[str]:
        count = self.smoke_articles if smoke else self.articles
        return ["--articles", str(count), "--seed", str(seed), *self.flags]


@dataclass(frozen=True)
class Workload:
    """`ingest` runs on the ingest corpus; `stats` reads the stats corpus's
    ground-truth ledger (the ingest corpus's when no stats corpus is given)."""

    ingest: Corpus
    stats: Corpus | None = None

    def corpora(self) -> dict[str, Corpus]:
        named = {"ingest": self.ingest}
        if self.stats is not None:
            named["stats"] = self.stats
        return named


WORKLOADS = {
    "small-articles": Workload(ingest=Corpus(1500, 50)),
    "long-articles": Workload(ingest=Corpus(
        400, 60,
        ("--refs-min", "60", "--refs-max", "120", "--structure-mix", "IBLMMMRRRDDDC=1"),
    )),
    "stats-large": Workload(ingest=Corpus(500, 50), stats=Corpus(8000, 200)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_serial_articles_per_s": "1/s",
    "ingest_parallel_articles_per_s": "1/s",
    "ingest_peak_rss_mb": "MB",
    "stats_s": "s",
    "stats_peak_rss_mb": "MB",
    "report_s": "s",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "jats.parse_ms_per_article": "ms",
    "jats.xml_floor_ms_per_article": "ms",
    "jats.references_per_article": "count",
    "jats.markers_per_article": "count",
    "sections.label_us_per_article": "us",
    "ledger.add_article_us_per_article": "us",
    "ledger.merge_s": "s",
    "ledger.merge_entries": "count",
    "ledger.delta_bytes_per_article": "bytes",
    "ledger.write_s": "s",
    "ledger.read_s": "s",
    "ledger.bytes": "bytes",
    "ledger.modal_journal_calls": "count",
    "metrics.share_s": "s",
    "metrics.anchored_s": "s",
    "metrics.correlation_s": "s",
    "metrics.top_share_s": "s",
    "metrics.top_share_qualifiers": "count",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.ingest_unattributed_s": "s",
    "trace.stats_unattributed_s": "s",
}


class SourceError(Exception):
    """The checkout has no importable seccite sources."""


def load_seccite() -> None:
    """Import seccite from the checkout's src/, which need not be installed."""
    if not (SRC / "seccite" / "__init__.py").is_file():
        raise SourceError(f"no seccite package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    try:
        import seccite.cli  # noqa: F401
    except ImportError as exc:
        raise SourceError(f"cannot import seccite.cli from {SRC}: {exc}") from exc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SECCITE_WORKERS", None)
    return env


@dataclass
class Outcome:
    seconds: float
    peak_rss_mb: float
    exit_code: int


def run_command(argv: list[str], log: Path, stdout: Path | None = None) -> Outcome:
    """Run one command, timing its wall clock and reading its rusage.

    The command gets its own process group, so a timeout also ends the pool
    workers of a parallel ingest. `ru_maxrss` from wait4 covers the command
    and every child it waited for.
    """
    with log.open("wb") as err, open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def seccite(*args: str) -> list[str]:
    return [sys.executable, "-m", "seccite.cli", *args]


class Run:
    """One benchmark run: its work directory, operations and problems."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.dir = WORK_ROOT / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.provenance: dict = {
            "workload": name,
            "seed": seed,
            "smoke": smoke,
            "synth_args": {
                label: corpus.synth_args(seed, smoke)
                for label, corpus in self.workload.corpora().items()
            },
        }

    def operation(self, label: str, problems: list[str]) -> bool:
        """Count one operation; it fails if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def corpus_dir(self, label: str) -> Path:
        return self.dir / "corpus" / label

    def stats_ledger(self) -> Path:
        label = "stats" if self.workload.stats is not None else "ingest"
        return self.corpus_dir(label) / "ground_truth"

    def documents(self) -> int:
        return sum(1 for _ in self.corpus_dir("ingest").rglob("*.xml"))

    def stats_argv(self, output_dir: Path) -> list[str]:
        return ["--ledger-dir", str(self.stats_ledger()),
                "--classification", str(self.dir / "fields.tsv"),
                "--output-dir", str(output_dir), "--year", YEAR, "--min-total", MIN_TOTAL]

    # -- end-to-end (--trace 0) --------------------------------------------

    def setup(self, target: Path) -> tuple[float, dict]:
        """Generate the workload's corpora and the classification fixture."""
        from seccite.synth import write_classification

        start = time.perf_counter()
        for label, corpus in self.workload.corpora().items():
            outcome = run_command(
                seccite("synth", "--out-dir", str(target / "corpus" / label),
                        *corpus.synth_args(self.seed, self.smoke)),
                self.dir / f"synth-{label}.log",
            )
            self.operation(f"synth {label}",
                           [] if outcome.exit_code == 0 else [f"exit {outcome.exit_code}"])
        write_classification(target / "fields.tsv")
        seconds = time.perf_counter() - start
        return seconds, {label: gate.tree_digest(target / "corpus" / label)
                         for label in self.workload.corpora()}

    def ingest(self, workers: int) -> Outcome:
        out = self.dir / f"ingest-{workers}"
        shutil.rmtree(out, ignore_errors=True)
        outcome = run_command(
            seccite("ingest", "--corpus-dir", str(self.corpus_dir("ingest")),
                    "--output-dir", str(out), "--workers", str(workers)),
            self.dir / f"ingest-{workers}.log",
        )
        problems = [] if outcome.exit_code == 0 else [f"exit {outcome.exit_code}"]
        if not problems:
            problems = gate.check_ingest_log(out) + gate.check_ledger(
                out, self.corpus_dir("ingest") / "ground_truth")
        self.operation(f"ingest --workers {workers}", problems)
        return outcome

    def stats(self, digests: dict) -> Outcome:
        out = self.dir / "stats"
        shutil.rmtree(out, ignore_errors=True)
        outcome = run_command(seccite("stats", *self.stats_argv(out)), self.dir / "stats.log")
        problems = [] if outcome.exit_code == 0 else [f"exit {outcome.exit_code}"]
        if not problems:
            problems = gate.check_stats(out)
            produced = gate.output_digests(out)
            digests.setdefault("stats", produced)
            if produced != digests["stats"]:
                problems.append("outputs differ from the first stats run")
        self.operation("stats", problems)
        return outcome

    def report(self, digests: dict) -> Outcome:
        text = self.dir / "report.txt"
        outcome = run_command(
            seccite("report", "--input", str(self.dir / "stats" / "report.json")),
            self.dir / "report.log", stdout=text,
        )
        problems = [] if outcome.exit_code == 0 else [f"exit {outcome.exit_code}"]
        if not problems:
            if not text.read_text("utf-8").startswith("seccite report"):
                problems.append("stdout is not a rendered report")
            digest = gate.sha256_file(text)
            digests.setdefault("report", digest)
            if digest != digests["report"]:
                problems.append("stdout differs from the first report run")
        self.operation("report", problems)
        return outcome

    def measure(self, seconds: float, started: float) -> dict:
        """Set up, run whole cycles for `seconds`, then set up once more.

        The second set-up lands at the other end of the run, so the two
        set-up samples see different moments of a shared machine. Synth is
        deterministic, so it must reproduce the first corpus byte for byte.
        """
        wall: dict[str, list[float]] = {key: [] for key in (
            "setup_s", "ingest_serial_s", "ingest_parallel_s", "stats_s", "report_s")}
        rss: dict[str, list[float]] = {"ingest": [], "stats": []}
        first, digests = self.setup(self.dir)
        wall["setup_s"].append(first)
        # Write the new corpus back now: left to the kernel, the write-back
        # starts about 30 s later, in the middle of the timed commands.
        os.sync()
        documents = self.documents()
        outputs: dict = {}
        measure_start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for workers, key in ((1, "ingest_serial_s"), (NPROC, "ingest_parallel_s")):
                outcome = self.ingest(workers)
                wall[key].append(outcome.seconds)
                rss["ingest"].append(outcome.peak_rss_mb)
            outcome = self.stats(outputs)
            wall["stats_s"].append(outcome.seconds)
            rss["stats"].append(outcome.peak_rss_mb)
            wall["report_s"].append(self.report(outputs).seconds)
            now = time.perf_counter()
            if now - measure_start >= seconds or now - started + (now - cycle_start) > RUN_BUDGET_S:
                break
        second, repeat_digests = self.setup(self.dir / "setup-check")
        wall["setup_s"].append(second)
        for label, digest in repeat_digests.items():
            if digest != digests[label]:
                self.operation(f"synth {label}", ["second set-up differs from the first"])
        shutil.rmtree(self.dir / "setup-check")

        median = {key: statistics.median(values) for key, values in wall.items()}
        serial = documents / median["ingest_serial_s"]
        parallel = documents / median["ingest_parallel_s"]
        self.provenance.update({
            "documents": documents,
            "corpus_digest": digests,
            "wall_samples_s": wall,
            "peak_rss_samples_mb": rss,
            "parallel_speedup": parallel / serial,
            "stats_outputs_sha256": outputs.get("stats", {}),
            "report_sha256": outputs.get("report"),
        })
        return {
            "setup_s": median["setup_s"],
            "ingest_serial_articles_per_s": serial,
            "ingest_parallel_articles_per_s": parallel,
            "ingest_peak_rss_mb": max(rss["ingest"]),
            "stats_s": median["stats_s"],
            "stats_peak_rss_mb": max(rss["stats"]),
            "report_s": median["report_s"],
        }

    # -- per layer (--trace 1) ---------------------------------------------

    def import_seconds(self) -> float:
        """`import seccite.cli` in a fresh interpreter, median of three."""
        code = ("import time; t = time.perf_counter(); import seccite.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for repeat in range(3):
            out = self.dir / f"import-{repeat}.txt"
            outcome = run_command([sys.executable, "-c", code], self.dir / "import.log", stdout=out)
            if self.operation("import seccite.cli",
                              [] if outcome.exit_code == 0 else [f"exit {outcome.exit_code}"]):
                times.append(float(out.read_text().strip()))
        return statistics.median(times) if times else float("nan")

    def traced(self) -> dict:
        from seccite.synth import write_classification

        tracer = tracing.Tracer()
        captured: dict = {}
        logs = self.dir / "traced-logs"
        logs.mkdir(parents=True)

        def command(name: str, argv: list[str], check=lambda: []) -> str:
            code, stdout = tracing.run_cli_traced(tracer, name, argv, logs / f"{name}.log")
            self.operation(f"traced {name}", [f"exit {code}"] if code else check())
            return stdout

        with tracing.instrumented(tracer, captured):
            for label, corpus in self.workload.corpora().items():
                command("synth", ["--out-dir", str(self.corpus_dir(label)),
                                  *corpus.synth_args(self.seed, self.smoke)])
            with tracer.span("synth.write_classification"):
                write_classification(self.dir / "fields.tsv")
            os.sync()
            ingest_out = self.dir / "traced-ingest"
            truth = self.corpus_dir("ingest") / "ground_truth"
            command("ingest", ["--corpus-dir", str(self.corpus_dir("ingest")),
                               "--output-dir", str(ingest_out), "--workers", "1"],
                    lambda: gate.check_ingest_log(ingest_out) + gate.check_ledger(ingest_out, truth))
            stats_out = self.dir / "stats"
            command("stats", self.stats_argv(stats_out), lambda: gate.check_stats(stats_out))
            rendered = command("report", ["--input", str(stats_out / "report.json")])
            self.operation("traced report output",
                           [] if rendered.startswith("seccite report") else ["not a rendered report"])

        floor = tracing.xml_floor_seconds(self.corpus_dir("ingest"))
        figures = tracing.layer_metrics(tracer, floor, captured["ledger"], self.stats_ledger(),
                                      Fraction(MIN_TOTAL))
        figures["cli.import_s"] = self.import_seconds()
        serial = self.ingest(1)
        untraced_stats = self.stats({})
        figures["trace.spans"] = len(tracer.spans)
        figures["trace.overhead_s"] = len(tracer.spans) * tracing.span_cost_seconds()
        figures["trace.ingest_unattributed_s"] = serial.seconds - tracing.traced_total(tracer, "ingest")
        figures["trace.stats_unattributed_s"] = (
            untraced_stats.seconds - tracing.traced_total(tracer, "stats"))
        spans_file = WORK_ROOT / f"spans-{self.name}-seed{self.seed}.json"
        tracer.write(spans_file)
        self.provenance["spans_file"] = str(spans_file.relative_to(ROOT))
        self.provenance["corpus_digest"] = {
            label: gate.tree_digest(self.corpus_dir(label)) for label in self.workload.corpora()
        }
        return figures


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return result.stdout.strip() or None


def environment() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "scipy": scipy_version,
        "git_sha": git_sha(),
        "source_digest": gate.tree_digest(SRC / "seccite", "*.py"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    started = time.perf_counter()
    run = Run(name, seed, smoke)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    try:
        if traced:
            figures = run.traced()
            units = PER_LAYER_UNITS
        else:
            figures = run.measure(seconds, started)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failed = run.failed
    run.provenance.update({
        "trace": int(traced),
        "attempted": run.attempted,
        "failed": failed,
        "failed_share": failed / run.attempted,
        "problems": run.problems[:50],
        "wall_s": time.perf_counter() - started,
    })
    print(json.dumps({"provenance": run.provenance}, sort_keys=True))
    for key, value in figures.items():
        print(f"  {name:<15} {key:<36} {value:>14.6g} {units[key]}", file=sys.stderr)
    print(f"  {name:<15} {'failed_share':<36} {failed / run.attempted:>14.6g} "
          f"({failed}/{run.attempted})", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in figures.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 50 articles per corpus, to check the benchmark itself")
    args = parser.parse_args(argv)
    try:
        load_seccite()
    except SourceError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

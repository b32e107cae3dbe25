"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

The smoke runs use about 50 articles per corpus, so they check that every
metric is printed with its unit and that the correctness gate passes, not
the program's speed. The negative tests check that the gate catches a
corrupted ledger row and broken stats invariants.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


def _smoke(trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_and_passes_the_gate(trace, section):
    result = _smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in run.WORKLOADS
        for metric in BENCHMARK[section]
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_names_the_workloads_and_units():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory) -> Path:
    run.load_seccite()
    from seccite.cli import main

    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out-dir", str(root / "corpus"), "--articles", "60", "--seed", "5"]) == 0
    from seccite.synth import write_classification

    write_classification(root / "fields.tsv")
    return root


def test_gate_accepts_the_ground_truth_and_rejects_a_corrupted_row(small_corpus, tmp_path):
    truth = small_corpus / "corpus" / "ground_truth"
    produced = tmp_path / "ledger"
    shutil.copytree(truth, produced)
    assert gate.check_ledger(produced, truth) == []

    main = produced / "ledger.tsv"
    lines = main.read_text("utf-8").splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split("\t")
    cells[-1] = "999/1"
    lines[1] = "\t".join(cells) + "\n"
    main.write_text("".join(lines), "utf-8")
    assert gate.check_ledger(produced, truth) == [f"{main}: differs from {truth / 'ledger.tsv'}"]


def test_gate_rejects_broken_stats_invariants(small_corpus, tmp_path):
    from seccite.cli import main

    out = tmp_path / "stats"
    assert main(["stats", "--ledger-dir", str(small_corpus / "corpus" / "ground_truth"),
                 "--classification", str(small_corpus / "fields.tsv"),
                 "--output-dir", str(out), "--min-total", run.MIN_TOTAL]) == 0
    assert gate.check_stats(out) == []

    bundle_path = out / "report.json"
    bundle = json.loads(bundle_path.read_text("utf-8"))
    field, row = sorted(bundle["share"]["source-field"]["rows"].items())[0]
    row["shares"][0] += 1e-9
    bundle["correlations"]["median"][2][2] = 0.5
    bundle["top_share"] = []
    bundle_path.write_text(json.dumps(bundle), "utf-8")
    problems = gate.check_stats(out)
    assert len(problems) == 3
    assert problems[0].startswith(f"share source-field {field}: row sums to")
    assert problems[1] == "correlation median: diagonal [2] is 0.5"
    assert problems[2] == "top_share: empty"

"""Tiny-size smoke test of the benchmark: every workload, both modes.

Run from the repository root:  python -m pytest -q benchmark/tests

Each case copies the sources into a temporary checkout and runs
``benchmark/run.py`` at a small input scale.  The test checks that every
metric BENCHMARK.json names is printed with its unit and that every
output check passes.  It has no timing gates.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.1"  # 250 tagged records; 2 TSV files of 25 rows


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("src", "scripts", *SPEC["paths"]):
        shutil.copytree(REPO / part, root / part, ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def run_benchmark(root: Path, workload: str, seed: int, trace: int, scale: str = SCALE):
    cmd = [
        *SPEC["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--scale", scale,
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_checks_pass(checkout, workload, trace):
    proc = run_benchmark(checkout, workload, seed=3, trace=trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = "\n".join(proc.stdout.splitlines()[:-1])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in report


def test_exact_counts_repeat_across_runs_and_seeds(checkout):
    runs = [run_benchmark(checkout, "merged-tsv", seed, trace=1) for seed in (5, 5, 6)]
    results = [json.loads(p.stdout.strip().splitlines()[-1]) for p in runs]
    assert all(r["correct"] for r in results), [p.stderr[-1000:] for p in runs]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
        for r in results
    ]
    assert counts[0] == counts[1]
    for name in ("wos.load_calls", "corpus.records_kept", "corpus.duplicates_skipped",
                 "corpus.excluded_by_filter", "wos.malformed_blocks"):
        assert counts[0][name] == counts[2][name], name


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for part in SPEC["paths"]:
        shutil.copytree(REPO / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, WORKLOADS[0], seed=1, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Self-tests of the benchmark, on small variants of its three workloads.

    python3 -m pytest perfbench

Each variant finishes in seconds.  The corruption tests show that every
output check can fail: a wrong expected value must raise the failure count.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SMALL = ("suite-n2", "census-n3-nd", "analyze-n3-nd")


@pytest.mark.parametrize("name", SMALL)
def test_small_variant_reports_every_end_to_end_metric(name):
    result = run.run(run.WORKLOADS[name], seed=5, seconds=0.3, trace=False)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    machine = result["machine"]
    assert machine["nproc"] >= 1 and machine["numpy"] and len(machine["loadavg_end"]) == 3


@pytest.mark.parametrize("name", SMALL)
def test_small_variant_traced_run_accounts_for_wall_time(name):
    result = run.run(run.WORKLOADS[name], seed=6, seconds=0.6, trace=True)
    assert result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == PER_LAYER
    assert m["cli.calls"] >= 1 and m["cli.self_s"] > 0
    assert abs(m["trace.unaccounted_s"]) < 0.05 * m["trace.wall_s"]
    assert m["omega.sampled_reports"] == 0


def test_traced_counts_match_the_workload():
    result = run.run(run.WORKLOADS["analyze-n3-nd"], seed=2, seconds=0.2, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.calls"] == m["documents.calls"] == 66
    assert m["search.calls"] == m["suite.calls"] == 0
    result = run.run(run.WORKLOADS["census-n3-nd"], seed=2, seconds=0.1, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["search.solutions"] == 66 and m["core.canonical_form.calls"] == 66
    result = run.run(run.WORKLOADS["suite-n2"], seed=2, seconds=0.1, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["search.solutions"] == 1 + 43
    assert m["omega.identity_cases"] > 0


def test_speed_scale_averages_the_samples_around_an_interval():
    sampler = speed.Sampler()
    for at, v in [(0.0, 1.0), (0.4, 2.0), (2.0, 4.0), (10.0, 0.5)]:
        sampler.at.append(at)
        sampler.speed.append(v)
    assert sampler.scale(0.1, 0.2) == 1.5  # widened to [-0.35, 0.65]
    assert sampler.scale(0.0, 3.0) == pytest.approx(7 / 3)
    assert sampler.scale(5.0, 5.1) == 0.5  # no sample in [4.55, 5.55]
    assert sampler.scale(20.0, 21.0) == 0.5


def test_analyze_digest_does_not_depend_on_the_seed():
    digests = {
        d
        for seed in (1, 9)
        for d in run.run(run.WORKLOADS["analyze-n3-nd"], seed, 0.1, False)["digests"]
    }
    expected = json.loads((run.DATA / "analyze-n3-nd.json").read_text())["digest"]
    assert digests == {expected}


@pytest.mark.parametrize("workload", [
    dataclasses.replace(run.WORKLOADS["census-n3-nd"], raw=67),
    dataclasses.replace(run.WORKLOADS["census-n3-nd"], iso=25),
    dataclasses.replace(run.WORKLOADS["suite-n2"], populations={1: 1, 2: 42}),
], ids=["census-raw", "census-iso", "suite-population"])
def test_wrong_expected_count_fails(workload):
    result = run.run(workload, seed=1, seconds=0.1, trace=False)
    assert result["fail_ratio"] > 0


def test_wrong_expected_digest_fails(tmp_path, monkeypatch):
    data = json.loads((run.DATA / "analyze-n3-nd.json").read_text())
    # move one document from the first invariant class to the second
    data["invariants"][0][1] -= 1
    data["invariants"][1][1] += 1
    counts = Counter({run._key(inv): c for inv, c in data["invariants"]})
    data["digest"] = run.digest(counts)
    (tmp_path / "analyze-n3-nd.json").write_text(json.dumps(data))
    shutil.copy(run.DATA / "nd-n3.txt", tmp_path)
    monkeypatch.setattr(run, "DATA", tmp_path)
    result = run.run(run.WORKLOADS["analyze-n3-nd"], seed=1, seconds=0.1, trace=False)
    assert result["failed"] == result["passes"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n3-nd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for about a second, untraced and traced, on one seed,
and checks the output contract, the correctness tally, the input hash, the
span self times and that the oracle is idle outside `oracle`.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
os.makedirs(run.WORK, exist_ok=True)


def _bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            stem = f"{workload}-seed{SEED}-trace{trace}"
            with open(os.path.join(run.RESULTS, stem + ".json"), encoding="utf-8") as fh:
                record = json.load(fh)
            out[workload, trace] = (json.loads(proc.stdout.splitlines()[-1]), record)
    return out


def test_every_metric_is_printed_with_its_unit(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for (workload, trace), (result, _) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        listed = spec["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in listed}, workload
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_nothing_fails(runs):
    for (workload, trace), (result, record) in runs.items():
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1
        if not trace:
            assert record["metrics"]["failed_share"]["value"] == 0, workload


def test_same_seed_same_inputs(runs):
    for workload in workloads.WORKLOADS:
        assert runs[workload, 0][1]["input_sha256"] == runs[workload, 1][1]["input_sha256"]
    sys.path.insert(0, run.SRC)
    lib = run.import_package()
    digests = []
    for seed in (SEED, SEED, SEED + 1):
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            digests.append(workloads.build("decide", seed, lib, run.DATA, workdir)[1])
    assert digests[0] == digests[1] == runs["decide", 0][1]["input_sha256"]
    assert digests[2] != digests[0]


def test_span_self_time_within_duration(runs):
    for workload in workloads.WORKLOADS:
        path = os.path.join(run.RESULTS, f"{workload}-seed{SEED}-trace1.spans.jsonl.gz")
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        assert spans, workload
        for name, start, end, _, _, own in spans:
            assert 0 <= own <= end - start, name


def test_oracle_idle_outside_oracle(runs):
    for workload in ("decide", "exhaust"):
        metrics = runs[workload, 1][1]["metrics"]
        calls = {k: v["value"] for k, v in metrics.items()
                 if k.startswith("section_oracle.") and k.endswith(".calls")}
        assert calls and not any(calls.values()), calls
    metrics = runs["oracle", 1][1]["metrics"]
    assert metrics["section_oracle.load_oracle.calls"]["value"] == 1


def test_refuses_without_source_tree():
    # inside the checkout, since the benchmark writes nowhere else
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
        proc = _bench(bare, "decide", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

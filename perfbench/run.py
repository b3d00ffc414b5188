#!/usr/bin/env python3
"""Benchmark of ncample: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
src/ of that checkout and driven in process through its public entry
points, so interpreter start-up stays out of the timings.  Set-up (import,
input generation from the seed and one untimed warm-up pass) is repeated
SETUP_REPEATS times and reported as the median.  The measurement then
cycles through the workload's operations in whole passes for about
--seconds seconds; the timings come from the slowest passes (see
slowest_passes), and every distinct output is checked once, outside the
timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with the tracer installed, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a run record (and, when
traced, the spans) goes to perfbench/results/.  Without a source tree the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from collections import Counter

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 3

UNITS = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "decisive_share": "fraction",
    "failed_share": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_package():
    """A fresh import of the package from SRC, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "ncample" or n.startswith("ncample.")]:
        del sys.modules[name]
    modules = {short: importlib.import_module("ncample." + mod) for short, mod in
               (("cli", "cli"), ("bs", "bimodule_system"), ("so", "section_oracle"))}
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"ncample was not imported from {SRC}")
    return types.SimpleNamespace(**modules)


def run_op(lib, op):
    start = time.perf_counter_ns()
    try:
        outcome = op.run(lib)
    except Exception as exc:  # an escaped exception fails this operation only
        outcome = {"code": None, "exception": f"{type(exc).__name__}: {exc}"}
    return outcome, (time.perf_counter_ns() - start) / 1e9


def _label(outcome) -> str:
    """Verdict kind, or what else the operation returned, for the tally."""
    if "exception" in outcome:
        return "exception"
    if "value" in outcome:
        return str(outcome["value"])
    payload = outcome["payloads"][-1]
    if "kind" in payload:
        return payload["kind"]
    return next((key for key in ("gk", "scheme", "error") if key in payload), "other")


class Tally:
    """Outcomes of one phase; checks each distinct output once."""

    def __init__(self, verdicts: dict):
        self.verdicts = verdicts  # fingerprint -> error or None, shared
        self.attempted = self.failed = self.decisive = 0
        self.labels: Counter = Counter()
        self.codes: Counter = Counter()
        self.failures: list = []

    def record(self, op, outcome) -> None:
        if "exception" in outcome:
            error = outcome["exception"]
        else:
            blob = json.dumps([op.key, outcome], sort_keys=True, default=str)
            fingerprint = hashlib.sha1(blob.encode()).hexdigest()
            if fingerprint not in self.verdicts:
                self.verdicts[fingerprint] = op.check(outcome)
            error = self.verdicts[fingerprint]
        self.attempted += 1
        self.labels[_label(outcome)] += 1
        self.codes[str(outcome["code"])] += 1
        if error:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append({"op": op.key, "error": error})
        elif outcome["code"] != 2:
            self.decisive += 1


def measure(lib, ops, seconds, tally, tracer=None):
    """Whole passes over ops until about `seconds` of operation time.

    Stops before a pass that would end more than half a pass late, so every
    operation runs equally often.  Returns the latencies, in pass order, and
    the pass durations.
    """
    latencies, passes = [], []
    while True:
        busy = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = len(latencies)
            outcome, took = run_op(lib, op)
            latencies.append(took)
            busy += took
            tally.record(op, outcome)
        passes.append(busy)
        if sum(passes) + busy / 2 >= seconds:
            return latencies, passes


def slowest_passes(latencies, passes, per_pass):
    """Latencies of the slowest tenth of the passes, at least 100 of them.

    The host's speed swings by up to 2x over tens of seconds as other
    tenants come and go, and keeps returning to the same floor; figures
    taken over the slowest passes vary about half as much between runs.
    """
    count = max(-(-len(passes) // 10), -(-100 // per_pass))
    slow = sorted(range(len(passes)), key=passes.__getitem__, reverse=True)[:count]
    return [t for i in sorted(slow) for t in latencies[i * per_pass:(i + 1) * per_pass]]


def throughput(latencies) -> float:
    """Operations per second of operation time."""
    return len(latencies) / sum(latencies)


def percentile90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def bench(args, workdir):
    verdicts: dict = {}
    warm = Tally(verdicts)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_package()
        ops, digest = workloads.build(args.workload, args.seed, lib, DATA, workdir)
        generated = time.perf_counter() - start
        outcomes = [run_op(lib, op) for op in ops]
        setup_s.append(generated + sum(took for _, took in outcomes))
        for op, (outcome, _) in zip(ops, outcomes):
            warm.record(op, outcome)

    tally = Tally(verdicts)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "ops_per_pass": len(ops), "input_sha256": digest, "setup_s": setup_s,
    }
    if args.trace:
        latencies, passes = measure(lib, ops, args.seconds / 2, tally)
        untraced = throughput(slowest_passes(latencies, passes, len(ops)))
        tracer = Tracer()
        tracer.install()
        try:
            latencies, passes = measure(lib, ops, args.seconds / 2, tally, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(latencies), sum(latencies))
        traced = throughput(slowest_passes(latencies, passes, len(ops)))
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        tracer.write(os.path.join(RESULTS, _stem(args) + ".spans.jsonl.gz"))
        record["spans"] = len(tracer.spans)
    else:
        latencies, passes = measure(lib, ops, args.seconds, tally)
        slow = slowest_passes(latencies, passes, len(ops))
        record["all_passes"] = {
            "throughput_ops_per_s": throughput(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": percentile90(latencies) * 1e3,
        }
        record["slow_samples"] = len(slow)
        record["pass_s"] = passes
        values = {
            "throughput_ops_per_s": throughput(slow),
            "latency_p50_ms": statistics.median(slow) * 1e3,
            "latency_p90_ms": percentile90(slow) * 1e3,
            "decisive_share": tally.decisive / tally.attempted,
            "failed_share": tally.failed / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
        metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    record.update({
        "passes": len(passes), "samples": len(latencies),
        "op_ms_mean": sum(latencies) / len(latencies) * 1e3,
        "op_ms_median_by_key": {op.key: statistics.median(latencies[i::len(ops)]) * 1e3
                                for i, op in enumerate(ops)},
        "attempted": tally.attempted, "failed": tally.failed,
        "warmup_failed": warm.failed, "failures": warm.failures + tally.failures,
        "labels": dict(tally.labels), "exit_codes": dict(tally.codes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return record


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (os.path.isfile(os.path.join(SRC, "ncample", "__init__.py"))
            and os.path.isdir(DATA)):
        print(f"perfbench: no ncample source tree (src/ncample, data/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=_stem(args) + "-", dir=WORK)
    try:
        record = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(RESULTS, _stem(args) + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"{args.workload} seed {args.seed}: {record['samples']} operations in "
          f"{record['passes']} passes of {record['ops_per_pass']}, inputs "
          f"{record['input_sha256'][:16]}, outcomes {record['labels']}")
    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {failure['error']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<56} {metric['value']:.6g} {metric['unit']}")
    failed = record["failed"] + record["warmup_failed"]
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: v for k, v in record["metrics"].items() if k in wanted(args.trace)},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def wanted(trace: int) -> set[str]:
    """Metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())

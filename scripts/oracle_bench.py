"""Stress the brute-force section oracle against the numerical engine.

For each data/ document carrying an oracle member this counts monomial
bases grade by grade, compares them with the intersection-theory dimension
count, samples random associativity triples, and runs the opposite-ring
and reordering-coherence checks.

Usage: python scripts/oracle_bench.py [--range N] [--samples K] [--seed S]
"""

import argparse
import json
import os
import time

from ncample.bimodule_system import load_system
from ncample.section_oracle import cross_validate, load_oracle

DEFAULT_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def bench(path: str, grade_range: int, samples: int, seed: int) -> bool:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    system = load_system(doc)
    ring = load_oracle(doc)
    started = time.monotonic()
    report = cross_validate(
        ring, system, grade_range=grade_range, samples=samples,
        opposite_samples=max(10, samples // 10), seed=seed,
        triple=tuple(i % ring.s for i in range(3)))
    elapsed = time.monotonic() - started
    match = report["hilbert"]
    status = "ok" if report["ok"] else "MISMATCH"
    print(f"{os.path.basename(path):<26} grades={match['checked']:<4} "
          f"skipped={match['skipped']:<3} "
          f"assoc_bad={report['associativity']['failures']:<3} "
          f"opposite={'y' if report['opposite_ok'] else 'N'} "
          f"hexagon={'y' if report['bergman_ok'] else 'N'} "
          f"{elapsed * 1000:6.0f} ms  {status}")
    return report["ok"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--range", type=int, default=4, dest="grade_range")
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data", default=DEFAULT_DATA)
    args = parser.parse_args()

    all_ok = True
    found = 0
    for name in sorted(os.listdir(args.data)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.data, name)
        with open(path, encoding="utf-8") as fh:
            if "oracle" not in json.load(fh):
                continue
        found += 1
        all_ok = bench(path, args.grade_range, args.samples, args.seed) and all_ok
    if not found:
        print(f"no documents with an oracle member under {args.data}")
        return 1
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

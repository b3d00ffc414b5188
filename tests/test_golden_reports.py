"""Replay the CLI on every data/ document and compare whole run reports
with the committed golden file.

Each case is one cli.run call: its exit code and its report, with
timing_ms removed and paths relative to the repository root.  A change
that alters any verdict, certificate, class, growth report or oracle
comparison on data/ fails here.  After an intended output change,
regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and review its diff.
"""

import functools
import json
import os

import pytest

from ncample import cli

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
GOLDEN = os.path.join(ROOT, "tests", "golden_reports.json")


def golden_argvs() -> list[list[str]]:
    """Every replayed command line, with data/ paths relative to ROOT."""
    argvs = []
    for name in sorted(os.listdir(os.path.join(ROOT, "data"))):
        if not name.endswith(".json"):
            continue
        path = "data/" + name
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            doc = json.load(fh)
        ones = ",".join(["1"] * len(doc["bimodules"]))
        twos = ",".join(["2"] * len(doc["bimodules"]))
        argvs += [["validate", path], ["verdict", path],
                  ["verdict", path, "--bound", "4"], ["verdict", path, "--single"],
                  ["gk", path], ["class", path, "--at", ones],
                  ["dual", path], ["veronese", path, "--strides", twos],
                  ["rees", path], ["tensor", path, "data/p1-O1.json"]]
        if "oracle" in doc:
            argvs += [["oracle", "compare", path, "--range", "3", "--seed", seed]
                      for seed in ("0", "1")]
    return argvs


def replay(argv: list[str]) -> dict:
    """Exit code and report of one run from ROOT, without its timing."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        code, report = cli.run(argv)
    finally:
        os.chdir(cwd)
    report.pop("timing_ms")
    # through JSON, so tuples compare as the lists they are written as
    return json.loads(json.dumps({"argv": argv, "code": code, "report": report}))


@functools.cache
def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {" ".join(case["argv"]): case for case in json.load(fh)}


def test_golden_file_covers_every_command():
    assert sorted(load_golden()) == sorted(" ".join(a) for a in golden_argvs())


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_report_matches_golden(argv):
    assert replay(argv) == load_golden()[" ".join(argv)]


if __name__ == "__main__":
    cases = [json.dumps(replay(argv), sort_keys=True, separators=(",", ":"))
             for argv in golden_argvs()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(cases) + "\n]\n")

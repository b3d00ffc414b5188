"""Seeded mutation fuzzing of the command line over data/.

Each case replaces one or two leaves of a data/ document with a value from
a fixed list of junk and runs the everyday commands on it through cli.run.
A run may accept the document or refuse it, but it must return exit code
0, 1 or 2 with a report: no exception may escape, and no run may hang.
"""

import copy
import json
import os
import random
import signal

from ncample import cli

DATA = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))
SEED = 20261020
MUTATIONS = 300
SECONDS_PER_RUN = 10

JUNK = (-2, -1, 0, 1, 2, 3, 10 ** 6, -10 ** 6, "2", "-1", "x", "", "1/2", "0/0",
        1.5, True, None, [], [1], [[1]], {})


def documents() -> dict[str, dict]:
    out = {}
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".json"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                out[name] = json.load(fh)
    return out


def leaves(value, path=()):
    """The path of every scalar and empty container in a document."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from leaves(item, path + (index,))
    else:
        yield path


def mutated(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    paths = list(leaves(doc))
    for path in rng.sample(paths, min(len(paths), rng.choice((1, 2)))):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = copy.deepcopy(rng.choice(JUNK))
    return doc


def commands(path: str, s: int) -> list[list[str]]:
    """The everyday commands on a document of s bundles."""
    return [["validate", path], ["verdict", path], ["verdict", path, "--single"],
            ["gk", path], ["class", path, "--at", ",".join(["1"] * s)],
            ["dual", path], ["veronese", path, "--strides", ",".join(["2"] * s)],
            ["oracle", "compare", path, "--range", "2"]]


def seeded_cases() -> list[tuple[str, dict]]:
    rng = random.Random(SEED)
    docs = documents()
    names = sorted(docs)
    cases = []
    for i in range(MUTATIONS):
        name = names[i % len(names)]
        cases.append((f"{name}#{i}", mutated(docs[name], rng)))
    return cases


def listed_cases() -> list[tuple[str, dict]]:
    """Documents that once ended in a traceback or ran for minutes."""
    docs = documents()
    negative = docs["swap-ring.json"]
    negative["bimodules"][0]["divisor"] = [-1, 0]
    steep = docs["p1-O1.json"]
    steep["euler"] = [{"coeff": "1", "exponents": [10 ** 6]}]
    return [("swap-ring with a negative divisor", negative),
            ("p1-O1 with Euler degree 10^6", steep)]


class RunTooLong(Exception):
    pass


def _alarm(signum, frame):
    raise RunTooLong(f"a run took more than {SECONDS_PER_RUN} s")


def test_no_exception_escapes(tmp_path):
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for label, doc in listed_cases() + seeded_cases():
            path = str(tmp_path / "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            bundles = doc.get("bimodules")
            s = len(bundles) if isinstance(bundles, list) and bundles else 1
            for argv in commands(path, s):
                signal.alarm(SECONDS_PER_RUN)
                try:
                    code, report = cli.run(argv)
                except Exception as exc:
                    raise AssertionError(f"{label}: {argv[0]} raised {exc!r}\n"
                                         f"{json.dumps(doc)}") from exc
                finally:
                    signal.alarm(0)
                assert code in (0, 1, 2), (label, argv)
                assert "payload" in report, (label, argv)
    finally:
        signal.signal(signal.SIGALRM, previous)

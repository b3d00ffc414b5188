"""The three workloads: operations made from a seed, each with its check.

An operation runs in process through the package's public entry points.
``decide`` and ``exhaust`` call ``ncample.cli.run(argv)`` on documents
written to the run's work directory; ``oracle`` calls the public functions
of ``ncample.section_oracle`` on parsed documents.  The seed fills in the
parameters of a fixed list of slots, so every seed gives the same mix of
input shapes and the figures of two seeds can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# Growth exponents of the data/ documents, None where gk must refuse (the
# system is not NC-ample).  With finite-order actions the dimension count
# has degree dim in the grades and the box sum adds one per bundle, so
# gk = dim + s; the shear in unipotent-warning makes the class quadratic in
# n, which gives degree 3 and gk 4.
DATA_GK = {
    "builtin-pair": 4,
    "diagonal-triple": 4,
    "fibonacci-abelian": None,
    "p1-L-Linv": None,
    "p1-O1": 2,
    "parabolic-p1": 2,
    "swap-ring": 3,
    "trivial-triple": 5,
    "unipotent-warning": 4,
}

# Scheme members of the builtin models, written out so that the inputs do
# not come from the package under test.
SCHEMES = {
    "P1": {"name": "P1", "dim": 1, "rho": 1, "ample_cone": [[1]],
           "euler": [{"coeff": "1", "exponents": [1]},
                     {"coeff": "1", "exponents": [0]}]},
    "P1xP1": {"name": "P1xP1", "dim": 2, "rho": 2,
              "ample_cone": [[1, 0], [0, 1]],
              "euler": [{"coeff": "1", "exponents": [1, 1]},
                        {"coeff": "1", "exponents": [0, 1]},
                        {"coeff": "1", "exponents": [1, 0]},
                        {"coeff": "1", "exponents": [0, 0]}]},
    "P2": {"name": "P2", "dim": 2, "rho": 1, "ample_cone": [[1]],
           "euler": [{"coeff": "1/2", "exponents": [2]},
                     {"coeff": "3/2", "exponents": [1]},
                     {"coeff": "1", "exponents": [0]}]},
    "AbelianSurfaceHyperbolic": {
        "name": "AbelianSurfaceHyperbolic", "dim": 2, "rho": 2,
        "ample_cone": [[1, 0], [0, 1]],
        "euler": [{"coeff": "1", "exponents": [1, 1]}]},
}

# one-bundle data documents tensored in `decide`; the seed picks the order
TENSOR_PAIRS = (("p1-O1", "swap-ring"), ("swap-ring", "unipotent-warning"),
                ("parabolic-p1", "fibonacci-abelian"), ("unipotent-warning", "p1-O1"),
                ("swap-ring", "parabolic-p1"), ("fibonacci-abelian", "p1-O1"))

SHEAR = [[1, 1], [0, 1]]
# c values for the shear systems of `exhaust`, kept well inside the regions
# the default bound 16 decides (c <= 30 at s = 2, c <= 40 at s = 3) and
# leaves Undetermined (c >= 40 and c >= 50), so the undecided share is the
# same on every seed.
DECIDED_C = (2, 24)
UNDECIDED_C = (64, 256)


@dataclass
class Op:
    """One operation: ``run(lib)`` does the work, ``check`` judges it.

    ``run`` returns an outcome dict with an exit ``code`` (2 means honest
    indecision) and the report payloads; ``check`` maps that outcome to an
    error message or None.
    """

    key: str
    run: Callable[[object], dict]
    check: Callable[[dict], str | None]


class Inputs:
    """Documents of one run: data/ files read, generated ones written."""

    def __init__(self, data_dir: str, workdir: str):
        self.data_dir = data_dir
        self.workdir = workdir
        self.files: dict[str, bytes] = {}

    def data(self, name: str) -> tuple[str, dict]:
        path = os.path.join(self.data_dir, name + ".json")
        with open(path, "rb") as fh:
            raw = fh.read()
        self.files["data/" + name] = raw
        return path, json.loads(raw)

    def write(self, name: str, doc: dict) -> str:
        raw = json.dumps(doc, sort_keys=True).encode()
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(raw)
        self.files[name] = raw
        return path

    def read(self, path: str) -> dict:
        with open(path, "rb") as fh:
            raw = fh.read()
        self.files[os.path.relpath(path, self.workdir)] = raw
        return json.loads(raw)

    def digest(self, ops) -> str:
        h = hashlib.sha256()
        for op in ops:
            h.update(op.key.encode() + b"\0")
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()


def _cli(lib, argv):
    # refusals print one line to the diagnostic stream; keep it off the
    # benchmark's own output
    with contextlib.redirect_stderr(io.StringIO()):
        code, report = lib.cli.run(argv)
    return code, report.get("payload", {})


def cli_op(key: str, steps, check) -> Op:
    """Command lines run like a shell `&&` chain; the last exit code counts."""

    def run(lib):
        payloads = []
        for argv in steps:
            code, payload = _cli(lib, argv)
            payloads.append(payload)
            if code != 0:
                break
        return {"code": code, "payloads": payloads}

    return Op(key, run, check)


def _verdict_check(doc, allowed=None):
    return lambda out: checks.verdict_error(
        doc, out["code"], out["payloads"][-1], allowed)


def _gk_check(expected):
    return lambda out: checks.gk_error(out["code"], out["payloads"][-1], expected)


def _pipeline_op(key, inputs, path, command, built_error, gk=None):
    """`ncample <command> path --emit out && ncample verdict out`, or `gk out`
    when the expected growth ``gk`` is given.

    ``built_error`` judges the emitted document; the verdict is re-checked
    against that document.
    """
    out = os.path.join(inputs.workdir, key.replace(":", "-") + ".out.json")

    def check(outcome):
        payloads = outcome["payloads"]
        if len(payloads) < 2:
            return f"{command[0]} exit {outcome['code']}: {payloads[0]}"
        built = payloads[0]["document"]
        err = built_error(built)
        if err or gk is not None:
            return err or checks.gk_error(outcome["code"], payloads[1], gk)
        return checks.verdict_error(built, outcome["code"], payloads[1])

    steps = [[command[0], path, *command[1:], "--emit", out],
             ["verdict" if gk is None else "gk", out]]
    return cli_op(key, steps, check)


def _permutation_matrix(perm):
    # lattice action of a factor permutation: row j has its 1 in the column
    # of the factor k with perm[k] == j
    d = len(perm)
    return [[int(perm[k] == j) for k in range(d)] for j in range(d)]


def _family_doc(rng: random.Random, scheme: str, s: int, family: int,
                negative: bool) -> dict:
    """One commuting system from the three always-valid sweep families.

    Entries are nonzero and a permuted divisor never has a zero orbit sum,
    so no class sits on the cone boundary and every verdict is decisive;
    boundary cases belong to `exhaust`.  With ``negative`` the first bundle
    carries a negative entry.  The slots alternate it, so each slot ends in
    the same verdict kind on every seed.  In families 0 and 2 the negative
    entry outweighs the other bundles together, so the first ray of the
    positivity search already certifies the failure and the cost of the
    slot does not hang on how far the ray loop runs.
    """
    doc = dict(SCHEMES[scheme])
    rho = doc["rho"]
    sign = -1 if negative else 1
    heavy = -(3 * s - 2) if negative else None

    def perm_action():
        # a nontrivial permutation where there is one, so the number of
        # residue branches is the same on every seed
        perm = list(range(rho))
        while rho > 1 and perm == sorted(perm):
            rng.shuffle(perm)
        return _permutation_matrix(perm)

    if family == 0:
        # independent divisors, identity actions
        ident = checks.identity(rho)
        divisors = [[rng.choice((1, 2, 3)) for _ in range(rho)] for _ in range(s)]
        divisors[0][0] = heavy or divisors[0][0]
        pairs = [(div, ident) for div in divisors]
    elif family == 1:
        # one shared permutation, divisors differing by invariant shifts
        action = perm_action()
        base = [sign] + [rng.choice((1, 2)) for _ in range(rho - 1)]
        while sum(base) == 0:
            base[1:] = [rng.choice((1, 2)) for _ in range(rho - 1)]
        offsets = [0] + [rng.choice((0, 2)) for _ in range(s - 1)]
        pairs = [([b + off for b in base], action) for off in offsets]
    else:
        # invariant divisors, independent odd powers of one permutation
        action = perm_action()
        levels = [heavy or rng.choice((1, 2))] + \
            [rng.choice((1, 2)) for _ in range(s - 1)]
        pairs = [([level] * rho, checks.mat_pow(action, rng.choice((1, 3))))
                 for level in levels]
    doc["bimodules"] = [{"divisor": d, "matrix": m} for d, m in pairs]
    return doc


def build_decide(seed: int, lib, inputs: Inputs) -> list[Op]:
    """The README's commands on data/, tensor powers and sweep families."""
    rng = random.Random(f"{seed}:decide")
    ops = []
    docs = {name: inputs.data(name) for name in sorted(DATA_GK)}
    for name, (path, doc) in docs.items():
        gk = DATA_GK[name]
        ops.append(cli_op(f"verdict:{name}", [["verdict", path]],
                          _verdict_check(doc)))
        if gk is not None:
            ops.append(cli_op(f"gk:{name}", [["gk", path]], _gk_check(gk)))
        ops.append(_pipeline_op(
            f"dual-verdict:{name}", inputs, path, ["dual"],
            lambda built, doc=doc: checks.dual_error(doc, built)))
        strides = [rng.randint(1, 3) for _ in doc["bimodules"]]
        ops.append(_pipeline_op(
            f"veronese-verdict:{name}:{strides}", inputs, path,
            ["veronese", "--strides", ",".join(map(str, strides))],
            lambda built, doc=doc, strides=strides:
                checks.veronese_error(doc, built, strides)))
        if len(doc["bimodules"]) == 1:
            def rees_error(built, doc=doc):
                return checks.rees_error(doc, built)
            ops.append(_pipeline_op(f"rees-verdict:{name}", inputs, path,
                                    ["rees"], rees_error))
            if gk is not None:
                ops.append(_pipeline_op(f"rees-gk:{name}", inputs, path,
                                        ["rees"], rees_error, gk=gk + 1))
    for pair in TENSOR_PAIRS:
        a, b = rng.sample(pair, 2)
        (path_a, doc_a), (path_b, doc_b) = docs[a], docs[b]
        ops.append(_pipeline_op(
            f"tensor-verdict:{a}:{b}", inputs, path_a, ["tensor", path_b],
            lambda built, doc_a=doc_a, doc_b=doc_b:
                checks.tensor_error(doc_a, doc_b, built)))
    for base in ("p1-O1", "swap-ring"):
        path, doc = docs[base]
        prev_path, prev = path, doc
        for s in range(2, 5):
            power = os.path.join(inputs.workdir, f"{base}-power{s}.json")
            code, payload = _cli(lib, ["tensor", prev_path, path, "--emit", power])
            if code != 0:
                raise RuntimeError(f"tensor power {base}^{s}: exit {code}: {payload}")
            built = inputs.read(power)
            err = checks.tensor_error(prev, doc, built)
            if err:
                raise RuntimeError(f"tensor power {base}^{s}: {err}")
            ops.append(cli_op(f"verdict:{base}^{s}", [["verdict", power]],
                              _verdict_check(built)))
            ops.append(cli_op(f"gk:{base}^{s}", [["gk", power]],
                              _gk_check(s * DATA_GK[base])))
            prev_path, prev = power, built
    slots = itertools.product(SCHEMES, (1, 2, 3), (0, 1, 2))
    for i, (scheme, s, family) in enumerate(slots):
        slot = f"{scheme}-s{s}-f{family}"
        doc = _family_doc(random.Random(f"{seed}:{slot}"), scheme, s, family,
                          negative=i % 2 == 1)
        path = inputs.write(slot, doc)
        ops.append(cli_op(f"verdict:{slot}", [["verdict", path]],
                          _verdict_check(doc)))
        ops.append(_pipeline_op(
            f"dual-verdict:{slot}", inputs, path, ["dual"],
            lambda built, doc=doc: checks.dual_error(doc, built)))
    return ops


def _cone_doc(name: str, rows) -> dict:
    rho = len(rows[0])
    return {"name": name, "dim": rho, "rho": rho, "ample_cone": rows,
            "euler": [{"coeff": "1", "exponents": [0] * rho}]}


def build_exhaust(seed: int, lib, inputs: Inputs) -> list[Op]:
    """Searches that run to their limit: the bound^s rays and the cone box."""
    rng = random.Random(f"{seed}:exhaust")
    ops = []
    allowed = {"NCAmple", "Undetermined"}
    # the three undecided s = 3 systems are the slowest tenth of a pass
    # after the rho = 4 empty cone, so latency_p90_ms falls among them
    slots = [(2, DECIDED_C, 6), (2, UNDECIDED_C, 6),
             (3, DECIDED_C, 4), (3, UNDECIDED_C, 3)]
    for s, (lo, hi), count in slots:
        for i in range(count):
            c = rng.randint(lo, hi)
            doc = dict(SCHEMES["P1xP1"])
            # one bundle (-c, 1) and s - 1 bundles (1, 1), all sheared: the
            # classes commute because they differ by a shear-fixed vector
            doc["bimodules"] = [{"divisor": [-c, 1], "matrix": SHEAR}] + \
                [{"divisor": [1, 1], "matrix": SHEAR}] * (s - 1)
            path = inputs.write(f"shear-s{s}-{i}-c{c}", doc)
            ops.append(cli_op(f"verdict:shear-s{s}-{i}-c{c}",
                              [["verdict", path]], _verdict_check(doc, allowed)))
    for rho, count in ((3, 3), (4, 1)):
        for i in range(count):
            r = [0] * rho
            while not any(r):
                r = [rng.randint(-2, 2) for _ in range(rho)]
            rows = [r, [-x for x in r]] + \
                [[rng.randint(-2, 2) for _ in range(rho)] for _ in range(2)]
            rng.shuffle(rows)
            path = inputs.write(f"empty-rho{rho}-{i}", _cone_doc("empty", rows))
            ops.append(cli_op(f"validate:empty-rho{rho}-{i}",
                              [["validate", path]],
                              lambda out: checks.empty_cone_error(
                                  out["code"], out["payloads"][-1])))
    for rho, k in itertools.product((3, 4), (1, 2, 3)):
        # k y < x < (k + 1) y first holds at (x, y) = (2k + 1, 2), so the
        # interior search runs out to max-norm shell 2k + 1
        thin = [[1, -k] + [0] * (rho - 2), [-1, k + 1] + [0] * (rho - 2)]
        rows = thin + [[int(j == i) for j in range(rho)] for i in range(2, rho)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            rows.append([a * x + b * y for x, y in zip(*thin)])
        rng.shuffle(rows)
        doc = _cone_doc("thin", rows)
        path = inputs.write(f"thin-rho{rho}-k{k}", doc)
        ops.append(cli_op(f"validate:thin-rho{rho}-k{k}", [["validate", path]],
                          lambda out, doc=doc: checks.interior_error(
                              doc, out["code"], out["payloads"][-1])))
    return ops


def _p1_power_doc(d: int) -> dict:
    return {"name": f"P1^{d}", "dim": d, "rho": d,
            "ample_cone": checks.identity(d),
            "euler": [{"coeff": "1", "exponents": list(e)}
                      for e in itertools.product((1, 0), repeat=d)]}


def _ring_doc(rng: random.Random, d: int, s: int) -> dict:
    """Commuting twists of a product of d lines: powers of one factor
    permutation, each followed by the same diagonal Moebius map on every
    factor, so any two of them commute projectively.  The divisors are all
    (1, ..., 1) and the Moebius maps all diag(+-2, 1), so graded pieces and
    their coefficients have the same size on every seed, and the seed
    changes the twists only."""
    perm = list(range(d))
    rng.shuffle(perm)
    doc = _p1_power_doc(d)
    doc["bimodules"] = []
    autos = []
    for _ in range(s):
        power = list(range(d))
        for _ in range(rng.randint(0, 3)):
            power = [perm[k] for k in power]
        a = rng.choice((2, -2))
        autos.append({"perm": [p + 1 for p in power],
                      "mobius": [[[str(a), "0"], ["0", "1"]]] * d})
        doc["bimodules"].append({"divisor": [1] * d,
                                 "matrix": _permutation_matrix(power)})
    doc["oracle"] = {"d": d, "automorphisms": autos}
    return doc


def oracle_op(key: str, doc: dict, step) -> Op:
    """Load the ring from its document and run one cross-validation step."""

    def run(lib):
        ok = bool(step(lib, doc))
        return {"code": 0 if ok else 1, "value": ok}

    return Op(key, run, lambda out: None if out["value"] else "check returned False")


def _hilbert(upto):
    def step(lib, doc):
        ring = lib.so.load_oracle(doc)
        return lib.so.hilbert_match(ring, lib.bs.load_system(doc), upto).ok
    return step


def _associativity(grades, seed):
    def step(lib, doc):
        ring = lib.so.load_oracle(doc)
        rng = random.Random(seed)
        a, b, c = (ring.random_element(g, rng) for g in grades)
        lhs = ring.multiply(ring.multiply(a, b), c)
        rhs = ring.multiply(a, ring.multiply(b, c))
        return lhs.grade == rhs.grade and lhs.section == rhs.section
    return step


def _opposite_seed(rng: random.Random, s: int) -> int:
    """A seed for opposite_check whose two grades both have total 1.

    The check draws the grades n and m of its sample first, 2s draws of
    0 or 1, and its cost grows as the product of the two piece sizes, so a
    fixed total keeps the step's cost the same on every seed.
    """
    while True:
        seed = rng.randrange(2 ** 32)
        draws = random.Random(seed)
        n, m = ([draws.randint(0, 1) for _ in range(s)] for _ in range(2))
        if sum(n) == sum(m) == 1:
            return seed


def _opposite(seed):
    def step(lib, doc):
        ring = lib.so.load_oracle(doc)
        return lib.so.opposite_check(ring, max_grade_entry=1, samples=1,
                                     seed=seed)
    return step


def _bergman(triple):
    def step(lib, doc):
        return lib.so.bergman_check(lib.so.load_oracle(doc), triple)
    return step


def _spread(rng: random.Random, s: int, total: int) -> tuple[int, ...]:
    grade = [0] * s
    for _ in range(total):
        grade[rng.randrange(s)] += 1
    return tuple(grade)


def build_oracle(seed: int, lib, inputs: Inputs) -> list[Op]:
    """Single cross-validation steps on oracle documents and seeded rings.

    Every ring appears twice with its own seeded grades and samples, so the
    cost of a pass averages over more draws.
    """
    rng = random.Random(f"{seed}:oracle")
    rings = []
    for name in sorted(DATA_GK):
        _, doc = inputs.data(name)
        if "oracle" in doc:
            rings += [(f"{name}.{copy}", doc) for copy in range(2)]
    for d, s, copy in itertools.product((2, 3), (1, 2, 3), range(2)):
        slot = f"ring-d{d}-s{s}.{copy}"
        doc = _ring_doc(random.Random(f"{seed}:{slot}"), d, s)
        inputs.write(slot, doc)
        rings.append((slot, doc))
    ops = []
    for name, doc in rings:
        s = len(doc["bimodules"])
        # a product's size is the product of the factors' piece sizes, so
        # the grades have fixed totals and the seed only spreads them over
        # the bundles; opposite_check draws its own grades, entries <= 1
        upto = 3 if s < 3 else 2
        grades = [_spread(rng, s, total)
                  for total in ((2, 1, 2) if s == 1 else (2, 1, 1))]
        sample_seed = rng.randrange(2 ** 32)
        opposite_seed = _opposite_seed(rng, s)
        triple = tuple(rng.randrange(s) for _ in range(3))
        ops += [
            oracle_op(f"hilbert:{name}:{upto}", doc, _hilbert(upto)),
            oracle_op(f"assoc:{name}:{grades}:{sample_seed}", doc,
                      _associativity(grades, sample_seed)),
            oracle_op(f"opposite:{name}:{opposite_seed}", doc,
                      _opposite(opposite_seed)),
            oracle_op(f"bergman:{name}:{triple}", doc, _bergman(triple)),
        ]
    return ops


WORKLOAD_OPS = {"decide": build_decide, "exhaust": build_exhaust,
                "oracle": build_oracle}
WORKLOADS = tuple(WORKLOAD_OPS)


def build(workload: str, seed: int, lib, data_dir: str, workdir: str):
    """Operations in the seeded order the closed loop cycles through, and
    the sha256 of every input they read."""
    inputs = Inputs(data_dir, workdir)
    ops = WORKLOAD_OPS[workload](seed, lib, inputs)
    random.Random(f"{seed}:{workload}:order").shuffle(ops)
    return ops, inputs.digest(ops)

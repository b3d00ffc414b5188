"""Shared golden systems and the seeded random corpus used across the suite,
and a runner for scripts under python -O.

Corpus actions are restricted to lattice actions of honest automorphisms of
the host models (factor permutations, identities, and the hyperbolic matrix
on the abelian-surface model for quasi-unipotence failures).  Divisor and
matrix entries stay within [-3, 3].
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from functools import lru_cache

from ncample.bimodule_system import BimoduleSystem, make_system
from ncample.lattice_algebra import Matrix
from ncample.scheme_model import builtin_scheme, p1_power_scheme

SEED = 20260816


def run_optimized(script: str) -> list[str]:
    """Run script under python -O, which strips asserts, against this
    checkout's src/, and return the words it printed."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def perm_matrix(perm) -> Matrix:
    d = len(perm)
    rows = []
    for j in range(d):
        row = [0] * d
        row[perm.index(j)] = 1
        rows.append(row)
    return Matrix.from_rows(rows)


def _cycle(d: int) -> tuple[int, ...]:
    return tuple((k + 1) % d for k in range(d))


def _transposition(d: int) -> tuple[int, ...]:
    perm = list(range(d))
    perm[0], perm[1] = perm[1], perm[0]
    return tuple(perm)


IDENT = {d: Matrix.identity(d) for d in (1, 2, 3)}
SWAP = perm_matrix((1, 0))
FIB = Matrix.from_rows([[2, 1], [1, 1]])


def golden_pair() -> BimoduleSystem:
    scheme = builtin_scheme("P1xP1")
    return make_system(scheme, [((1, 0), IDENT[2]), ((0, 1), IDENT[2])])


def golden_line_and_inverse() -> BimoduleSystem:
    scheme = builtin_scheme("P1")
    return make_system(scheme, [((1,), IDENT[1]), ((-1,), IDENT[1])])


def golden_single_line() -> BimoduleSystem:
    return make_system(builtin_scheme("P1"), [((1,), IDENT[1])])


def golden_swap() -> BimoduleSystem:
    return make_system(builtin_scheme("P1xP1"), [((1, 0), SWAP)])


def golden_fibonacci() -> BimoduleSystem:
    scheme = builtin_scheme("AbelianSurfaceHyperbolic")
    return make_system(scheme, [((1, 1), FIB)])


def golden_warning() -> BimoduleSystem:
    scheme = builtin_scheme("P1xP1")
    return make_system(scheme, [((1, 1), Matrix.from_rows([[1, 1], [0, 1]]))])


def _rand_divisor(rng, d, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(d))


def _identity_family(rng, count):
    """Arbitrary divisors, identity actions."""
    out = []
    for _ in range(count):
        d = rng.choice((1, 2, 2, 3))
        s = rng.randint(1, 3)
        scheme = p1_power_scheme(d)
        out.append(make_system(
            scheme, [(_rand_divisor(rng, d), IDENT[d]) for _ in range(s)]))
    return out


def _shared_action_family(rng, count):
    """All bundles share one permutation action; divisors differ by an
    action-invariant vector, which keeps the class commutation exact."""
    out = []
    for _ in range(count):
        d = rng.choice((2, 3))
        perm = _cycle(d) if (d == 3 and rng.random() < 0.5) else _transposition(d)
        action = perm_matrix(perm)
        s = rng.randint(2, 3)
        base = _rand_divisor(rng, d, -2, 2)
        pairs = []
        for _ in range(s):
            c = rng.randint(0, 1)
            pairs.append((tuple(b + c for b in base), action))
        out.append(make_system(p1_power_scheme(d), pairs))
    return out


def _invariant_divisor_family(rng, count):
    """One permutation-invariant divisor shared by all bundles; the actions
    are arbitrary powers of one permutation."""
    out = []
    for _ in range(count):
        d = rng.choice((2, 3))
        perm = _cycle(d) if (d == 3 and rng.random() < 0.5) else _transposition(d)
        action = perm_matrix(perm)
        s = rng.randint(1, 3)
        c = rng.randint(-3, 3)
        div = (c,) * d
        pairs = [(div, action ** rng.randint(0, 2)) for _ in range(s)]
        out.append(make_system(p1_power_scheme(d), pairs))
    return out


def _single_bundle_family(rng, count):
    """s = 1: no commutation constraints, any permutation power."""
    out = []
    for _ in range(count):
        d = rng.choice((1, 2, 3))
        perm = _cycle(d) if d > 1 and rng.random() < 0.5 else tuple(range(d))
        if d > 1 and rng.random() < 0.5:
            perm = _transposition(d)
        action = perm_matrix(perm) ** rng.randint(0, 2)
        out.append(make_system(p1_power_scheme(d),
                               [(_rand_divisor(rng, d), action)]))
    return out


def _fibonacci_family(rng, count):
    scheme = builtin_scheme("AbelianSurfaceHyperbolic")
    out = []
    for _ in range(count):
        out.append(make_system(
            scheme, [(_rand_divisor(rng, 2), FIB ** rng.randint(1, 2))]))
    return out


@lru_cache(maxsize=None)
def duality_corpus() -> tuple[BimoduleSystem, ...]:
    """At least 100 valid systems with geometrically realizable actions."""
    rng = random.Random(SEED)
    systems = []
    systems += _identity_family(rng, 32)
    systems += _shared_action_family(rng, 24)
    systems += _invariant_divisor_family(rng, 24)
    systems += _single_bundle_family(rng, 12)
    systems += _fibonacci_family(rng, 8)
    assert len(systems) >= 100
    return tuple(systems)


@lru_cache(maxsize=None)
def ample_corpus() -> tuple[BimoduleSystem, ...]:
    """Positive-divisor systems; these all get NCAmple verdicts."""
    rng = random.Random(SEED + 1)
    systems = []
    for _ in range(12):
        d = rng.choice((1, 2, 3))
        s = rng.randint(1, 3)
        pairs = [(_rand_divisor(rng, d, 1, 3), IDENT[d]) for _ in range(s)]
        systems.append(make_system(p1_power_scheme(d), pairs))
    for _ in range(9):
        d = rng.choice((2, 3))
        perm = _cycle(d) if (d == 3 and rng.random() < 0.5) else _transposition(d)
        action = perm_matrix(perm)
        s = rng.randint(1, 2)
        base = _rand_divisor(rng, d, 1, 2)
        pairs = []
        for _ in range(s):
            c = rng.randint(0, 1)
            pairs.append((tuple(b + c for b in base), action))
        systems.append(make_system(p1_power_scheme(d), pairs))
    for _ in range(9):
        d = rng.choice((2, 3))
        perm = _cycle(d) if (d == 3 and rng.random() < 0.5) else _transposition(d)
        action = perm_matrix(perm)
        s = rng.randint(1, 2)
        c = rng.randint(1, 3)
        pairs = [((c,) * d, action ** rng.randint(0, 2)) for _ in range(s)]
        systems.append(make_system(p1_power_scheme(d), pairs))
    return tuple(systems)


@lru_cache(maxsize=None)
def unipotent_corpus() -> tuple[BimoduleSystem, ...]:
    """Systems whose actions are all unipotent (symbolic form exists).

    Mixes identity actions with honest unipotent upper-triangular actions;
    the latter are numerically valid even where no automorphism realizes
    them, which is exactly what the symbolic/direct agreement must survive.
    """
    rng = random.Random(SEED + 2)
    systems = list(_identity_family(rng, 12))
    upper = Matrix.from_rows([[1, 1], [0, 1]])
    scheme2 = builtin_scheme("P1xP1")
    for _ in range(6):
        systems.append(make_system(scheme2, [(_rand_divisor(rng, 2), upper)]))
    for _ in range(6):
        # shared unipotent action; divisors differ inside ker(action - 1)
        base = _rand_divisor(rng, 2, -2, 2)
        pairs = []
        for _ in range(rng.randint(2, 3)):
            shift = rng.randint(0, 1)
            pairs.append(((base[0] + shift, base[1]), upper))
        systems.append(make_system(scheme2, pairs))
    systems.append(golden_warning())
    return tuple(systems)


def grid(s: int, upto: int, lowest: int = 0):
    return itertools.product(range(lowest, upto + 1), repeat=s)

"""Shared golden systems, the system families behind the seeded random
corpus and the duality property, and an interpreter launcher that puts this
checkout's src/ on the path.

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


def run_python(*args: str) -> str:
    """Run the interpreter with this checkout's src/ first on the path and
    return what it printed; it must exit 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_optimized(script: str) -> list[str]:
    """Run script under python -O, which strips asserts, and return the
    words it printed."""
    return run_python("-O", "-c", script).split()


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


def _perm_action(rng, rho) -> Matrix:
    """A 3-cycle or a transposition of the lattice coordinates, the
    identity on rank 1."""
    if rho == 1:
        return IDENT[1]
    perm = _cycle(rho) if (rho == 3 and rng.random() < 0.5) else _transposition(rho)
    return perm_matrix(perm)


def identity_system(rng, scheme) -> BimoduleSystem:
    """Arbitrary divisors, identity actions."""
    rho = scheme.rho
    return make_system(scheme, [(_rand_divisor(rng, rho), Matrix.identity(rho))
                                for _ in range(rng.randint(1, 3))])


def shared_action_system(rng, scheme) -> BimoduleSystem:
    """All bundles share one permutation action; divisors differ by an
    action-invariant vector, which keeps the class commutation exact."""
    action = _perm_action(rng, scheme.rho)
    s = rng.randint(2, 3)
    base = _rand_divisor(rng, scheme.rho, -2, 2)
    pairs = []
    for _ in range(s):
        c = rng.randint(0, 1)
        pairs.append((tuple(b + c for b in base), action))
    return make_system(scheme, pairs)


def invariant_divisor_system(rng, scheme) -> BimoduleSystem:
    """One permutation-invariant divisor shared by all bundles; the actions
    are arbitrary powers of one permutation."""
    action = _perm_action(rng, scheme.rho)
    s = rng.randint(1, 3)
    div = (rng.randint(-3, 3),) * scheme.rho
    return make_system(scheme, [(div, action ** rng.randint(0, 2))
                                for _ in range(s)])


def single_bundle_system(rng, scheme) -> BimoduleSystem:
    """s = 1: no commutation constraints, any permutation power."""
    d = scheme.rho
    perm = _cycle(d) if d > 1 and rng.random() < 0.5 else tuple(range(d))
    if d > 1 and rng.random() < 0.5:
        perm = _transposition(d)
    action = perm_matrix(perm) ** rng.randint(0, 2)
    return make_system(scheme, [(_rand_divisor(rng, d), action)])


def fibonacci_system(rng, scheme) -> BimoduleSystem:
    """One bundle twisted by a power of the hyperbolic matrix (rank 2)."""
    return make_system(scheme, [(_rand_divisor(rng, 2), FIB ** rng.randint(1, 2))])


def _family(build, rng, count, ranks):
    """count systems on products of projective lines of the drawn ranks."""
    return [build(rng, p1_power_scheme(rng.choice(ranks))) for _ in range(count)]


@lru_cache(maxsize=None)
def duality_corpus() -> tuple[BimoduleSystem, ...]:
    """At least 100 valid systems with geometrically realizable actions."""
    rng = random.Random(SEED)
    abelian = builtin_scheme("AbelianSurfaceHyperbolic")
    systems = []
    systems += _family(identity_system, rng, 32, (1, 2, 2, 3))
    systems += _family(shared_action_system, rng, 24, (2, 3))
    systems += _family(invariant_divisor_system, rng, 24, (2, 3))
    systems += _family(single_bundle_system, rng, 12, (1, 2, 3))
    systems += [fibonacci_system(rng, abelian) for _ in range(8)]
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
        action = _perm_action(rng, d)
        s = rng.randint(1, 2)
        base = _rand_divisor(rng, d, 1, 2)
        pairs = []
        for _ in range(s):
            c = rng.randint(0, 1)
            pairs.append((tuple(b + c for b in base), action))
        systems.append(make_system(p1_power_scheme(d), pairs))
    for _ in range(9):
        d = rng.choice((2, 3))
        action = _perm_action(rng, d)
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
    systems = _family(identity_system, rng, 12, (1, 2, 2, 3))
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

"""Commuting systems of twisted divisor classes and their constructors.

A bimodule pairs a divisor class with a unimodular lattice action (the
numerical pullback of the twisting automorphism's inverse).  A system is a
finite ordered family of such pairs over one scheme model, subject to
pairwise commutation of the actions and of the twisted classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul

from .errors import (ArityError, ClassCommutationFail, MatrixCommutationFail,
                     NonInvertible, NotNilpotent, ParseError, UnipotentRequired,
                     exact_ints, int_tuple)
from .lattice_algebra import (Matrix, _check_square, geometric_sum, strided_geometric_sum,
                             strided_nilpotent_powers)
from .numeric_polynomials import MultiPoly
from .scheme_model import DivisorClass, NumericalScheme, _as_dict, load_scheme


@dataclass(frozen=True)
class Bimodule:
    divisor: DivisorClass
    action: Matrix
    star: bool = False


@dataclass(frozen=True)
class BimoduleSystem:
    scheme: NumericalScheme
    bimodules: tuple[Bimodule, ...]

    def __post_init__(self):
        rho = self.scheme.rho
        if not self.bimodules:
            raise ParseError("a system needs at least one bimodule")
        # equal bundles pass every check and each pair check is symmetric,
        # so the first failure in index order is among first occurrences
        firsts = _first_indices(self.bimodules)
        for i in firsts:
            bim = self.bimodules[i]
            if len(bim.divisor) != rho or bim.action.rho != rho:
                raise ParseError(
                    f"bimodule {i} does not match lattice rank {rho}")
            # det is memoized: one trace recursion per distinct action
            d = bim.action.det()
            if d not in (1, -1):
                raise NonInvertible(index=i, det=d)
        for i, j in itertools.combinations(firsts, 2):
            mi, mj = self.bimodules[i].action, self.bimodules[j].action
            # equal actions commute; only their classes need the check
            if mi != mj and mi * mj != mj * mi:
                raise MatrixCommutationFail(i, j)
            _check_classes_commute(self.bimodules, i, j)

    @staticmethod
    def _trusted(scheme: NumericalScheme, bimodules: tuple[Bimodule, ...]) -> "BimoduleSystem":
        """A system from bimodules already known to be valid together, such
        as those derived from a valid system; it skips the determinant and
        commutation checks of __post_init__."""
        sys = object.__new__(BimoduleSystem)
        object.__setattr__(sys, "scheme", scheme)
        object.__setattr__(sys, "bimodules", bimodules)
        return sys

    @property
    def s(self) -> int:
        return len(self.bimodules)


def _check_classes_commute(bimodules, i: int, j: int) -> None:
    """Raise ClassCommutationFail(i, j) unless d_i + M_i d_j == d_j + M_j d_i."""
    di, dj = bimodules[i].divisor.coords, bimodules[j].divisor.coords
    left = tuple(map(add, di, bimodules[i].action.apply(dj)))
    if left != tuple(map(add, dj, bimodules[j].action.apply(di))):
        raise ClassCommutationFail(i, j)


def _first_indices(values) -> list[int]:
    """The index of the first occurrence of each distinct value, in order."""
    first: dict = {}
    for i, value in enumerate(values):
        first.setdefault(value, i)
    return list(first.values())


def make_system(scheme, pairs, stars=None) -> BimoduleSystem:
    """Assemble a system from (divisor, action) pairs of plain sequences,
    with one star flag per pair (all False when stars is None)."""
    stars = [False] * len(pairs) if stars is None else list(stars)
    if len(stars) != len(pairs):
        raise ParseError(f"need one star flag per pair, got {len(stars)} "
                         f"for {len(pairs)} pairs")
    bims = []
    for (div, mat), star in zip(pairs, stars):
        divisor = div if isinstance(div, DivisorClass) else DivisorClass(tuple(div))
        action = mat if isinstance(mat, Matrix) else Matrix.from_rows(mat)
        bims.append(Bimodule(divisor, action, _strict_bool(star, "star flag")))
    return BimoduleSystem(scheme, tuple(bims))


def _twisted_walk(sys: BimoduleSystem, ranges):
    """Yield (n, class coordinates, action M_1^(n_1)...M_s^(n_s)) of the
    n-fold twisted product, exactly, for every n of itertools.product(*ranges)
    in that order; each range is a run of consecutive grades.

    With the grades after a at 0, a step along bundle a adds M^n d_a to the
    class and multiplies the action by M_a, so only the first grade of each
    run goes through a geometric sum and a power, once per bundle, and a
    run that starts at grade 0 takes neither.
    """
    runs = [exact_ints(r, "grade", at_least=0) for r in ranges]
    if len(runs) != sys.s:
        raise ParseError(f"need {sys.s} runs of nonnegative integer grades, got {runs}")
    steps = [(bim.divisor.coords, bim.action) for bim in sys.bimodules]
    firsts = [(geometric_sum(m, run[0]).apply(d), m ** run[0]) if run and run[0] else None
              for (d, m), run in zip(steps, runs)]
    # at[a]: the class and action at the grades n[:a]
    at = [((0,) * sys.scheme.rho, Matrix.identity(sys.scheme.rho))] * (sys.s + 1)
    last = None
    for n in itertools.product(*runs):
        # the first grade that differs from the last n steps on from its old
        # state, and the grades after it restart from their runs' first grades
        a = 0
        if last is not None:
            while n[a] == last[a]:
                a += 1
        for b in range(a, sys.s):
            (coords, action), step = (
                (at[b + 1], steps[b]) if last is not None and b == a else (at[b], firsts[b]))
            if step is not None:
                part, power = step
                coords = tuple(map(add, coords, action.apply(part)))
                action = action * power
            at[b + 1] = coords, action
        last = n
        yield (n, *at[-1])


def class_at(sys: BimoduleSystem, n) -> DivisorClass:
    """Divisor class of the n-fold twisted product, exactly."""
    return DivisorClass(next(_twisted_walk(sys, [(x,) for x in n]))[1])


# ---------------------------------------------------------------------------
# symbolic evaluation

def symbolic_class(sys: BimoduleSystem, periods=None) -> list[MultiPoly]:
    """class_at(periods*q) as a vector of polynomials in q; the periods
    default to all ones, which gives class_at itself."""
    vectors = _class_vectors(sys, (1,) * sys.s if periods is None else periods)
    return [MultiPoly._trusted(sys.s, {key: vec[i] for key, vec in vectors.items() if vec[i]})
            for i in range(sys.scheme.rho)]


def _class_vectors(sys: BimoduleSystem, periods) -> dict[tuple[int, ...], tuple[int, ...]]:
    """class_at(periods*q) as integer vectors keyed by binomial exponents
    of q.

    Each action raised to its period must be unipotent, M_a^(r_a) = I + N_a;
    raises UnipotentRequired with the first offending index.  With the
    strided divisor d_a = (I + M_a + ... + M_a^(r_a - 1)) times the divisor,
    M^q = sum_k C(q,k) N^k and I + M + ... + M^(q-1) = sum_k C(q,k+1) N^k,
    the class D_1(q_1) + M_1^(q_1) (D_2(q_2) + M_2^(q_2) (... + D_s(q_s))),
    where D_a(q) = sum_k C(q,k+1) N_a^k d_a, is a sum of integer vectors
    times products of binomials in distinct variables, one basis element of
    MultiPoly each: the key e whose last nonzero entry is at a carries
    N_1^(e_1)...N_(a-1)^(e_(a-1)) N_a^(e_a - 1) d_a.  Those operators depend
    on the N's alone and come from a memo.  The keys miss the origin, where
    the class vanishes, and no vector is zero.
    """
    pv = exact_ints(periods, "stride", length=sys.s, at_least=1)
    powers = []
    for a, (bim, r) in enumerate(zip(sys.bimodules, pv)):
        try:
            powers.append(strided_nilpotent_powers(bim.action, r))
        except NotNilpotent:
            raise UnipotentRequired(a) from None
    divisors = [strided_geometric_sum(bim.action, r).apply(bim.divisor.coords)
                for bim, r in zip(sys.bimodules, pv)]
    vectors = {}
    for key, a, op in _strided_operators(tuple(powers)):
        image = divisors[a] if op is None else op.apply(divisors[a])
        if any(image):
            vectors[key] = image
    return vectors


@lru_cache(maxsize=256, typed=True)
def _strided_operators(powers: tuple[tuple[Matrix, ...], ...]) -> tuple[
        tuple[tuple[int, ...], int, Matrix | None], ...]:
    """(key, a, operator) for every key of _class_vectors whose operator
    N_1^(e_1)...N_(a-1)^(e_(a-1)) N_a^(e_a - 1) is not zero, with None for
    the identity; powers[a] is nilpotent_powers(N_a).

    Memoized per process by the power tuples, which is all the operators
    depend on: systems that share their strided actions share one entry.
    """
    s = len(powers)
    out = []
    for a in range(s):
        for exps in itertools.product(*(range(len(p)) for p in powers[:a + 1])):
            factors = [powers[b][e] for b, e in enumerate(exps) if e]
            op = reduce(mul, factors) if factors else None
            if op is None or not op.is_zero():
                out.append((exps[:a] + (exps[a] + 1,) + (0,) * (s - a - 1), a, op))
    return tuple(out)


def branch_class_polys(sys: BimoduleSystem, periods) -> dict[
        tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]]:
    """class_at(c + periods*q) as integer vectors keyed by binomial
    exponents of q, for each residue c in itertools.product order.

    Each action raised to its period must be unipotent (UnipotentRequired
    names the first that is not).  The twisted sum gives
    class(c + r*q) = class(c) + M^c S(q), where S is the strided class: its
    vectors are built once and moved by each residue's action, unless that
    action is the identity, as the origin's is; class(c) sits at the zero
    key, which S misses.  Valid for all integer q >= 0.
    """
    strided = _class_vectors(sys, periods)
    origin = (0,) * sys.s
    identity = Matrix.identity(sys.scheme.rho)
    walk = _twisted_walk(sys, [range(r) for r in periods])
    return {residue: {origin: coords, **(strided if action == identity else
                                          {k: action.apply(v) for k, v in strided.items()})}
            for residue, coords, action in walk}


# ---------------------------------------------------------------------------
# constructors

def dual(sys: BimoduleSystem) -> BimoduleSystem:
    """Side-swapped system: divisor and action transported through the inverse;
    it needs no re-check: inverses of commuting unimodular actions are, and
    the classes commute as section_oracle's dual_ring shows."""
    bims = []
    for bim in sys.bimodules:
        inv = bim.action.inverse_unimodular()
        bims.append(Bimodule(DivisorClass(inv.apply(bim.divisor.coords)), inv, bim.star))
    return BimoduleSystem._trusted(sys.scheme, tuple(bims))


def veronese(sys: BimoduleSystem, n) -> BimoduleSystem:
    """Stride each factor by n_a: orbit-summed divisor, action power.

    The result needs no re-check: powers of commuting unimodular actions
    are unimodular and commute, and the strided classes commute because
    either order of two of them is the twisted product at one grade.
    """
    bims = []
    for bim, n_a in zip(sys.bimodules, exact_ints(n, "stride", length=sys.s, at_least=1)):
        div = strided_geometric_sum(bim.action, n_a).apply(bim.divisor.coords)
        bims.append(Bimodule(DivisorClass(div), bim.action ** n_a, bim.star))
    return BimoduleSystem._trusted(sys.scheme, tuple(bims))


def combined_single(sys: BimoduleSystem, n) -> BimoduleSystem:
    """Collapse the n-fold product to a single twisted divisor; it needs no
    re-check: a product of unimodular actions is, and one bundle has no pair."""
    _, coords, action = next(_twisted_walk(sys, [(x,) for x in n]))
    star = any(b.star for b in sys.bimodules)
    return BimoduleSystem._trusted(sys.scheme, (Bimodule(DivisorClass(coords), action, star),))


def rees(sys: BimoduleSystem) -> BimoduleSystem:
    """Duplicate the single bimodule, modeling the one-variable extension; it
    needs no re-check: a bundle commutes with itself."""
    if sys.s != 1:
        raise ArityError(f"rees needs exactly one bimodule, got {sys.s}")
    bim = sys.bimodules[0]
    return BimoduleSystem._trusted(sys.scheme, (bim, bim))


def product(sys_x: BimoduleSystem, sys_y: BimoduleSystem) -> BimoduleSystem:
    """Block system on the product model over the direct-sum sublattice; it needs
    no re-check: block actions commute and fix the other system's classes."""
    sx, sy = sys_x.scheme, sys_y.scheme
    rho = sx.rho + sy.rho
    euler_terms = {}
    for kx, cx in sx.euler.terms.items():
        for ky, cy in sy.euler.terms.items():
            euler_terms[kx + ky] = cx * cy
    euler = MultiPoly(rho, euler_terms)
    cone = tuple(tuple(row) + (0,) * sy.rho for row in sx.cone) + \
        tuple((0,) * sx.rho + tuple(row) for row in sy.cone)
    note = "lattice is the direct-sum sublattice of the product model"
    scheme = NumericalScheme.build(
        f"{sx.name} x {sy.name}", sx.dim + sy.dim, rho, euler, cone, note=note)
    bims = []
    for bim in sys_x.bimodules:
        div = bim.divisor.coords + (0,) * sy.rho
        action = _block_diag(bim.action, Matrix.identity(sy.rho))
        bims.append(Bimodule(DivisorClass(div), action, bim.star))
    for bim in sys_y.bimodules:
        div = (0,) * sx.rho + bim.divisor.coords
        action = _block_diag(Matrix.identity(sx.rho), bim.action)
        bims.append(Bimodule(DivisorClass(div), action, bim.star))
    return BimoduleSystem._trusted(scheme, tuple(bims))


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = a.rho, b.rho
    rows = [tuple(row) + (0,) * nb for row in a.entries]
    rows += [(0,) * na + tuple(row) for row in b.entries]
    return Matrix._trusted(tuple(rows))


# ---------------------------------------------------------------------------
# documents

def load_system(document) -> BimoduleSystem:
    """Read a scheme-plus-bimodules JSON document."""
    doc = _as_dict(document)
    scheme = load_scheme(doc)
    if "bimodules" not in doc or not doc["bimodules"]:
        raise ParseError("document has no bimodules member")
    return BimoduleSystem(scheme, _read_bimodules(doc))


def _read_bimodules(doc: dict) -> tuple[Bimodule, ...]:
    """The bimodules member of a document, with strictly integer entries."""
    try:
        return tuple(
            Bimodule(DivisorClass(int_tuple(entry["divisor"], "divisor entry")),
                     Matrix._trusted(_check_square(tuple(
                         int_tuple(row, "matrix entry") for row in entry["matrix"]))),
                     _strict_bool(entry.get("star", False), "star flag"))
            for entry in doc["bimodules"])
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed bimodule entry: {exc}") from exc


def _strict_bool(value, what: str) -> bool:
    """JSON true or false; anything else, "false" included, raises ParseError."""
    if isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be true or false, got {value!r}")


def system_to_document(sys: BimoduleSystem) -> dict:
    doc = sys.scheme.to_document()
    doc["bimodules"] = []
    for bim in sys.bimodules:
        entry = {"divisor": list(bim.divisor.coords),
                 "matrix": [list(row) for row in bim.action.entries]}
        if bim.star:
            entry["star"] = True
        doc["bimodules"].append(entry)
    return doc


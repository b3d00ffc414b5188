"""Brute-force section rings on products of projective lines.

Everything here is computed from actual global sections: monomial bases,
pullbacks along factor-permuting Moebius automorphisms, and the twisted
multiplication.  The module exists to cross-validate the numerical layer,
so it shares no formulas with it beyond the lattice shadow it exports.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .bimodule_system import (Bimodule, BimoduleSystem, _check_classes_commute,
                              _first_indices, _read_bimodules, _twisted_walk)
from .errors import (DegreeMismatch, ParseError, exact_int, exact_ints, int_tuple,
                     strict_int)
from .lattice_algebra import Matrix, UniPoly
from .numeric_polynomials import _values
from .scheme_model import DivisorClass, _as_dict, _rational, p1_power_scheme

# A Moebius factor ((a, b), (c, d)) / den as the five integers
# (a, b, c, d, den), with den > 0 and gcd(a, b, c, d, den) = 1, so equal
# maps have equal tuples and composing them needs no Fraction arithmetic.
Mob = tuple[int, int, int, int, int]


def _mob_reduced(a: int, b: int, c: int, d: int, den: int) -> Mob:
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = gcd(a, b, c, d, den)
    return (a // g, b // g, c // g, d // g, den // g)


def _mob(rows) -> Mob:
    try:
        m = tuple(tuple(_rational(x) for x in row) for row in rows)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"a Moebius entry must be a rational number: {exc}") from exc
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ParseError(f"a Moebius matrix is 2x2, got {rows}")
    entries = m[0] + m[1]
    if all(type(x) is int for x in entries):
        return _mob_reduced(*entries, 1)
    den = lcm(*(x.denominator for x in entries))
    return _mob_reduced(*(x.numerator * (den // x.denominator) for x in entries), den)


def _mob_product(p: Mob, q: Mob) -> Mob:
    """p q, unreduced."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3], p[4] * q[4])


def _mob_inv(p: Mob) -> Mob:
    """(A / den)^-1 = den adj(A) / det(A), exactly: the dual ring needs the
    true inverse, not one up to scale."""
    a, b, c, d, den = p
    return _mob_reduced(den * d, -den * b, -den * c, den * a, a * d - b * c)


_MOB_ID: Mob = (1, 0, 0, 1, 1)


def _mob_projectively_equal(p: Mob, q: Mob) -> bool:
    # a nonsingular map has a nonzero entry; cross-multiplying against it
    # also fails when q is zero there, and neither map need be reduced
    pivot = next(i for i in range(4) if p[i])
    return all(x * q[pivot] == y * p[pivot] for x, y in zip(p[:4], q[:4]))


@dataclass(frozen=True)
class FactorAutomorphism:
    """Permutation of the line factors followed by a Moebius map on each.

    perm is 0-based internally: factor k of the image point is mobius[k]
    applied to factor perm[k] of the source point.
    """

    perm: tuple[int, ...]
    mobius: tuple[Mob, ...]

    def __post_init__(self):
        d = len(self.perm)
        if sorted(self.perm) != list(range(d)):
            raise ParseError(f"perm {[p + 1 for p in self.perm]} is not a permutation "
                             f"of 1..{d}")
        if len(self.mobius) != d:
            raise ParseError(f"{len(self.mobius)} Moebius maps for {d} factors")
        for g in self.mobius:
            if g[0] * g[3] - g[1] * g[2] == 0:
                rows = [[str(Fraction(x, g[4])) for x in g[i:i + 2]] for i in (0, 2)]
                raise ParseError(f"singular Moebius matrix {rows}")

    @property
    def d(self) -> int:
        return len(self.perm)

    @staticmethod
    def _trusted(perm: tuple[int, ...], mobius: tuple[Mob, ...]) -> "FactorAutomorphism":
        """A map from parts already known to be valid, such as a composite
        or inverse of valid maps (a permutation with nonsingular reduced
        factors); it skips the __post_init__ check."""
        f = object.__new__(FactorAutomorphism)
        object.__setattr__(f, "perm", perm)
        object.__setattr__(f, "mobius", mobius)
        return f

    @staticmethod
    def identity(d: int) -> "FactorAutomorphism":
        return FactorAutomorphism._trusted(tuple(range(d)), (_MOB_ID,) * d)

    @staticmethod
    def build(perm_1based, mobius_rows) -> "FactorAutomorphism":
        perm = tuple(p - 1 for p in exact_ints(perm_1based, "perm entry"))
        return FactorAutomorphism(perm, tuple(_mob(rows) for rows in mobius_rows))

    def _same_d(self, other: "FactorAutomorphism") -> None:
        if self.d != other.d:
            raise ParseError(f"cannot compose maps of {self.d} and {other.d} factors")

    def compose(self, other: "FactorAutomorphism") -> "FactorAutomorphism":
        """self after other (self(other(p)))."""
        self._same_d(other)
        perm = tuple(other.perm[p] for p in self.perm)
        mob = tuple(_mob_reduced(*_mob_product(m, other.mobius[p]))
                    for m, p in zip(self.mobius, self.perm))
        return FactorAutomorphism._trusted(perm, mob)

    def inverse(self) -> "FactorAutomorphism":
        inv_perm = [0] * self.d
        for k, p in enumerate(self.perm):
            inv_perm[p] = k
        mob = tuple(_mob_inv(self.mobius[inv_perm[j]]) for j in range(self.d))
        return FactorAutomorphism._trusted(tuple(inv_perm), mob)

    def lattice_matrix(self) -> Matrix:
        """Induced permutation action on multidegrees."""
        rows = []
        for j in range(self.d):
            row = [0] * self.d
            row[self.perm.index(j)] = 1
            rows.append(tuple(row))
        return Matrix._trusted(tuple(rows))

    def commutes_projectively(self, other: "FactorAutomorphism") -> bool:
        """Whether self after other and other after self permute alike and
        agree factor by factor up to scale; the factors are compared as
        unreduced products, since a common factor leaves the map."""
        self._same_d(other)
        if any(other.perm[p] != self.perm[q] for p, q in zip(self.perm, other.perm)):
            return False
        return all(_mob_projectively_equal(_mob_product(m, other.mobius[p]),
                                           _mob_product(n, self.mobius[q]))
                   for m, p, n, q in zip(self.mobius, self.perm, other.mobius, other.perm))


def monomial_basis(multidegree) -> tuple[tuple[int, ...], ...]:
    """All exponent keys (e1, f1, ..., ed, fd) with e_k + f_k = a_k."""
    degs = exact_ints(multidegree, "multidegree entry")
    if any(a < 0 for a in degs):
        return ()
    out = []
    for choice in itertools.product(*(range(a + 1) for a in degs)):
        key = []
        for e, a in zip(choice, degs):
            key.extend((e, a - e))
        out.append(tuple(key))
    return tuple(out)


def section_space_dim(multidegree) -> int:
    degs = exact_ints(multidegree, "multidegree entry")
    if any(a < 0 for a in degs):
        return 0
    result = 1
    for a in degs:
        result *= a + 1
    return result


def _place_values(multidegree: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix place values of the packed code of a monomial: the
    x-exponent e_k of factor k counts prod_{j > k} (a_j + 1), so the codes
    of a section space are 0..dim - 1 in monomial_basis order."""
    values = [1] * len(multidegree)
    for k in range(len(multidegree) - 1, 0, -1):
        values[k - 1] = values[k] * (multidegree[k] + 1)
    return tuple(values)


@dataclass(frozen=True, init=False)
class MultiSection:
    """Element of the section space of one multidegree, exact coefficients.

    The coefficients are integer numerators over one positive denominator,
    in lowest terms (gcd of den and every numerator is 1, no zero
    numerator), so equal sections have equal fields.  They are keyed by
    the packed code of each monomial, its x-exponents in the mixed radix
    (a_k + 1) of the multidegree, so every code is below the dimension of
    the section space.  numerators and terms give them by exponent key
    (e1, f1, ..., ed, fd), as ints and as Fractions.
    """

    multidegree: tuple[int, ...]
    codes: dict[int, int]
    den: int

    def __init__(self, multidegree, terms):
        multidegree = exact_ints(multidegree, "multidegree entry")
        d = len(multidegree)
        places = _place_values(multidegree)
        codes = {}
        for key, c in terms.items():
            if len(key) != 2 * d:
                raise ParseError(f"exponent key {key} does not have {2 * d} entries")
            if type(c) is not int and not isinstance(c, Fraction):
                raise ParseError(f"exponent key {key} has coefficient {c!r}, "
                                 f"not a rational number")
            if not c:
                raise ParseError(f"exponent key {key} has a zero coefficient")
            # the exponents are packed into an int code
            exact_ints(key, "exponent key entry", at_least=0)
            code = 0
            for k in range(d):
                e, f = key[2 * k], key[2 * k + 1]
                if e + f != multidegree[k]:
                    raise ParseError(f"exponent key {key} is not a monomial of "
                                     f"multidegree {multidegree}")
                code += e * places[k]
            codes[code] = c
        # over the lcm of reduced denominators, the numerators share no
        # factor with it
        den = lcm(*(c.denominator for c in codes.values()))
        object.__setattr__(self, "multidegree", multidegree)
        object.__setattr__(self, "codes", {
            k: c.numerator * (den // c.denominator) for k, c in codes.items()})
        object.__setattr__(self, "den", den)

    @staticmethod
    def _trusted(multidegree: tuple[int, ...], codes: dict[int, int],
                 den: int) -> "MultiSection":
        """The section codes[code] / den, for codes already known to be
        monomials of the multidegree and den > 0, such as a product or
        pullback of valid sections; it drops zeros and reduces, and skips
        the key check."""
        codes = {k: v for k, v in codes.items() if v}
        g = gcd(den, *codes.values())
        if g != 1:
            codes = {k: v // g for k, v in codes.items()}
            den //= g
        section = object.__new__(MultiSection)
        object.__setattr__(section, "multidegree", multidegree)
        object.__setattr__(section, "codes", codes)
        object.__setattr__(section, "den", den)
        return section

    @property
    def numerators(self) -> dict[tuple[int, ...], int]:
        out = {}
        for code, v in self.codes.items():
            key = []
            for a in reversed(self.multidegree):
                code, e = divmod(code, a + 1)
                key += (a - e, e)
            out[tuple(reversed(key))] = v
        return out

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {k: Fraction(v, self.den) for k, v in self.numerators.items()}

    @staticmethod
    def monomial(multidegree, key, coeff=1) -> "MultiSection":
        return MultiSection(multidegree, {tuple(key): Fraction(coeff)})

    def __add__(self, other: "MultiSection") -> "MultiSection":
        if self.multidegree != other.multidegree:
            raise ParseError(f"cannot add sections of multidegrees "
                             f"{self.multidegree} and {other.multidegree}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {k: v * fa for k, v in self.codes.items()}
        for k, v in other.codes.items():
            out[k] = out.get(k, 0) + v * fb
        return MultiSection._trusted(self.multidegree, out, den)

    def _recoded(self, multidegree: tuple[int, ...]):
        """(code, numerator) pairs with the codes read in the radix of
        multidegree, which is entrywise at least this section's."""
        if multidegree[1:] == self.multidegree[1:]:
            # the place values ignore a_1
            return self.codes.items()
        digits = tuple(zip(reversed(self.multidegree), reversed(_place_values(multidegree))))
        out = []
        for code, v in self.codes.items():
            new = 0
            for a, place in digits:
                code, e = divmod(code, a + 1)
                new += e * place
            out.append((new, v))
        return out

    def __mul__(self, other: "MultiSection") -> "MultiSection":
        """x-exponents add, and so do their codes in the product's radix."""
        deg = tuple(map(add, self.multidegree, other.multidegree))
        right = other._recoded(deg)
        out: dict[int, int] = {}
        get = out.get
        for ca, va in self._recoded(deg):
            for cb, vb in right:
                out[ca + cb] = get(ca + cb, 0) + va * vb
        return MultiSection._trusted(deg, out, self.den * other.den)


@functools.lru_cache(maxsize=256, typed=True)
def _factor_images(g: Mob, a: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For e = 0..a, den^a x^e y^(a-e) pulled back along g: the pairs
    (i, coefficient of x^i y^(a-i)) of the integer form
    (alpha x + beta y)^e (gamma x + delta y)^(a-e), nonzero ones only."""
    alpha, beta, gamma, delta, _ = g
    # polynomials in x, with y set to 1
    x_form, y_form = UniPoly.from_coeffs((beta, alpha)), UniPoly.from_coeffs((delta, gamma))
    x_powers, y_powers = [UniPoly((1,))], [UniPoly((1,))]
    for _ in range(a):
        x_powers.append(x_powers[-1] * x_form)
        y_powers.append(y_powers[-1] * y_form)
    return tuple(tuple((i, c) for i, c in enumerate((x_powers[e] * y_powers[a - e]).coeffs)
                       if c)
                 for e in range(a + 1))


def pullback(sigma: FactorAutomorphism, section: MultiSection) -> MultiSection:
    """Substitute: the factor-k variables become the chosen Moebius forms in
    the variables of factor perm[k].

    Each factor's binomial images come from the _factor_images cache, with
    their x-exponents scaled to the place value of the output factor they
    land on, and every term maps to the product of its factors' images,
    whose codes add; the denominators of the maps and of the section are
    divided out once, by the reduction of the result.
    """
    d = sigma.d
    deg = section.multidegree
    if len(deg) != d:
        raise ParseError(f"cannot pull a section of {len(deg)} "
                         f"factors back along a map of {d}")
    new_deg = [0] * d
    for k, j in enumerate(sigma.perm):
        new_deg[j] = deg[k]
    new_deg = tuple(new_deg)
    places = _place_values(new_deg)
    # source factor k lands on output factor perm[k]; codes are read from
    # their last digit
    factors = []
    den = section.den
    for k in reversed(range(d)):
        g, place = sigma.mobius[k], places[sigma.perm[k]]
        factors.append((deg[k] + 1, [[(i * place, c) for i, c in image]
                                     for image in _factor_images(g, deg[k])]))
        # a negative degree has no sections, so its factor adds no denominator
        den *= g[4] ** max(deg[k], 0)
    out: dict[int, int] = {}
    get = out.get
    for code, coeff in section.codes.items():
        partial = [(0, coeff)]
        for radix, images in factors:
            code, e = divmod(code, radix)
            partial = [(h + t, c * v) for h, c in partial for t, v in images[e]]
        for c, v in partial:
            out[c] = get(c, 0) + v
    return MultiSection._trusted(new_deg, out, den)


@dataclass(frozen=True)
class RingElement:
    grade: tuple[int, ...]
    section: MultiSection


@dataclass(frozen=True)
class GradedPiece:
    grade: tuple[int, ...]
    multidegree: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


class OracleRing:
    """Twisted multi-homogeneous section ring of a product of lines."""

    def __init__(self, d: int, pairs):
        """Checks each fact once: the twists on d factors and commuting
        projectively, and the classes pairwise; the permutation actions have
        det +-1 and commute where the twists' composite permutations agree."""
        d = exact_int(d, "d")
        pairs = tuple((exact_ints(deg, "degree entry"), sigma) for deg, sigma in pairs)
        self._adopt(d, pairs, OracleRing._checked_shadow(d, pairs, (
            Bimodule(DivisorClass(deg), sigma.lattice_matrix()) for deg, sigma in pairs)))

    @staticmethod
    def _checked_shadow(d: int, pairs, bimodules) -> BimoduleSystem:
        """The numerical shadow after __init__'s checks, raising the checked
        BimoduleSystem's errors; bimodules is read only once the twists pass."""
        for deg, sigma in pairs:
            if len(deg) != d or sigma.d != d:
                raise ParseError("bundle or automorphism does not match d")
        # equal values pass each symmetric check, as in BimoduleSystem
        autos = [sigma for _, sigma in pairs]
        for i, j in itertools.combinations(_first_indices(autos), 2):
            if not autos[i].commutes_projectively(autos[j]):
                raise ParseError(f"automorphisms {i} and {j} do not commute projectively")
        scheme = p1_power_scheme(d)
        if not pairs:
            raise ParseError("a system needs at least one bimodule")
        shadow = tuple(bimodules)
        for i, j in itertools.combinations(_first_indices(shadow), 2):
            _check_classes_commute(shadow, i, j)
        return BimoduleSystem._trusted(scheme, shadow)

    def _adopt(self, d: int, pairs, shadow: BimoduleSystem) -> None:
        self.d = d
        self.pairs = pairs
        self._shadow = shadow
        zero = (0,) * len(pairs)
        # grade -> accumulated twist, and grade -> (multidegree, permutation
        # part of that twist); every other grade is walked from these
        self._twists = {zero: FactorAutomorphism.identity(d)}
        self._degrees = {zero: ((0,) * d, tuple(range(d)))}

    @staticmethod
    def _trusted(d: int, pairs, shadow: BimoduleSystem) -> "OracleRing":
        """A ring from parts already known to be valid together, such as
        those derived from a valid ring; it skips the commutation checks
        and the shadow's validation."""
        ring = object.__new__(OracleRing)
        ring._adopt(d, pairs, shadow)
        return ring

    @property
    def s(self) -> int:
        return len(self.pairs)

    def numerical_shadow(self) -> BimoduleSystem:
        return self._shadow

    @staticmethod
    def _walk(cache: dict, n: tuple[int, ...], step):
        """cache[n] for a valid grade n.  A missing grade is step(value,
        a) from the grade with its last nonzero entry, a, lowered by one:
        the grades after a are 0, so its product is that grade's product
        with one more copy of bundle a at the end."""
        path = []
        while n not in cache:
            a = len(n) - 1
            while not n[a]:
                a -= 1
            path.append((n, a))
            n = n[:a] + (n[a] - 1,) + n[a + 1:]
        value = cache[n]
        for n, a in reversed(path):
            value = cache[n] = step(value, a)
        return value

    def twist_power(self, n) -> FactorAutomorphism:
        """sigma_1^{n_1} after ... after sigma_s^{n_s}, composed in order."""
        grade = exact_ints(n, "grade entry", length=self.s, at_least=0)
        return self._walk(self._twists, grade,
                          lambda twist, a: twist.compose(self.pairs[a][1]))

    def _degree_step(self, walked, a: int):
        """One more copy of bundle a: its divisor moved by the permutation
        accumulated so far, which then takes on sigma_a's."""
        total, perm = walked
        moved = list(total)
        for k, x in enumerate(self.pairs[a][0]):
            moved[perm[k]] += x
        sigma = self.pairs[a][1].perm
        return tuple(moved), tuple(sigma[p] for p in perm)

    def graded_multidegree(self, n) -> tuple[int, ...]:
        """Multidegree of the expanded product bundle at grade n.

        The product is the ordering that repeats bundle a n_a times, in
        bundle order: each factor is twisted by everything to its left.
        Multidegrees see only the permutation part of a twist, so the walk
        composes permutations the way FactorAutomorphism.compose does and
        moves a divisor the way lattice_matrix().apply does.
        """
        grade = exact_ints(n, "grade entry", length=self.s, at_least=0)
        return self._walk(self._degrees, grade, self._degree_step)[0]

    def graded_piece(self, n) -> GradedPiece:
        nv = tuple(n)
        deg = self.graded_multidegree(nv)
        return GradedPiece(nv, deg, monomial_basis(deg))

    def element(self, n, terms) -> RingElement:
        grade = tuple(n)
        section = MultiSection(self.graded_multidegree(grade),
                               {tuple(k): Fraction(v) for k, v in terms.items() if v})
        return RingElement(grade, section)

    def random_element(self, n, rng: random.Random) -> RingElement:
        """Coefficients c / q with c uniform in [-3, 3] and q 2 with
        probability 1/4, else 1, written over the denominator 2, drawn in
        monomial_basis order."""
        grade = tuple(n)
        deg = self.graded_multidegree(grade)
        codes = {}
        for code in range(section_space_dim(deg)):
            c = rng.randint(-3, 3)
            codes[code] = c * (2 // rng.choice((1, 1, 1, 2)))
        return RingElement(grade, MultiSection._trusted(deg, codes, 2))

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """a * (twist of b by the accumulated automorphism of a's grade)."""
        for x in (a, b):
            want = self.graded_multidegree(x.grade)
            if x.section.multidegree != want:
                raise DegreeMismatch(
                    f"element of grade {x.grade} has multidegree "
                    f"{x.section.multidegree}, expected {want}")
        twisted = pullback(self.twist_power(a.grade), b.section)
        section = a.section * twisted
        grade = tuple(x + y for x, y in zip(a.grade, b.grade))
        assert section.multidegree == self.graded_multidegree(grade), \
            "product left its graded piece"
        return RingElement(grade, section)

    def dual_ring(self) -> "OracleRing":
        """Same sheaves transported through the inverse automorphisms.

        It needs no re-check: inverses of maps that commute projectively
        commute projectively, and multiplying d_i + M_i d_j = d_j + M_j d_i
        by M_i^-1 M_j^-1 gives the same identity for the transported
        classes M_i^-1 d_i and actions M_i^-1.
        """
        pairs = []
        bims = []
        for deg, sigma in self.pairs:
            inv = sigma.inverse()
            action = inv.lattice_matrix()
            new_deg = tuple(action.apply(deg))
            pairs.append((new_deg, inv))
            bims.append(Bimodule(DivisorClass(new_deg), action))
        return OracleRing._trusted(self.d, tuple(pairs), BimoduleSystem._trusted(
            self._shadow.scheme, tuple(bims)))


def opposite_check(ring: OracleRing, max_grade_entry: int = 4,
                   samples: int = 200, seed: int = 0) -> bool:
    """Anti-homomorphism test between the inverse-data ring and the ring.

    For a of grade n in the inverse-data ring, tau(a) pulls a back along the
    grade-n power of the original automorphisms; the check is
    tau(a . b) = tau(b) * tau(a) on random homogeneous pairs, exactly.
    """
    exact_int(max_grade_entry, "max grade entry", at_least=0)
    exact_int(samples, "opposite samples", at_least=0)
    dual = ring.dual_ring()
    rng = random.Random(seed)

    def tau(x: RingElement) -> RingElement:
        img = pullback(ring.twist_power(x.grade), x.section)
        want = ring.graded_multidegree(x.grade)
        assert img.multidegree == want, "tau left the target graded piece"
        return RingElement(x.grade, img)

    for _ in range(samples):
        n = tuple(rng.randint(0, max_grade_entry) for _ in range(ring.s))
        m = tuple(rng.randint(0, max_grade_entry) for _ in range(ring.s))
        a = dual.random_element(n, rng)
        b = dual.random_element(m, rng)
        left = tau(dual.multiply(a, b))
        right = ring.multiply(tau(b), tau(a))
        if left.grade != right.grade or left.section != right.section:
            return False
    return True


def bergman_check(ring: OracleRing, triple) -> bool:
    """Coherence hexagon for the canonical reordering identifications.

    Each adjacent transposition is the canonical identification of the two
    expanded bundles; it exists when their multidegrees agree and the
    accumulated twists match projectively.  Canonical identifications
    compose to canonical identifications, so the hexagon commutes exactly
    when every edge on both paths exists.  An edge swaps neighbours x, y
    after a common prefix P: the twists P x y and P y x agree projectively
    because OracleRing rejects twists that do not commute projectively, and
    the multidegrees agree because the numerical shadow rejects classes
    with d_x + M_x d_y != d_y + M_y d_x (ClassCommutationFail) and the
    actions M_x, M_y, which move the bundles after the swap, commute (the
    permutations of projectively commuting twists do).  So on every ring that can be built every edge exists,
    and the check reduces to validating the triple.
    """
    if len(triple) != 3 or not all(0 <= t < ring.s for t in triple):
        raise ParseError(f"triple {list(triple)} needs three bundle indices "
                         f"in [0, {ring.s})")
    return True


@dataclass(frozen=True)
class MatchReport:
    checked: int
    skipped: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"checked": self.checked, "skipped": self.skipped,
                "mismatches": [list(m) for m in self.mismatches], "ok": self.ok}


def hilbert_match(ring: OracleRing, sys: BimoduleSystem, upto: int) -> MatchReport:
    """Compare oracle graded dimensions with the numerical count on a box.

    Grades whose expanded multidegree has a negative entry are skipped: there
    the section count and the signed count may legitimately differ.
    """
    exact_int(upto, "grade range", at_least=1)
    skipped = 0
    grades, dims, classes = [], [], []
    for n, coords, _ in _twisted_walk(sys, [range(1, upto + 1)] * ring.s):
        deg = ring.graded_multidegree(n)
        if any(a < 0 for a in deg):
            skipped += 1
            continue
        grades.append(n)
        dims.append(section_space_dim(deg))
        classes.append(coords)
    expected = _values(sys.scheme.euler, list(zip(*classes))) if classes else []
    mismatches = tuple((n, dim, e) for n, dim, e in zip(grades, dims, expected) if dim != e)
    return MatchReport(len(grades), skipped, mismatches)


def cross_validate(ring: OracleRing, sys: BimoduleSystem, *, grade_range: int,
                   samples: int, opposite_samples: int, seed: int,
                   triple) -> dict:
    """Every oracle check against one system, as a JSON-ready report.

    Dimensions on [1, grade_range]^s, `samples` random associativity
    triples with grade entries in [0, 2], the opposite-ring check, and the
    hexagon on `triple` unless it is None.  One seed drives both the
    triples and the opposite check.
    """
    exact_int(samples, "samples", at_least=0)
    match = hilbert_match(ring, sys, grade_range)
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        grades = [tuple(rng.randint(0, 2) for _ in range(ring.s))
                  for _ in range(3)]
        a, b, c = (ring.random_element(g, rng) for g in grades)
        lhs = ring.multiply(ring.multiply(a, b), c)
        rhs = ring.multiply(a, ring.multiply(b, c))
        if lhs.grade != rhs.grade or lhs.section != rhs.section:
            failures += 1
    report = {
        "hilbert": match.to_json(),
        "associativity": {"samples": samples, "failures": failures},
        "opposite_ok": opposite_check(ring, max_grade_entry=2,
                                      samples=opposite_samples, seed=seed),
    }
    if triple is not None:
        report["bergman_ok"] = bergman_check(ring, triple)
    report["ok"] = (match.ok and failures == 0 and report["opposite_ok"]
                    and report.get("bergman_ok", True))
    return report


def load_oracle(document) -> OracleRing:
    """Build the ring from a document's oracle member, cross-checking the
    declared bimodule matrices against the induced permutation actions.

    It runs the checks of OracleRing(d, pairs), with the same errors, on
    the declared matrices once they are known to be those actions."""
    document = _as_dict(document)
    if "oracle" not in document:
        raise ParseError("document has no oracle member")
    member = document["oracle"]
    try:
        d = strict_int(member["d"], "d")
        autos = [FactorAutomorphism(tuple(p - 1 for p in int_tuple(e["perm"], "perm entry")),
                                    tuple(_mob(rows) for rows in e["mobius"]))
                 for e in member["automorphisms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed oracle member: {exc}") from exc
    bims = _read_bimodules(document)
    if len(autos) != len(bims):
        raise ParseError("oracle automorphisms and bimodules differ in count")
    for i, (auto, bim) in enumerate(zip(autos, bims)):
        if auto.lattice_matrix() != bim.action:
            raise ParseError(
                f"bimodule {i} matrix is not the permutation action of its "
                f"automorphism")
    pairs = tuple((bim.divisor.coords, auto) for bim, auto in zip(bims, autos))
    return OracleRing._trusted(d, pairs, OracleRing._checked_shadow(
        d, pairs, (Bimodule(bim.divisor, bim.action) for bim in bims)))

import dataclasses
import itertools
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import run_optimized
from ncample.bimodule_system import dual as numeric_dual
from ncample.bimodule_system import (BimoduleSystem, class_at, load_system, make_system,
                                     system_to_document)
from ncample import section_oracle
from ncample.errors import ClassCommutationFail, DegreeMismatch, ParseError
from ncample.lattice_algebra import Matrix
from ncample.numeric_polynomials import MultiPoly
from ncample.scheme_model import p1_power_scheme
from ncample.section_oracle import (
    FactorAutomorphism,
    MatchReport,
    MultiSection,
    OracleRing,
    bergman_check,
    cross_validate,
    hilbert_match,
    load_oracle,
    monomial_basis,
    opposite_check,
    pullback,
    section_space_dim,
)

MOB_ID = [[1, 0], [0, 1]]


def swap_ring():
    sigma = FactorAutomorphism.build([2, 1], [MOB_ID, MOB_ID])
    return OracleRing(2, [((1, 0), sigma)])


def pair_ring():
    ident = FactorAutomorphism.identity(1)
    return OracleRing(1, [((1,), ident), ((1,), ident)])


def parabolic_ring():
    sigma = FactorAutomorphism.build([1], [[[1, 1], [0, 1]]])
    return OracleRing(1, [((1,), sigma)])


def diagonal_triple_ring():
    autos = [FactorAutomorphism.build([1], [[[2, 0], [0, 1]]]),
             FactorAutomorphism.build([1], [[[3, 0], [0, 1]]]),
             FactorAutomorphism.build([1], [[["1/2", 0], [0, 1]]])]
    return OracleRing(1, [((1,), autos[0]), ((2,), autos[1]), ((1,), autos[2])])


def mixed_triple_ring():
    sw = FactorAutomorphism.build([2, 1], [MOB_ID, MOB_ID])
    ident = FactorAutomorphism.identity(2)
    return OracleRing(2, [((1, 0), sw), ((1, 1), ident), ((1, 0), sw)])


ALL_RINGS = (swap_ring, pair_ring, parabolic_ring, diagonal_triple_ring,
             mixed_triple_ring)


def cycle_ring():
    # a 3-cycle is not its own inverse, so a walk that permutes the wrong
    # way round disagrees with composition here; on the swaps above it can't
    cyc = FactorAutomorphism.build([2, 3, 1], [MOB_ID] * 3)
    return OracleRing(3, [((2, 1, 0), cyc), ((3, 2, 1), cyc)])


def power(sigma, n):
    """sigma^n by repeated squaring, the reference map that
    fraction_power checks; the library walks one compose per grade."""
    base = sigma if n >= 0 else sigma.inverse()
    n = abs(n)
    result = FactorAutomorphism.identity(sigma.d)
    while n:
        if n & 1:
            result = result.compose(base)
        base = base.compose(base)
        n >>= 1
    return result


def mobius_walk_multidegree(ring, n):
    """Reference for graded_multidegree: compose the full automorphisms
    along the product and read each step's shift off the lattice action."""
    total = [0] * ring.d
    prefix = FactorAutomorphism.identity(ring.d)
    for (deg, sigma), n_a in zip(ring.pairs, n):
        inner = FactorAutomorphism.identity(ring.d)
        for _ in range(n_a):
            step = prefix.compose(inner).lattice_matrix().apply(deg)
            total = [t + x for t, x in zip(total, step)]
            inner = inner.compose(sigma)
        prefix = prefix.compose(power(sigma, n_a))
    return tuple(total)


def _rank(sections):
    keys = sorted({k for s in sections for k in s.terms})
    col = {k: j for j, k in enumerate(keys)}
    rows = []
    for s in sections:
        row = [Fraction(0)] * len(keys)
        for k, c in s.terms.items():
            row[col[k]] = c
        rows.append(row)
    rank = 0
    for j in range(len(keys)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][j]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestFactorAutomorphism:
    def test_compose_inverse(self):
        sigma = FactorAutomorphism.build([2, 1], [MOB_ID, [[2, 1], [1, 1]]])
        inv = sigma.inverse()
        both = sigma.compose(inv)
        assert both.perm == (0, 1)
        ident = FactorAutomorphism.identity(2)
        assert both.commutes_projectively(ident)

    def test_power_cycle(self):
        cyc = FactorAutomorphism.build([2, 3, 1], [MOB_ID] * 3)
        assert power(cyc, 3).perm == (0, 1, 2)
        assert power(cyc, -1).perm == cyc.inverse().perm

    def test_lattice_matrix_shadow(self):
        sw = FactorAutomorphism.build([2, 1], [MOB_ID, MOB_ID])
        assert sw.lattice_matrix().entries == ((0, 1), (1, 0))
        cyc = FactorAutomorphism.build([2, 3, 1], [MOB_ID] * 3)
        m = cyc.lattice_matrix()
        # degree vector permutes consistently with pullback
        deg = (5, 7, 11)
        sec = MultiSection.monomial(deg, (5, 0, 7, 0, 11, 0))
        assert pullback(cyc, sec).multidegree == tuple(m.apply(deg))

    def test_rejects_singular_mobius(self):
        with pytest.raises(ParseError):
            FactorAutomorphism.build([1], [[[1, 1], [1, 1]]])

    def test_rejects_non_permutation(self):
        with pytest.raises(ParseError):
            FactorAutomorphism.build([1, 1], [MOB_ID, MOB_ID])


class TestSectionSpaces:
    def test_dims(self):
        assert section_space_dim((3,)) == 4
        assert section_space_dim((2, 5)) == 18
        assert section_space_dim((-1, 4)) == 0
        assert len(monomial_basis((2, 1))) == 6
        assert monomial_basis((-1,)) == ()

    def test_cohomology_predicate(self):
        # degeneration: at -1 the section space is empty but cohomology
        # still vanishes, so the Euler value must be 0 there
        assert section_space_dim((-1,)) == 0

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3))
    def test_basis_count_matches_dim(self, deg):
        assert len(monomial_basis(deg)) == section_space_dim(deg)


class TestPullback:
    def test_swap_moves_variables(self):
        sw = FactorAutomorphism.build([2, 1], [MOB_ID, MOB_ID])
        x1 = MultiSection.monomial((1, 0), (1, 0, 0, 0))
        img = pullback(sw, x1)
        assert img.multidegree == (0, 1)
        assert img.terms == {(0, 0, 1, 0): Fraction(1)}

    def test_parabolic_substitution(self):
        par = FactorAutomorphism.build([1], [[[1, 1], [0, 1]]])
        x = MultiSection.monomial((1,), (1, 0))
        img = pullback(par, x)
        assert img.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        y = MultiSection.monomial((1,), (0, 1))
        assert pullback(par, y).terms == {(0, 1): Fraction(1)}

    def test_dimension_preservation(self):
        for make in ALL_RINGS:
            ring = make()
            for deg, sigma in ring.pairs:
                basis = monomial_basis(deg)
                images = [pullback(sigma, MultiSection.monomial(deg, k))
                          for k in basis]
                assert _rank(images) == len(basis)


class TestRingStructure:
    def test_swap_graded_dims(self):
        ring = swap_ring()
        for n in range(8):
            want = (-(-n // 2) + 1) * (n // 2 + 1)
            assert ring.graded_piece((n,)).dim == want

    def test_swap_product(self):
        ring = swap_ring()
        x1 = ring.element((1,), {(1, 0, 0, 0): 1})
        prod = ring.multiply(x1, x1)
        assert prod.grade == (2,)
        assert prod.section.terms == {(1, 0, 1, 0): Fraction(1)}

    def test_parabolic_products(self):
        ring = parabolic_ring()
        x = ring.element((1,), {(1, 0): 1})
        y = ring.element((1,), {(0, 1): 1})
        assert ring.multiply(x, y).section.terms == {(1, 1): Fraction(1)}
        xx = ring.multiply(x, x)
        assert xx.section.terms == \
            {(2, 0): Fraction(1), (1, 1): Fraction(1)}

    def test_degree_mismatch_rejected(self):
        ring = swap_ring()
        bad = ring.element((2,), {})
        forged = type(bad)(grade=(1,), section=bad.section)
        with pytest.raises(DegreeMismatch):
            ring.multiply(forged, bad)

    def test_bilinearity(self):
        ring = parabolic_ring()
        rng = random.Random(3)
        for _ in range(20):
            a = ring.random_element((2,), rng)
            b = ring.random_element((1,), rng)
            c = ring.random_element((1,), rng)
            bc = type(b)(grade=b.grade, section=b.section + c.section)
            lhs = ring.multiply(a, bc).section
            rhs = ring.multiply(a, b).section + ring.multiply(a, c).section
            assert lhs == rhs

    def test_associativity_samples(self):
        for make in ALL_RINGS:
            ring = make()
            report = cross_validate(ring, ring.numerical_shadow(),
                                    grade_range=1, samples=25,
                                    opposite_samples=0, seed=11, triple=None)
            assert report["associativity"] == {"samples": 25, "failures": 0}

    def test_multidegree_matches_mobius_walk(self):
        for make in ALL_RINGS + (cycle_ring,):
            ring = make()
            for n in itertools.product(range(5), repeat=ring.s):
                assert ring.graded_multidegree(n) == \
                    mobius_walk_multidegree(ring, n), (make.__name__, n)

    def test_multiply_walks_each_grade_once(self, monkeypatch):
        real_compose = FactorAutomorphism.compose
        real_step = OracleRing._degree_step
        images = section_oracle._factor_images
        for make in ALL_RINGS + (cycle_ring, scaled_ring):
            # a fresh ring, counted after its commutation checks compose
            ring = make()
            composes, steps, requested = [], [], []
            monkeypatch.setattr(FactorAutomorphism, "compose",
                                lambda f, g: composes.append(f) or real_compose(f, g))
            monkeypatch.setattr(OracleRing, "_degree_step",
                                lambda r, walked, a: steps.append(a) or real_step(r, walked, a))
            monkeypatch.setattr(section_oracle, "_factor_images",
                                lambda g, a: requested.append((g, a)) or images(g, a))
            images.cache_clear()
            rng = random.Random(4)
            grades = list(itertools.product(range(3), repeat=ring.s))
            for n, m in itertools.product(grades, repeat=2):
                ring.multiply(ring.random_element(n, rng), ring.random_element(m, rng))
            # one compose per nonzero left grade, one multidegree step per
            # nonzero grade of [0, 4]^s, where the products land, and one
            # expansion per (map, degree)
            assert len(composes) <= len(grades) - 1, make.__name__
            assert len(steps) <= 5 ** ring.s - 1, make.__name__
            assert images.cache_info().misses == len(set(requested)), make.__name__
            monkeypatch.undo()

    def test_negative_multidegree_multiplies_as_zero(self):
        # a piece of negative multidegree has no sections; pulling its zero
        # section back along a map with denominator 2 adds no denominator
        half = FactorAutomorphism.build([1], [[["1/2", "0"], ["0", "1"]]])
        assert half.mobius[0][4] == 2
        ring = OracleRing(1, [((-1,), half)])
        zero = ring.element((1,), {})
        product = ring.multiply(zero, zero)
        assert product.grade == (2,)
        assert (product.section.multidegree, product.section.codes,
                product.section.den) == ((-2,), {}, 1)
        assert pullback(half, zero.section) == MultiSection((-1,), {})

    def test_noncommuting_autos_rejected(self):
        rot = FactorAutomorphism.build([1], [[[0, -1], [1, 0]]])
        par = FactorAutomorphism.build([1], [[[1, 1], [0, 1]]])
        with pytest.raises(ParseError):
            OracleRing(1, [((1,), rot), ((1,), par)])


def per_grade_hilbert_match(ring, sys, upto):
    """hilbert_match with the Euler polynomial evaluated grade by grade
    (the reference)."""
    skipped = 0
    checked = []
    for n in itertools.product(range(1, upto + 1), repeat=ring.s):
        deg = ring.graded_multidegree(n)
        if any(a < 0 for a in deg):
            skipped += 1
        else:
            checked.append((n, section_space_dim(deg),
                            sys.scheme.euler_at(class_at(sys, n))))
    return MatchReport(len(checked), skipped,
                       tuple(case for case in checked if case[1] != case[2]))


class TestCrossValidation:
    def test_hilbert_match_all_rings(self):
        for make in ALL_RINGS:
            ring = make()
            rep = hilbert_match(ring, ring.numerical_shadow(), 4)
            assert rep.ok, (make.__name__, rep.to_json())
            assert rep.checked == 4 ** ring.s

    def test_hilbert_match_against_per_grade_euler(self):
        # skipped grades, and wrong Euler coefficients that miss some grades
        # or all of them, in walk order
        ident = FactorAutomorphism.identity(2)
        skipping = OracleRing(2, [((1, -1), ident), ((-1, 2), ident)])
        cases = [(make(), make().numerical_shadow()) for make in ALL_RINGS]
        cases += [(load_oracle(doc), load_system(doc)) for _, doc in oracle_documents()]
        cases.append((skipping, skipping.numerical_shadow()))
        for make in (swap_ring, mixed_triple_ring):
            ring = make()
            shadow = ring.numerical_shadow()
            euler = shadow.scheme.euler
            wrong = dataclasses.replace(shadow.scheme, euler=MultiPoly(
                euler.nvars, {**euler.terms, (2, 0): 1}))
            cases.append((ring, BimoduleSystem(wrong, shadow.bimodules)))
        for ring, sys in cases:
            for upto in (1, 4):
                assert hilbert_match(ring, sys, upto) == \
                    per_grade_hilbert_match(ring, sys, upto)
        assert hilbert_match(*cases[-3], 4).skipped == 8
        assert [m[0] for m in hilbert_match(*cases[-2], 4).mismatches] == [(3,), (4,)]
        assert len(hilbert_match(*cases[-1], 4).mismatches) == 64

    def test_opposite_all_rings(self):
        for make in ALL_RINGS:
            assert opposite_check(make(), max_grade_entry=2, samples=20,
                                  seed=7), make.__name__

    def test_bergman_triples(self):
        for make in (diagonal_triple_ring, mixed_triple_ring):
            assert bergman_check(make(), (0, 1, 2)), make.__name__

    def test_dual_ring_shadow(self):
        for make in ALL_RINGS:
            ring = make()
            dual = ring.dual_ring()
            lhs = system_to_document(dual.numerical_shadow())
            rhs = system_to_document(numeric_dual(ring.numerical_shadow()))
            assert lhs["bimodules"] == rhs["bimodules"]
            # dual_ring skips validation; the checked constructor agrees
            checked = OracleRing(dual.d, dual.pairs)
            assert (checked.pairs, checked.numerical_shadow()) == \
                (dual.pairs, dual.numerical_shadow())


# The rational algebra the integer kernels replaced, kept as their
# reference: a map is (perm, Moebius rows over Fraction), a section a
# (multidegree, terms) pair.

def fraction_mob_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def fraction_mob_inv(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] / det, -a[0][1] / det), (-a[1][0] / det, a[0][0] / det))


def fraction_compose(f, g):
    (perm_f, mob_f), (perm_g, mob_g) = f, g
    return (tuple(perm_g[p] for p in perm_f),
            tuple(fraction_mob_mul(mob_f[k], mob_g[p]) for k, p in enumerate(perm_f)))


def fraction_inverse(f):
    perm, mob = f
    inv_perm = [0] * len(perm)
    for k, p in enumerate(perm):
        inv_perm[p] = k
    return tuple(inv_perm), tuple(fraction_mob_inv(mob[k]) for k in inv_perm)


def fraction_power(f, n):
    base = f if n >= 0 else fraction_inverse(f)
    one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    result = (tuple(range(len(f[0]))), (one,) * len(f[0]))
    for _ in range(abs(n)):
        result = fraction_compose(result, base)
    return result


def fraction_section_mul(a, b):
    (deg_a, terms_a), (deg_b, terms_b) = a, b
    out = {}
    for ka, ca in terms_a.items():
        for kb, cb in terms_b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            c = out.get(key, Fraction(0)) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return tuple(x + y for x, y in zip(deg_a, deg_b)), out


def fraction_section_add(a, terms_b):
    deg, out = a[0], dict(a[1])
    for key, c in terms_b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return deg, {k: c for k, c in out.items() if c}


def fraction_pullback(f, section):
    (perm, mob), (deg, terms) = f, section
    d = len(perm)
    new_deg = [0] * d
    for k in range(d):
        new_deg[perm[k]] += deg[k]
    result = {}
    for key, coeff in terms.items():
        term = ((0,) * d, {(0,) * (2 * d): coeff})
        for k in range(d):
            (alpha, beta), (gamma, delta) = mob[k]
            j = perm[k]
            unit = tuple(int(i == j) for i in range(d))
            x, y = [0] * (2 * d), [0] * (2 * d)
            x[2 * j] = y[2 * j + 1] = 1
            x_img = (unit, {k2: c for k2, c in ((tuple(x), alpha), (tuple(y), beta)) if c})
            y_img = (unit, {k2: c for k2, c in ((tuple(x), gamma), (tuple(y), delta)) if c})
            for _ in range(key[2 * k]):
                term = fraction_section_mul(term, x_img)
            for _ in range(key[2 * k + 1]):
                term = fraction_section_mul(term, y_img)
        for k2, c in term[1].items():
            c = result.get(k2, Fraction(0)) + c
            if c:
                result[k2] = c
            else:
                del result[k2]
    return tuple(new_deg), result


def fraction_rows(sigma):
    """Each factor of a FactorAutomorphism as Fraction rows."""
    return tuple(((Fraction(a, den), Fraction(b, den)), (Fraction(c, den), Fraction(d, den)))
                 for a, b, c, d, den in sigma.mobius)


def random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5)))


def random_map(rng, d):
    """A factor automorphism with rational, mostly non-unimodular factors,
    as the library map and its Fraction reference."""
    perm = list(range(d))
    rng.shuffle(perm)
    rows = []
    for _ in range(d):
        while True:
            m = ((random_rational(rng), random_rational(rng)),
                 (random_rational(rng), random_rational(rng)))
            if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
                break
        rows.append(m)
    sigma = FactorAutomorphism.build([p + 1 for p in perm],
                                     [[[str(x) for x in r] for r in m] for m in rows])
    return sigma, (tuple(perm), tuple(rows))


def random_section(rng, deg):
    terms = {k: random_rational(rng) for k in monomial_basis(deg)}
    return MultiSection(tuple(deg), {k: c for k, c in terms.items() if c})


class TestAgainstFractionAlgebra:
    """compose, inverse, power, pullback and section products against the
    Fraction algebra they replaced, on maps with det != +-1."""

    def test_maps(self):
        rng = random.Random(20)
        unimodular = 0
        for _ in range(150):
            d = rng.randint(1, 3)
            (f, ref_f), (g, ref_g) = random_map(rng, d), random_map(rng, d)
            unimodular += all(abs(a * e - b * c) == 1
                              for (a, b), (c, e) in ref_f[1])
            n = rng.randint(-4, 4)
            for got, want in ((f.compose(g), fraction_compose(ref_f, ref_g)),
                              (f.inverse(), fraction_inverse(ref_f)),
                              (power(f, n), fraction_power(ref_f, n))):
                assert got.perm == want[0]
                assert fraction_rows(got) == want[1]
        assert unimodular < 5

    def test_pullback_and_products(self):
        rng = random.Random(21)
        for _ in range(150):
            d = rng.randint(1, 3)
            f, ref_f = random_map(rng, d)
            sec = random_section(rng, [rng.randint(0, 3) for _ in range(d)])
            other = random_section(rng, [rng.randint(0, 2) for _ in range(d)])
            ref_sec = (sec.multidegree, sec.terms)
            n = rng.randint(-3, 3)
            for g, ref_g in ((f, ref_f), (f.inverse(), fraction_inverse(ref_f)),
                             (power(f, n), fraction_power(ref_f, n))):
                img = pullback(g, sec)
                assert (img.multidegree, img.terms) == fraction_pullback(ref_g, ref_sec)
            prod = sec * other
            assert (prod.multidegree, prod.terms) == \
                fraction_section_mul(ref_sec, (other.multidegree, other.terms))
        # multidegrees with zero entries, operands of unequal degree, sums,
        # and == between a section built from its terms and the same
        # section reached by a product or a pullback
        rng = random.Random(23)
        for _ in range(60):
            d = rng.randint(1, 3)
            f, ref_f = random_map(rng, d)
            sec = random_section(rng, [rng.choice((0, 0, 1, 3)) for _ in range(d)])
            summand = random_section(rng, sec.multidegree)
            other = random_section(rng, [rng.choice((0, 1, 2)) for _ in range(d)])
            ref_sec = (sec.multidegree, sec.terms)
            ref_other = (other.multidegree, other.terms)
            total = sec + summand
            assert (total.multidegree, total.terms) == \
                fraction_section_add(ref_sec, summand.terms)
            img = pullback(f, other)
            want_img = fraction_pullback(ref_f, ref_other)
            for got, want in ((sec * other, fraction_section_mul(ref_sec, ref_other)),
                              (other * sec, fraction_section_mul(ref_other, ref_sec)),
                              (img, want_img),
                              (total * img, fraction_section_mul(
                                  fraction_section_add(ref_sec, summand.terms), want_img))):
                assert (got.multidegree, got.terms) == want
                assert MultiSection(*want) == got
                assert MultiSection(got.multidegree, got.terms) == got

    def test_inverse_is_exact(self):
        # the dual ring needs the inverse itself: diag(2, 1) and its
        # adjugate diag(1, 2) agree only up to scale
        f = FactorAutomorphism.build([1], [[["2", "0"], ["0", "1"]]])
        x = MultiSection.monomial((1,), (1, 0))
        assert pullback(f.inverse(), x).terms == {(1, 0): Fraction(1, 2)}
        assert pullback(f.compose(f.inverse()), x) == x

    def test_rational_diagonal_ring_cross_validates(self):
        shrink = [["-3/4", "0"], ["0", "1"]]
        scale = [["1/2", "0"], ["0", "5/3"]]
        ring = OracleRing(2, [
            ((1, 0), FactorAutomorphism.build([2, 1], [shrink, shrink])),
            ((1, 1), FactorAutomorphism.build([1, 2], [scale, scale]))])
        report = cross_validate(ring, ring.numerical_shadow(), grade_range=2,
                                samples=10, opposite_samples=10, seed=5,
                                triple=(0, 1, 0))
        assert report["ok"], report


def fraction_random_terms(basis, rng):
    """The Fraction draw random_element made before sections were kept
    fraction-free, as its reference."""
    terms = {}
    for key in basis:
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))
        if c:
            terms[key] = c
    return terms


def scaled_ring():
    # integer Moebius entries with det 2 and -2, as in the benchmark's rings
    sw = FactorAutomorphism.build([2, 1], [[[2, 0], [0, 1]]] * 2)
    sc = FactorAutomorphism.build([1, 2], [[[-2, 0], [0, 1]]] * 2)
    return OracleRing(2, [((1, 0), sw), ((1, 1), sc)])


def in_lowest_terms(section):
    return (section.den > 0 and all(section.numerators.values())
            and gcd(section.den, *section.numerators.values()) == 1)


class TestFractionFreeSections:
    """Sections are integer numerators over one positive denominator in
    lowest terms; terms still reads them as Fractions."""

    def test_equal_rationals_give_equal_sections(self):
        deg, x, y = (1,), (1, 0), (0, 1)
        half = MultiSection(deg, {x: Fraction(2, 4), y: 3})
        assert half == MultiSection(deg, {x: Fraction(1, 2), y: Fraction(6, 2)})
        assert (half.numerators, half.den) == ({x: 1, y: 6}, 2)
        assert half.terms == {x: Fraction(1, 2), y: Fraction(3)}
        assert MultiSection(deg, {x: 2}) == MultiSection(deg, {x: Fraction(2)})

    def test_cancelling_sum_is_zero(self):
        deg, x = (1, 1), (1, 0, 0, 1)
        a = MultiSection(deg, {x: Fraction(1, 3), (0, 1, 1, 0): Fraction(1, 2)})
        b = MultiSection(deg, {x: Fraction(-1, 3), (0, 1, 1, 0): Fraction(-1, 2)})
        zero = a + b
        assert zero == MultiSection(deg, {})
        assert (zero.numerators, zero.den, zero.terms) == ({}, 1, {})
        assert a + MultiSection(deg, {x: Fraction(2, 3)}) == \
            MultiSection(deg, {x: 1, (0, 1, 1, 0): Fraction(1, 2)})

    def test_results_stay_in_lowest_terms(self):
        rng = random.Random(22)
        for _ in range(60):
            d = rng.randint(1, 3)
            f, _ = random_map(rng, d)
            sec = random_section(rng, [rng.randint(0, 2) for _ in range(d)])
            other = random_section(rng, sec.multidegree)
            for result in (pullback(f, sec), sec * other, sec + other,
                           pullback(f.inverse(), sec * sec)):
                assert in_lowest_terms(result), result
        ring = scaled_ring()
        for _ in range(60):
            assert in_lowest_terms(ring.random_element((rng.randint(0, 2), 1), rng).section)

    def test_random_element_matches_fraction_draw(self):
        for i in range(200):
            ring = (ALL_RINGS + (scaled_ring,))[i % 6]()
            grade = tuple(random.Random(i).randint(0, 3) for _ in range(ring.s))
            rng, ref_rng = random.Random(1000 + i), random.Random(1000 + i)
            got = ring.random_element(grade, rng)
            piece = ring.graded_piece(grade)
            want = fraction_random_terms(piece.basis, ref_rng)
            assert got.section.terms == want
            assert got.section == MultiSection(piece.multidegree, want)
            assert rng.random() == ref_rng.random()

    def test_integer_mobius_paths_build_no_fraction(self, monkeypatch):
        ring = scaled_ring()
        rng = random.Random(9)
        built = []
        monkeypatch.setattr(section_oracle, "Fraction",
                            lambda *args: built.append(args) or Fraction(*args))
        for _ in range(30):
            grades = [tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(3)]
            a, b, c = (ring.random_element(g, rng) for g in grades)
            left = ring.multiply(ring.multiply(a, b), c)
            assert left == ring.multiply(a, ring.multiply(b, c))
            moved = pullback(ring.twist_power(c.grade), a.section)
            assert moved + moved == pullback(ring.twist_power(c.grade),
                                             a.section + a.section)
        assert built == []


DATA = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def oracle_documents():
    """(name, document) for every data/ document with an oracle member."""
    out = []
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".json"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            if "oracle" in doc:
                out.append((name, doc))
    return out


def oracle_doc(d, bundles):
    """A document from (divisor, matrix, perm, mobius) bundles."""
    return {"bimodules": [{"divisor": div, "matrix": mat} for div, mat, _, _ in bundles],
            "oracle": {"d": d, "automorphisms": [{"perm": perm, "mobius": mob}
                                                 for _, _, perm, mob in bundles]}}


ONE = [["1", "0"], ["0", "1"]]
ROTATION = [["0", "-1"], ["1", "0"]]
SHEAR = [["1", "1"], ["0", "1"]]
SWAP = [[0, 1], [1, 0]]
IDENTITY = [[1, 0], [0, 1]]

# documents load_oracle must refuse, with the error the checked
# constructor gives: the class, and the start of its message
BAD_ORACLE_DOCUMENTS = [
    (oracle_doc(1, [([1], [[1]], [1], [ROTATION]), ([1], [[1]], [1], [SHEAR])]),
     ParseError, "automorphisms 0 and 1 do not commute projectively"),
    (oracle_doc(2, [([1, 0], SWAP, [2, 1], [ONE, ONE]),
                    ([1, 0], IDENTITY, [1, 2], [ONE, ONE])]),
     ClassCommutationFail, "bimodules at positions 0 and 1"),
    # the wrong matrix is reported before the maps' commutation
    (oracle_doc(1, [([1], [[-1]], [1], [ROTATION]), ([1], [[1]], [1], [SHEAR])]),
     ParseError, "bimodule 0 matrix is not the permutation action"),
    (oracle_doc(1, [([1], [[1]], [1], [[["1", "0"]]])]),
     ParseError, "a Moebius matrix is 2x2"),
    (oracle_doc(1, [([1], [[1]], [1], [[["1/0", "0"], ["0", "1"]]])]),
     ParseError, "a Moebius entry must be a rational number"),
    (oracle_doc(1, [([1], [[1]], [1], [[["1", "2"], ["2", "4"]]])]),
     ParseError, "singular Moebius matrix"),
    (oracle_doc(1, [([1], [[1]], [1], [[[1, 0], [0, 1], [0, 0]]])]),
     ParseError, "a Moebius matrix is 2x2"),
    # a perm that is not a JSON array is not read digit by digit or key by key
    (oracle_doc(2, [([1, 0], SWAP, "21", [ONE, ONE])]),
     ParseError, "expected a JSON array of integers for perm entry, got '21'"),
    (oracle_doc(2, [([1, 0], SWAP, {"2": 0, "1": 0}, [ONE, ONE])]),
     ParseError, "expected a JSON array of integers for perm entry, got {'2': 0, '1': 0}"),
]


class TestLoadOracle:
    def _doc(self):
        return oracle_doc(2, [([1, 0], SWAP, [2, 1], [ONE, ONE])])

    def test_round_trip(self):
        ring = load_oracle(self._doc())
        assert ring.graded_piece((3,)).dim == 6

    def test_rejects_shadow_mismatch(self):
        doc = self._doc()
        doc["bimodules"][0]["matrix"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError):
            load_oracle(doc)

    def test_equal_pairs_checked_once(self, monkeypatch):
        commuted, classes = [], []
        real = FactorAutomorphism.commutes_projectively
        monkeypatch.setattr(FactorAutomorphism, "commutes_projectively",
                            lambda a, b: commuted.append(1) or real(a, b))
        check = section_oracle._check_classes_commute
        monkeypatch.setattr(section_oracle, "_check_classes_commute",
                            lambda bims, i, j: classes.append((i, j)) or check(bims, i, j))
        ident = FactorAutomorphism.identity(1)
        assert OracleRing(1, [((1,), ident)] * 30).s == 30
        assert (commuted, classes) == ([], [])
        # repeats do not move the first failing pair
        doc = oracle_doc(1, [([1], [[1]], [1], [ROTATION]), ([1], [[1]], [1], [ROTATION]),
                             ([1], [[1]], [1], [SHEAR])])
        with pytest.raises(ParseError, match="automorphisms 0 and 2 do not commute"):
            load_oracle(doc)

    def test_rejects_missing_member(self):
        with pytest.raises(ParseError):
            load_oracle({"bimodules": []})
        doc = self._doc()
        del doc["oracle"]
        with pytest.raises(ParseError, match="document has no oracle member"):
            load_oracle(json.dumps(doc))

    def test_reads_text_as_load_system_does(self):
        # one parser: JSON text or bytes give the ring the dict gives
        doc = self._doc()
        ring = load_oracle(doc)
        for text in (json.dumps(doc), json.dumps(doc).encode()):
            other = load_oracle(text)
            assert (other.d, other.pairs, other._shadow) == (ring.d, ring.pairs, ring._shadow)
        for bad, message in ((None, "cannot read a document from NoneType"),
                             ([doc], "cannot read a document from list"),
                             ("[1]", "top-level JSON value must be an object"),
                             ("{", "invalid JSON")):
            with pytest.raises(ParseError, match=message):
                load_oracle(bad)

    def test_rejects_count_mismatch(self):
        doc = self._doc()
        doc["oracle"]["automorphisms"] = []
        with pytest.raises(ParseError):
            load_oracle(doc)

    def test_rejects_bad_documents(self):
        for doc, error, message in BAD_ORACLE_DOCUMENTS:
            with pytest.raises(error) as info:
                load_oracle(doc)
            assert type(info.value) is error
            assert str(info.value).startswith(message), str(info.value)

    def test_empty_ring_rejected(self):
        for d in (0, 2):
            with pytest.raises(ParseError):
                load_oracle(oracle_doc(d, []))

    def test_shadow_is_the_checked_system(self):
        for name, doc in oracle_documents():
            member = doc["oracle"]
            autos = [FactorAutomorphism.build(e["perm"], e["mobius"])
                     for e in member["automorphisms"]]
            checked = make_system(p1_power_scheme(member["d"]), [
                (bim["divisor"], auto.lattice_matrix())
                for bim, auto in zip(doc["bimodules"], autos)])
            assert load_oracle(doc).numerical_shadow() == checked, name

    def test_each_fact_checked_once(self, monkeypatch):
        # one permutation action per automorphism, and no determinant, from
        # the constructor and from documents, whose shadow is built from
        # the matrices already compared
        real_lattice, real_det = FactorAutomorphism.lattice_matrix, Matrix.det
        lattice, dets = [], []
        monkeypatch.setattr(FactorAutomorphism, "lattice_matrix",
                            lambda f: lattice.append(f) or real_lattice(f))
        monkeypatch.setattr(Matrix, "det", lambda m: dets.append(m) or real_det(m))
        builds = [(make.__name__, make) for make in ALL_RINGS]
        builds += [(name, lambda doc=doc: load_oracle(doc)) for name, doc in oracle_documents()]
        for name, build in builds:
            lattice.clear()
            ring = build()
            assert len(lattice) == ring.s, name
            assert dets == [], name


_BAD_ARGUMENTS = """
import random
from ncample.errors import ClassCommutationFail, ParseError
from ncample.section_oracle import (FactorAutomorphism, MultiSection, OracleRing,
                                    bergman_check, cross_validate, hilbert_match,
                                    load_oracle, monomial_basis, opposite_check,
                                    pullback, section_space_dim)

ident = FactorAutomorphism.identity(1)
swap = FactorAutomorphism.build([2, 1], [[[1, 0], [0, 1]]] * 2)
swap_ring = OracleRing(2, [((1, 0), swap)])
pair_ring = OracleRing(1, [((1,), ident), ((1,), ident)])
pair_sys = pair_ring.numerical_shadow()
one = [[1, 0], [0, 1]]
for call in (lambda: swap_ring.graded_multidegree((-2,)),
             lambda: swap_ring.graded_multidegree((1, 5)),
             lambda: bergman_check(pair_ring, (-1, 0, 1)),
             lambda: bergman_check(pair_ring, (0, 1, 2)),
             lambda: FactorAutomorphism.build([1, 1], [one, one]),
             lambda: FactorAutomorphism.build([2, 1], [one]),
             lambda: FactorAutomorphism.build([1], [[[1, 2], [2, 4]]]),
             lambda: FactorAutomorphism.build([1], [[[1, 0]]]),
             lambda: MultiSection((1,), {(2, 0): 1}),
             lambda: MultiSection((1,), {(1,): 1}),
             lambda: MultiSection((1,), {(2, -1): 1}),
             lambda: MultiSection((1,), {(1, 0): 0}),
             lambda: MultiSection.monomial((1,), (1, 0))
                     + MultiSection.monomial((2,), (1, 1)),
             lambda: FactorAutomorphism.identity(2).compose(FactorAutomorphism.identity(3)),
             lambda: pullback(FactorAutomorphism.identity(2),
                              MultiSection.monomial((1,), (1, 0))),
             lambda: MultiSection((1,), {(1, 0): 0.5}),
             lambda: MultiSection((1,), {(1.0, 0): 1}),
             lambda: MultiSection((1,), {(True, False): 1}),
             lambda: MultiSection((1,), {(1, 0): True}),
             lambda: opposite_check(pair_ring, max_grade_entry=-1),
             lambda: opposite_check(pair_ring, samples=-1),
             lambda: hilbert_match(pair_ring, pair_sys, 0),
             lambda: cross_validate(pair_ring, pair_sys, grade_range=1, samples=-1,
                                    opposite_samples=0, seed=0, triple=None),
             lambda: cross_validate(pair_ring, pair_sys, grade_range=1, samples=0,
                                    opposite_samples=-1, seed=0, triple=None),
             lambda: OracleRing(2.7, [((1, 0), swap)]),
             lambda: OracleRing(2, [((1.9, 0), swap)]),
             lambda: OracleRing(2, [((True, 0), swap)]),
             lambda: FactorAutomorphism.build([2.5, 1], [one, one]),
             lambda: FactorAutomorphism.build(["2", 1], [one, one]),
             lambda: swap_ring.graded_multidegree((1.5,)),
             lambda: swap_ring.twist_power((2.5,)),
             lambda: swap_ring.twist_power((1, 5)),
             lambda: swap_ring.twist_power((-1,)),
             lambda: swap_ring.random_element((1.5,), random.Random(0)),
             lambda: swap_ring.graded_piece((True,)),
             lambda: monomial_basis((1.5,)),
             lambda: section_space_dim((1.5, 2)),
             lambda: MultiSection((1.5,), {}),
             lambda: MultiSection.monomial((1.0,), (1, 0)),
             lambda: hilbert_match(pair_ring, pair_sys, 2.5),
             lambda: opposite_check(pair_ring, max_grade_entry=1.5),
             lambda: opposite_check(pair_ring, samples=1.5),
             lambda: cross_validate(pair_ring, pair_sys, grade_range=1, samples=1.5,
                                    opposite_samples=0, seed=0, triple=None),
             # bools are not ints for any of the one-call checks
             lambda: OracleRing(True, [((1,), ident)]),
             lambda: FactorAutomorphism.build([True], [one]),
             lambda: monomial_basis((True,)),
             lambda: section_space_dim((1, True)),
             lambda: hilbert_match(pair_ring, pair_sys, True),
             lambda: opposite_check(pair_ring, samples=True),
             lambda: cross_validate(pair_ring, pair_sys, grade_range=1, samples=True,
                                    opposite_samples=0, seed=0, triple=None)):
    try:
        print(call())
    except ParseError:
        print("ParseError")
for doc in DOCUMENTS:
    try:
        print(load_oracle(doc))
    except (ParseError, ClassCommutationFail) as exc:
        print(type(exc).__name__)
""".replace("DOCUMENTS", repr([doc for doc, _, _ in BAD_ORACLE_DOCUMENTS]))


def test_bad_arguments_rejected_under_optimize():
    # python -O strips asserts, so this fails wherever validation is an assert
    assert run_optimized(_BAD_ARGUMENTS) == \
        ["ParseError"] * 50 + [error.__name__ for _, error, _ in BAD_ORACLE_DOCUMENTS]

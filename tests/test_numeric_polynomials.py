import functools
import itertools
import math
import operator
import os
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ample_corpus, duality_corpus, unipotent_corpus
from ncample.ampleness import nc_ample_verdict, quasi_unipotent_screen
from ncample.bimodule_system import (branch_class_polys, load_system, product,
                                     symbolic_class, veronese)
from ncample import numeric_polynomials
from ncample.errors import NotIntegerValued, ParseError
from ncample.numeric_polynomials import (
    MultiPoly,
    _restrict_to_ray,
    binom_int,
    box_sum,
    compose,
    eventually_positive,
)


def box_polys(max_exps, max_terms=3, max_coeff=4):
    """Integer combinations of binomial-basis terms whose exponent of n_j is
    at most max_exps[j]."""
    expt = st.tuples(*(st.integers(min_value=0, max_value=e) for e in max_exps))
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff)
    return st.dictionaries(expt, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(len(max_exps), {k: v for k, v in terms.items() if v}))


def small_polys(nvars, max_terms=4, max_exp=3, max_coeff=4):
    """Integer combinations of binomial-basis terms."""
    return box_polys((max_exp,) * nvars, max_terms, max_coeff)


class TestBinomInt:
    def test_values(self):
        assert binom_int(5, 2) == 10
        assert binom_int(0, 0) == 1
        assert binom_int(3, 5) == 0
        assert binom_int(-1, 2) == 1
        assert binom_int(-2, 3) == -4

    def test_pascal(self):
        for n in range(-6, 7):
            for k in range(1, 6):
                assert binom_int(n, k) == binom_int(n - 1, k) + binom_int(n - 1, k - 1)


class TestMultiPoly:
    def test_integer_valued_rejection(self):
        # n^2/2 alone is not integer valued
        with pytest.raises(NotIntegerValued):
            MultiPoly.from_monomials(1, {(2,): Fraction(1, 2)})
        # (n^2 + n)/2 is
        p = MultiPoly.from_monomials(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
        assert [p.evaluate((n,)) for n in range(5)] == [0, 1, 3, 6, 10]

    @settings(max_examples=60)
    @given(small_polys(2))
    def test_monomial_round_trip(self, p):
        q = MultiPoly.from_monomials(2, p.to_monomials())
        assert q == p

    def test_integer_monomials_convert_without_denominator(self):
        # int coefficients skip the lcm and the division; the result is
        # the one the rational path gives
        monomials = {(2, 1): 3, (0, 1): -2, (1, 0): 1}
        p = MultiPoly.from_monomials(2, monomials)
        assert p == MultiPoly.from_monomials(2, {k: Fraction(c) for k, c in monomials.items()})
        assert p.to_monomials() == monomials

    @settings(max_examples=60)
    @given(small_polys(2), small_polys(2))
    def test_built_polynomials_pass_the_check(self, p, q):
        # products, compositions and box sums are built unchecked; each
        # must still be a valid polynomial
        for r in (p * q, compose(p, [q, p]), box_sum(p)):
            assert MultiPoly(r.nvars, dict(r.terms)) == r

    @settings(max_examples=60)
    @given(small_polys(2), small_polys(2))
    def test_addition_pointwise(self, p, q):
        for pt in itertools.product(range(-2, 3), repeat=2):
            assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)

    @settings(max_examples=40)
    @given(small_polys(2, max_terms=3, max_exp=2), small_polys(2, max_terms=3, max_exp=2))
    def test_multiplication_pointwise(self, p, q):
        for pt in itertools.product(range(-2, 3), repeat=2):
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    def test_disjoint_variable_product(self):
        # (n1 + 1)(n2 + 1) assembled from single-variable factors
        a = MultiPoly.from_monomials(2, {(1, 0): 1, (0, 0): 1})
        b = MultiPoly.from_monomials(2, {(0, 1): 1, (0, 0): 1})
        prod = a * b
        for pt in itertools.product(range(0, 5), repeat=2):
            assert prod.evaluate(pt) == (pt[0] + 1) * (pt[1] + 1)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=3).flatmap(lambda s: st.tuples(
        small_polys(s), st.tuples(*[st.integers(min_value=-4, max_value=4)] * s))))
    def test_shift_pointwise(self, case):
        p, t = case
        shifted = p.shift(t)
        assert MultiPoly(p.nvars, dict(shifted.terms)) == shifted
        for pt in itertools.product(range(-2, 4), repeat=p.nvars):
            moved = tuple(x + y for x, y in zip(pt, t))
            assert shifted.evaluate(pt) == p.evaluate(moved)

    def test_degrees(self):
        p = MultiPoly.from_monomials(2, {(3, 1): 2, (0, 2): 1})
        assert p.total_degree() == 4
        assert p.degree_in(0) == 3
        assert p.degree_in(1) == 2
        assert MultiPoly.zero(2).total_degree() == -1

    def test_constant_term(self):
        p = MultiPoly.from_monomials(1, {(0,): 7, (1,): 2})
        assert p.constant_term == 7

    def test_to_json_sorted(self):
        p = MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): 2})
        doc = p.to_json()
        assert doc["basis"] == "binomial"
        assert doc["nvars"] == 2
        assert [t["exponents"] for t in doc["terms"]] == sorted(
            t["exponents"] for t in doc["terms"])


class TestBoxSum:
    @settings(max_examples=30)
    @given(small_polys(2, max_terms=3, max_exp=3))
    def test_matches_literal_sum(self, p):
        f = box_sum(p)
        for n in range(0, 8):
            literal = sum(p.evaluate(pt)
                          for pt in itertools.product(range(1, n + 1), repeat=2))
            assert f.evaluate((n,)) == literal

    @settings(max_examples=20)
    @given(small_polys(3, max_terms=2, max_exp=2))
    def test_matches_literal_sum_three_vars(self, p):
        f = box_sum(p)
        for n in range(0, 5):
            literal = sum(p.evaluate(pt)
                          for pt in itertools.product(range(1, n + 1), repeat=3))
            assert f.evaluate((n,)) == literal

    def test_degree_growth(self):
        # summing (n1)(n2) over the box gives a degree-4 polynomial
        p = MultiPoly.from_monomials(2, {(1, 1): 1})
        assert box_sum(p).total_degree() == 4


class TestCompose:
    def test_euler_through_class(self):
        # outer (a+1)(b+1), inner (n, n) gives (n+1)^2
        outer = MultiPoly.from_monomials(
            2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        inner = [MultiPoly.from_monomials(1, {(1,): 1}),
                 MultiPoly.from_monomials(1, {(1,): 1})]
        composed = compose(outer, inner)
        for n in range(0, 9):
            assert composed.evaluate((n,)) == (n + 1) ** 2

    @settings(max_examples=20)
    @given(small_polys(2, max_terms=2, max_exp=2),
           small_polys(1, max_terms=2, max_exp=2),
           small_polys(1, max_terms=2, max_exp=2))
    def test_pointwise(self, outer, f, g):
        composed = compose(outer, [f, g])
        for n in range(-2, 4):
            want = outer.evaluate((f.evaluate((n,)), g.evaluate((n,))))
            assert composed.evaluate((n,)) == want


def _mono_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, Fraction(0)) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def fraction_from_monomials(nvars: int, monomials) -> MultiPoly:
    """Reference monomial-to-binomial conversion: every monomial expanded in
    Fraction, with x^e = sum_k Delta^k(x^e)(0) C(x,k)."""
    acc: dict = {}
    for expts, coeff in monomials.items():
        q = Fraction(coeff)
        if not q:
            continue
        rows = [[sum((-1) ** (k - j) * math.comb(k, j) * j ** e for j in range(k + 1))
                 for k in range(e + 1)] for e in expts]
        for key in itertools.product(*(range(len(r)) for r in rows)):
            weight = math.prod(r[k] for r, k in zip(rows, key))
            if weight:
                acc[key] = acc.get(key, Fraction(0)) + q * weight
    acc = {k: c for k, c in acc.items() if c}
    for key in sorted(acc):
        if acc[key].denominator != 1:
            raise NotIntegerValued(key, acc[key])
    return MultiPoly(nvars, {k: int(c) for k, c in acc.items()})


def _binom_to_mono_row(k: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(x,k) = x(x-1)...(x-k+1)/k!."""
    coeffs = [Fraction(1)]
    for j in range(k):
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= j * coeffs[i + 1]
    return tuple(c / math.factorial(k) for c in coeffs)


def fraction_to_monomials(p: MultiPoly) -> dict:
    """Reference binomial-to-monomial conversion, term by term in Fraction."""
    acc: dict = {}
    for key, coeff in p.terms.items():
        rows = [_binom_to_mono_row(k) for k in key]
        for expts in itertools.product(*(range(len(r)) for r in rows)):
            weight = math.prod(r[e] for r, e in zip(rows, expts))
            if weight:
                acc[expts] = acc.get(expts, Fraction(0)) + coeff * weight
    return {e: c for e, c in acc.items() if c}


def binom_evaluate(p: MultiPoly, point) -> int:
    """Reference evaluation: one binom_int per variable of every term."""
    return sum(c * math.prod(binom_int(n, k) for n, k in zip(point, key))
               for key, c in p.terms.items())


def converted(nvars: int, monomials, convert):
    """convert(nvars, monomials), or the key and value NotIntegerValued names."""
    try:
        return convert(nvars, monomials)
    except NotIntegerValued as exc:
        return exc.exponents, exc.coeff


def fraction_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The product through the rational monomial basis."""
    if a.is_zero() or b.is_zero():
        return MultiPoly.zero(a.nvars)
    return fraction_from_monomials(
        a.nvars, _mono_mul(fraction_to_monomials(a), fraction_to_monomials(b)))


def fraction_box_sum(p: MultiPoly) -> MultiPoly:
    """Reference box sum: products of the column sums C(n,k+1) + C(n,k) - [k = 0]."""
    result = MultiPoly.zero(1)
    for key, coeff in p.terms.items():
        factor = MultiPoly.constant(1, coeff)
        for k in key:
            g = MultiPoly(1, {(1,): 1} if k == 0 else {(k + 1,): 1, (k,): 1})
            factor = fraction_mul(factor, g)
        result = result + factor
    return result


def fraction_compose(outer: MultiPoly, inner) -> MultiPoly:
    """Reference composition in the rational monomial basis."""
    nvars = inner[0].nvars
    arg_monos = [fraction_to_monomials(a) for a in inner]
    acc: dict = {}
    for expts, coeff in fraction_to_monomials(outer).items():
        term = {(0,) * nvars: coeff}
        for mono, e in zip(arg_monos, expts):
            for _ in range(e):
                term = _mono_mul(term, mono)
        for k, c in term.items():
            acc[k] = acc.get(k, Fraction(0)) + c
    return fraction_from_monomials(nvars, acc)


def monomial_restrict_to_ray(mono: dict, base, direction) -> list[Fraction]:
    """Reference ray restriction: each rational monomial multiplied out along
    t -> base + t*direction, coefficients lowest first."""
    out = [Fraction(0)]
    for expts, coeff in mono.items():
        term = [coeff]
        for b, v, e in zip(base, direction, expts):
            for _ in range(e):
                nxt = [Fraction(0)] * (len(term) + 1)
                for i, c in enumerate(term):
                    nxt[i] += c * b
                    nxt[i + 1] += c * v
                term = nxt
        out.extend([Fraction(0)] * (len(term) - len(out)))
        for i, c in enumerate(term):
            out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def _data_system(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return load_system(fh.read())


def gk_inputs():
    """(euler, strided class polynomials) that gk composes: every NC-ample
    data/ document, and the tensor squares to fourth powers of two of them."""
    systems = [_data_system(name) for name in sorted(os.listdir(DATA))]
    for name in ("p1-O1.json", "swap-ring.json"):
        base = power = _data_system(name)
        for _ in range(3):
            power = product(power, base)
            systems.append(power)
    for system in systems:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict = nc_ample_verdict(system)
        if verdict.kind == "NCAmple":
            strided = veronese(system, verdict.screen.orders)
            yield system.scheme.euler, symbolic_class(strided)


def rational_monomials(max_vars=4, max_degree=3):
    """(nvars, {exponents: Fraction}) of total degree at most max_degree."""
    def with_nvars(nvars):
        expt = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * nvars)
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        return st.tuples(st.just(nvars), st.dictionaries(
            expt.filter(lambda e: sum(e) <= max_degree), coeff, max_size=5))
    return st.integers(min_value=1, max_value=max_vars).flatmap(with_nvars)


class TestAgainstFractionAlgebra:
    """The monomial converters, evaluate, compose, box_sum and the ray
    restriction against the rational term-by-term algebra they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(rational_monomials())
    def test_from_monomials(self, case):
        nvars, monomials = case
        assert (converted(nvars, monomials, MultiPoly.from_monomials)
                == converted(nvars, monomials, fraction_from_monomials))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(small_polys))
    def test_to_monomials_and_evaluate(self, p):
        mono = p.to_monomials()
        assert mono == fraction_to_monomials(p)
        assert MultiPoly.from_monomials(p.nvars, mono) == p
        for point in itertools.product((-2, 0, 3), repeat=p.nvars):
            assert p.evaluate(point) == binom_evaluate(p, point)

    def test_values_call_no_binom_int(self, monkeypatch):
        # C(x, k + 1) = C(x, k) (x - k) / (k + 1) is exact at every integer
        # x, negative ones too, so _values needs no checked binom_int
        rng = random.Random(3)
        cases = []
        for nvars in (1, 2, 3):
            points = list(itertools.product(range(-7, 8, 2), repeat=nvars))
            for _ in range(10):
                p = MultiPoly(nvars, {tuple(rng.randint(0, 6) for _ in range(nvars)):
                                      rng.choice((-3, -1, 2, 5)) for _ in range(4)})
                cases.append((p, points, [binom_evaluate(p, x) for x in points]))
        calls = []
        monkeypatch.setattr(numeric_polynomials, "binom_int",
                            lambda n, k: calls.append((n, k)))
        for p, points, want in cases:
            assert numeric_polynomials._values(p, list(zip(*points))) == want, p
        assert calls == []

    def test_not_integer_valued(self):
        # the first failing key in sorted order, with its rational value
        cases = [
            (1, {(2,): Fraction(1, 2)}),
            (1, {(3,): Fraction(1, 6), (1,): Fraction(1, 6)}),
            (2, {(1, 1): Fraction(1, 2)}),
            (2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}),
            (2, {(1, 0): Fraction(1, 3), (0, 2): Fraction(1, 2), (3, 0): 1}),
            (3, {(1, 1, 1): Fraction(5, 6), (0, 0, 2): Fraction(-7, 4)}),
        ]
        for nvars, monomials in cases:
            got = converted(nvars, monomials, MultiPoly.from_monomials)
            assert isinstance(got, tuple), monomials
            assert got == converted(nvars, monomials, fraction_from_monomials)
        assert converted(2, cases[3][1], MultiPoly.from_monomials) == ((0, 1), Fraction(1, 2))

    def test_cancellation(self):
        # x^2 - x = 2 C(x,2) loses its C(x,1) term; zero coefficients give
        # the zero polynomial
        for nvars, monomials in [
                (1, {(2,): 1, (1,): -1}),
                (2, {(2, 1): 1, (1, 1): -1, (2, 0): Fraction(-1, 2), (1, 0): Fraction(1, 2)}),
                (2, {(1, 0): 0, (0, 1): Fraction(0)}),
                (3, {})]:
            got = MultiPoly.from_monomials(nvars, monomials)
            assert got == fraction_from_monomials(nvars, monomials)
            assert got.to_monomials() == fraction_to_monomials(got)
        assert MultiPoly.from_monomials(1, {(2,): 1, (1,): -1}).terms == {(2,): 2}
        assert MultiPoly.from_monomials(2, {(1, 0): 0}).is_zero()
        # 2 C(x,2) + C(x,1) = x^2 loses its x term
        assert MultiPoly(1, {(2,): 2, (1,): 1}).to_monomials() == {(2,): 1}
        diff = MultiPoly(2, {(1, 0): 1, (0, 1): -1}) * MultiPoly(2, {(2, 1): 3, (0, 0): -1})
        for n in range(-3, 4):
            assert diff.evaluate((n, n)) == binom_evaluate(diff, (n, n)) == 0

    def test_tensor_fourth_power_euler(self):
        base = power = _data_system("swap-ring.json")
        for _ in range(3):
            power = product(power, base)
        euler = power.scheme.euler
        assert len(euler.terms) == 256
        mono = euler.to_monomials()
        assert mono == fraction_to_monomials(euler)
        assert MultiPoly.from_monomials(8, mono) == fraction_from_monomials(8, mono) == euler
        for point in [(0,) * 8, tuple(range(-3, 5)), (2, -1, 0, 5, 1, -2, 3, 7)]:
            assert euler.evaluate(point) == binom_evaluate(euler, point)

    def test_gk_inputs(self):
        seen = 0
        for euler, classes in gk_inputs():
            hilbert = compose(euler, classes)
            assert hilbert == fraction_compose(euler, classes)
            assert box_sum(hilbert) == fraction_box_sum(hilbert)
            seen += 1
        assert seen == 13

    @settings(max_examples=30, deadline=None)
    @given(small_polys(2, max_terms=3, max_exp=2), box_polys((3, 1)), box_polys((0, 2)))
    def test_bivariate_inner(self, outer, f, g):
        assert compose(outer, [f, g]) == fraction_compose(outer, [f, g])

    @settings(max_examples=30, deadline=None)
    @given(small_polys(3, max_terms=3, max_exp=2),
           box_polys((2, 0, 1)), box_polys((1, 3, 0)), box_polys((0, 1, 2)))
    def test_trivariate_inner(self, outer, f, g, h):
        assert compose(outer, [f, g, h]) == fraction_compose(outer, [f, g, h])

    def test_ray_restriction(self):
        rng = random.Random(11)
        zero = away = 0
        for _ in range(600):
            s = rng.randint(1, 3)
            p = random_poly(rng, s)
            base = [0] * s
            if rng.random() < 0.5:
                base = [rng.randint(0, 6) for _ in range(s)]
            v = [rng.randint(1, 6) for _ in range(s)]
            if s > 1 and rng.random() < 0.3:
                # (n1 - n2) q vanishes along a ray with v1 = v2 from a base
                # with b1 = b2
                diff = MultiPoly(s, {(1, 0, 0)[:s]: 1, (0, 1, 0)[:s]: -1})
                p = diff * random_poly(rng, s, degree=2)
                base[1], v[1] = base[0], v[0]
            den, numerators = _restrict_to_ray(p, base, v)
            got = [Fraction(c, den) for c in numerators]
            assert got == monomial_restrict_to_ray(fraction_to_monomials(p), base, v), \
                (p.terms, base, v)
            zero += got == [0]
            away += any(base)
        assert zero > 20 and away > 200


def fraction_sign_stable_threshold(coeffs: list[Fraction]) -> int:
    """The ray threshold as it was computed in Fraction (the reference)."""
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return 1
    worst = max(abs(c / lead) for c in coeffs[:-1])
    t = 1 + int(worst)
    if Fraction(t) < 1 + worst:
        t += 1
    return t


class TestSignStableThreshold:
    def test_matches_fraction_reference(self):
        rng = random.Random(17)
        for _ in range(2000):
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(0, 5))]
            coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 12))
            den = rng.randint(1, 24)
            assert numeric_polynomials._sign_stable_threshold(coeffs) == \
                fraction_sign_stable_threshold([Fraction(c, den) for c in coeffs]), coeffs

    def test_corpus_ray_witnesses(self):
        # every negative ray a duality-corpus verdict search finds, against
        # the Fraction restriction and threshold
        witnesses = 0
        for p in (p for sys in duality_corpus() for p in searched_functionals(sys)):
            res = eventually_positive(p, 16)
            if not res.is_no:
                continue
            coeffs = monomial_restrict_to_ray(fraction_to_monomials(p), res.base,
                                              res.direction)
            assert res.threshold == fraction_sign_stable_threshold(coeffs), p.terms
            witnesses += 1
        assert witnesses > 500

    def test_verdicts_build_no_fraction(self, monkeypatch):
        # once the documents are loaded, no verdict builds a Fraction, the
        # p1-L-Linv ray witness included
        systems = {name: _data_system(name) for name in sorted(os.listdir(DATA))}
        built = []
        monkeypatch.setattr(numeric_polynomials, "Fraction",
                            lambda *args: built.append(args) or Fraction(*args))
        witnesses = {}
        for name, system in systems.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                witnesses[name] = nc_ample_verdict(system).to_json().get("witness")
        assert witnesses["p1-L-Linv.json"]["threshold"] == 1
        assert built == []


class TestEventuallyPositive:
    def test_yes_with_shift(self):
        # n - 5 becomes positive from 6 on
        p = MultiPoly.from_monomials(1, {(1,): 1, (0,): -5})
        res = eventually_positive(p, 16)
        assert res.is_yes
        assert p.evaluate(res.m0) > 0
        assert all(m >= 0 for m in res.m0)

    def test_yes_constant(self):
        res = eventually_positive(MultiPoly.constant(2, 1), 16)
        assert res.is_yes and res.m0 == (0, 0)

    def test_no_constant(self):
        res = eventually_positive(MultiPoly.constant(2, -1), 16)
        assert res.is_no

    def test_zero_is_unknown(self):
        res = eventually_positive(MultiPoly.zero(2), 16)
        assert not res.is_yes and not res.is_no
        assert res.kind == "unknown"

    def test_pinned_difference_witness(self):
        # n1 - n2 fails along the pinned ray
        p = MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): -1})
        res = eventually_positive(p, 16)
        assert res.is_no
        assert res.base == (0, 0)
        assert res.direction == (1, 2)

    def test_no_witness_soundness(self):
        # witness ray evaluations are negative beyond the threshold
        polys = [
            MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): -1}),
            MultiPoly.from_monomials(1, {(1,): -1}),
            MultiPoly.from_monomials(2, {(2, 0): -1, (1, 0): 3, (0, 0): 4}),
        ]
        for p in polys:
            res = eventually_positive(p, 16)
            assert res.is_no
            for t in range(res.threshold, res.threshold + 11):
                pt = tuple(b + t * v for b, v in zip(res.base, res.direction))
                assert p.evaluate(pt) < 0, (p.to_monomials(), pt)

    def test_yes_soundness_grid(self):
        polys = [
            MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): 1, (0, 0): -3}),
            MultiPoly.from_monomials(1, {(2,): 1, (1,): -4, (0,): 1}),
            MultiPoly.from_monomials(2, {(1, 1): 1, (0, 0): 1}),
        ]
        for p in polys:
            res = eventually_positive(p, 16)
            assert res.is_yes, p.to_monomials()
            for pt in itertools.product(*(range(m, m + 11) for m in res.m0)):
                assert p.evaluate(pt) > 0

    def test_bound_exhaustion_is_unknown(self):
        # the bound limits only the ray search: n - 100 is certified from
        # the shift 101 even at bound 4, while 5*n2 - n1, whose negative
        # rays need a first entry above 5, stays unknown until the bound
        # reaches that ray
        p = MultiPoly.from_monomials(1, {(1,): 1, (0,): -100})
        res = eventually_positive(p, 4)
        assert res.is_yes and res.m0 == (101,)
        q = MultiPoly.from_monomials(2, {(1, 0): -1, (0, 1): 5})
        res = eventually_positive(q, 4)
        assert res.kind == "unknown" and res.bound == 4
        res = eventually_positive(q, 8)
        assert res.is_no and res.direction == (6, 1)

    def test_coarse_base_ray(self):
        # (n1 - n2)^2 + 20 (n1 - n2) grows along every ray from the origin,
        # and its degenerate direction (1, 1) is negative only from a base
        # with n2 - n1 in (0, 20): the coarse grid finds (0, bound / 2)
        p = MultiPoly.from_monomials(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1,
                                         (1, 0): 20, (0, 1): -20})
        for bound, base, value in ((16, (0, 8), -96), (4, (0, 2), -36)):
            res = eventually_positive(p, bound)
            assert res.is_no
            assert (res.base, res.direction, res.threshold) == (base, (1, 1), 1)
            for t in range(1, 6):
                assert p.evaluate((base[0] + t, base[1] + t)) == value

    @pytest.mark.parametrize("poly, bound", [
        # -n^2 reaches the ray search, n - 1 is certified before the bound
        # is read, and a bool is an int to isinstance
        ({(2,): -1}, 2.5),
        ({(1,): 1, (0,): -1}, 2.5),
        ({(1,): 1, (0,): -1}, True),
    ])
    def test_non_int_bound_rejected(self, poly, bound):
        with pytest.raises(ParseError):
            eventually_positive(MultiPoly.from_monomials(1, poly), bound)


def vandermonde_shift(p, t):
    """The terms of p.shift(t) for t >= 0, term by term through
    C(n_i + t_i, k_i) = sum_j C(t_i, k_i - j) C(n_i, j): a reference that
    does not interpolate."""
    out = {}
    for key, c in p.terms.items():
        rows = [[math.comb(t_i, k_i - j) for j in range(k_i + 1)] for t_i, k_i in zip(t, key)]
        for j in itertools.product(*(range(k + 1) for k in key)):
            out[j] = out.get(j, 0) + c * math.prod(row[i] for row, i in zip(rows, j))
    return {j: c for j, c in out.items() if c}


def least_shift_by_scan(p, limit):
    """The least t <= limit whose diagonal shift certifies p, or None."""
    for t in range(limit + 1):
        terms = vandermonde_shift(p, (t,) * p.nvars)
        if terms.get((0,) * p.nvars, 0) > 0 and all(c >= 0 for c in terms.values()):
            return t
    return None


def random_poly(rng, s, degree=3, max_coeff=12):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = [0] * s
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(s)] += 1
        terms[tuple(e)] = rng.choice((-1, 1)) * rng.randint(1, max_coeff)
    if rng.random() < 0.5:
        # a deep constant pushes the least shift past small bounds
        terms[(0,) * s] = -rng.randint(1, 60)
    return MultiPoly.from_monomials(s, terms)


@pytest.fixture
def shift_probes(monkeypatch):
    """The shift t of every probe of the certifying-shift search, in order."""
    probes = []
    probe = numeric_polynomials._shift_certifies
    monkeypatch.setattr(numeric_polynomials, "_shift_certifies",
                        lambda trends, t: probes.append(t) or probe(trends, t))
    return probes


def interpolated_shift_exists(p):
    """Whether any diagonal shift certifies p, by interpolating each
    coefficient of p.shift((t,)*s) from t = 0..deg p (the reference)."""
    degree = p.total_degree()
    constant = (0,) * p.nvars
    shifts = [p.shift((t,) * p.nvars).terms for t in range(degree + 1)]
    for key in {constant}.union(*shifts):
        trend = numeric_polynomials._interpolate((degree,), degree, lambda coords: [
            shifts[t].get(key, 0) for t in coords[0]]).terms
        lead = trend[max(trend)] if trend else 0
        if lead < 0 or (key == constant and lead == 0):
            return False
    return True


class TestShiftSearch:
    def test_least_shift_matches_linear_scan(self):
        rng = random.Random(2024)
        certified = 0
        for _ in range(1200):
            p = random_poly(rng, rng.randint(1, 3))
            bound = rng.choice((0, 1, 4, 16))
            res = eventually_positive(p, bound)
            if res.is_yes:
                certified += 1
                t = res.m0[0]
                assert res.m0 == (t,) * p.nvars
                assert least_shift_by_scan(p, t) == t, p.to_monomials()
            else:
                assert least_shift_by_scan(p, 64) is None, p.to_monomials()
        assert certified > 300

    def test_shift_past_bound_in_few_shifts(self, shift_probes):
        five = {tuple(int(i == j) for j in range(5)): 1 for i in range(5)}
        five[(0,) * 5] = -100
        res = eventually_positive(MultiPoly.from_monomials(5, five), 16)
        assert res.is_yes and res.m0 == (21,) * 5
        assert len(shift_probes) <= 12
        shift_probes.clear()
        far = MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): 1, (0, 0): -10**12})
        res = eventually_positive(far, 16)
        assert res.is_yes and res.m0 == (5 * 10**11 + 1,) * 2
        assert len(shift_probes) <= 2 * 40 + 2

    def test_gallop_then_bisect_probe_order(self, shift_probes):
        # only the gallop and the bisection probe p's shifts
        p = MultiPoly.from_monomials(2, {(1, 0): 1, (0, 1): 1, (0, 0): -9})
        res = eventually_positive(p, 16)
        assert res.m0 == (5, 5)
        assert shift_probes == [0, 1, 3, 7, 5, 4]

    def test_trends_match_shifts(self):
        rng = random.Random(11)
        exists = 0
        for _ in range(300):
            p = random_poly(rng, rng.randint(1, 3))
            trends = numeric_polynomials._shift_trends(p)
            for t in range(p.total_degree() + 4):
                basis = [math.comb(t, m) for m in range(p.total_degree() + 1)]
                values = {key: sum(c * b for c, b in zip(vec, basis))
                          for key, vec in trends.items()}
                assert {k: v for k, v in values.items() if v} == \
                    p.shift((t,) * p.nvars).terms, (p.terms, t)
            found = numeric_polynomials._least_certifying_shift(p) is not None
            assert found == interpolated_shift_exists(p), p.terms
            exists += found
        assert 50 < exists < 250

    def test_trends_match_reference_loop(self):
        # the functionals every corpus verdict searches, and random ones
        rng = random.Random(13)
        polys = [p for sys in duality_corpus() + ample_corpus() + unipotent_corpus()
                 for p in searched_functionals(sys)]
        assert len(polys) > 500
        polys += [random_poly(rng, rng.randint(1, 4)) for _ in range(300)]
        for p in polys:
            assert list(numeric_polynomials._shift_trends(p).items()) == \
                list(reference_shift_trends(p).items()), p.terms

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda s: small_polys(s, max_terms=6)))
    def test_trends_match_reference_loop_on_random_terms(self, p):
        assert list(numeric_polynomials._shift_trends(p).items()) == \
            list(reference_shift_trends(p).items())


def trend_gallop_least_shift(p):
    """The least certifying shift by the trend-and-gallop search alone, as
    it ran for every polynomial before polynomials with nonnegative
    coefficients were read from their terms (the reference)."""
    trends = numeric_polynomials._shift_trends(p)
    constant = trends.pop((0,) * p.nvars, [])
    if not constant or constant[-1] < 0 or any(vec[-1] < 0 for vec in trends.values()):
        return None
    checked = [constant] + [vec for vec in trends.values() if min(vec) < 0]
    lo, hi = -1, 0
    while not numeric_polynomials._shift_certifies(checked, hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if numeric_polynomials._shift_certifies(checked, mid):
            hi = mid
        else:
            lo = mid
    return hi


def nonnegative_polys(nvars, max_terms=6, max_exp=3, max_coeff=6):
    """Polynomials whose binomial-basis coefficients are all positive,
    with and without a constant term."""
    expt = st.tuples(*(st.integers(min_value=0, max_value=max_exp) for _ in range(nvars)))
    terms = st.dictionaries(expt, st.integers(min_value=1, max_value=max_coeff),
                            min_size=1, max_size=max_terms)
    origin = (0,) * nvars
    return st.tuples(terms, st.booleans()).map(
        lambda case: {**case[0], origin: case[0].get(origin, 1)} if case[1]
        else {k: c for k, c in case[0].items() if k != origin}).filter(bool).map(
        lambda t: MultiPoly(nvars, t))


class TestNonnegativeShift:
    def test_least_shift_is_least_top_exponent(self):
        # C(n1, 2) is 0 at t = 0, 1 and positive from t = 2 on
        for terms, t in (({(2, 0): 1}, 2), ({(0, 0): 3, (3, 1): 1}, 0),
                         ({(3,): 1, (1,): 2}, 1), ({(1, 3): 2, (2, 2): 5}, 2)):
            p = MultiPoly(len(next(iter(terms))), terms)
            assert numeric_polynomials._least_certifying_shift(p) == t
            assert trend_gallop_least_shift(p) == t
            assert least_shift_by_scan(p, t) == t

    def test_needs_no_trends(self, monkeypatch):
        monkeypatch.setattr(numeric_polynomials, "_shift_trends", None)
        p = MultiPoly(3, {(1, 2, 0): 4, (0, 3, 3): 1})
        assert eventually_positive(p, 16).m0 == (2, 2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(nonnegative_polys))
    def test_matches_trend_search(self, p):
        assert numeric_polynomials._least_certifying_shift(p) == trend_gallop_least_shift(p)

    def test_matches_trend_search_on_corpus_functionals(self):
        # every functional with nonnegative coefficients that a corpus
        # verdict searches
        polys = [p for sys in duality_corpus() + ample_corpus() + unipotent_corpus()
                 for p in searched_functionals(sys)
                 if p.terms and min(p.terms.values()) >= 0]
        assert len(polys) > 100
        for p in polys:
            assert numeric_polynomials._least_certifying_shift(p) == \
                trend_gallop_least_shift(p), p.terms


@functools.lru_cache(maxsize=None)
def binom_product_row(ms):
    """Coefficients of prod_i C(t, m_i) in the basis C(t, 0..sum(ms)), from
    one univariate interpolation of its values."""
    degree = sum(ms)
    row = numeric_polynomials._interpolate((degree,), degree, lambda coords: [
        math.prod(math.comb(t, m) for m in ms) for t in coords[0]]).terms
    return tuple(row.get((m,), 0) for m in range(degree + 1))


def reference_shift_trends(p):
    """_shift_trends by the loop over every key and every j <= key, each
    product row built on its own."""
    degree = p.total_degree()
    trends = {}
    for key, c in p.terms.items():
        for j in itertools.product(*(range(k + 1) for k in key)):
            row = binom_product_row(tuple(sorted(k - i for k, i in zip(key, j) if k > i)))
            vec = trends.setdefault(j, [0] * (degree + 1))
            for m, w in enumerate(row):
                vec[m] += c * w
    for vec in trends.values():
        while vec and not vec[-1]:
            vec.pop()
    return {j: vec for j, vec in trends.items() if vec}


def searched_functionals(sys):
    """Every cone functional of every residue branch of a quasi-unipotent
    system, as the verdict sums it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        screen = quasi_unipotent_screen(sys)
    if not screen.all_quasi_unipotent:
        return []
    return [MultiPoly(sys.s, {key: value for key, vec in vectors.items()
                              if (value := sum(map(operator.mul, row, vec)))})
            for vectors in branch_class_polys(sys, screen.orders).values()
            for row in sys.scheme.cone]

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncample import lattice_algebra
from ncample.errors import NonInvertible, NotNilpotent, ParseError
from ncample.lattice_algebra import (
    Matrix,
    UniPoly,
    char_poly,
    cyclotomic,
    euler_phi,
    geometric_sum,
    is_quasi_unipotent,
    nilpotency_degree,
    nilpotent_powers,
    strided_geometric_sum,
    strided_nilpotent_powers,
    quasi_unipotent_candidates,
)

SWAP = Matrix.from_rows([[0, 1], [1, 0]])
FIB = Matrix.from_rows([[2, 1], [1, 1]])
ROT4 = Matrix.from_rows([[0, -1], [1, 0]])
UPPER = Matrix.from_rows([[1, 1], [0, 1]])


def square_matrices(rho, lo=-5, hi=5):
    entry = st.integers(min_value=lo, max_value=hi)
    return st.lists(
        st.lists(entry, min_size=rho, max_size=rho),
        min_size=rho, max_size=rho).map(Matrix.from_rows)


def leibniz_det(m):
    """Reference determinant: the signed sum over permutations of products
    of one entry from each row."""
    n = m.rho
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m.entries[i][perm[i]] for i in range(n))
    return total


def random_matrices(rng, count=40, lo=-5, hi=5):
    """count seeded integer matrices of each rank 1..5."""
    for rho in range(1, 6):
        for _ in range(count):
            yield Matrix.from_rows([[rng.randint(lo, hi) for _ in range(rho)]
                                    for _ in range(rho)])


def random_unimodular(rng, rho):
    """A sign times a product of a unit lower and a unit upper triangular
    matrix, so det is +1 or -1."""
    def unit(lower):
        return Matrix.from_rows([[1 if i == j else rng.randint(-3, 3) if (i > j) == lower
                                  else 0 for j in range(rho)] for i in range(rho)])
    sign = Matrix.from_rows([[rng.choice((1, -1)) if i == j == 0 else int(i == j)
                              for j in range(rho)] for i in range(rho)])
    return sign * unit(True) * unit(False)


class TestMatrix:
    def test_identity_and_power(self):
        assert SWAP ** 2 == Matrix.identity(2)
        assert SWAP ** 5 == SWAP
        assert FIB ** 0 == Matrix.identity(2)

    def test_power_matches_repeated_products(self, monkeypatch):
        products = 0
        multiply = Matrix.__mul__

        def counted(a, b):
            nonlocal products
            products += 1
            return multiply(a, b)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        for m in (FIB, UPPER, Matrix.from_rows([[1, 2, 0], [0, 1, -1], [3, 0, 1]])):
            want = Matrix.identity(m.rho)
            for n in range(21):
                products = 0
                assert m ** n == want, n
                # floor(log2 n) + popcount(n) - 1
                assert products == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
                want = multiply(want, m)

    def test_apply_column_convention(self):
        # columns of the matrix are images of basis vectors
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.apply((1, 0)) == (1, 3)
        assert m.apply((0, 1)) == (2, 4)

    def test_det(self):
        assert SWAP.det() == -1
        assert FIB.det() == 1
        assert Matrix.from_rows([[2, 0], [0, 2]]).det() == 4
        assert Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).det() == -3
        for m in random_matrices(random.Random(0)):
            assert m.det() == leibniz_det(m), m

    def test_inverse_unimodular(self):
        for m in (SWAP, FIB, ROT4, UPPER):
            assert m * m.inverse_unimodular() == Matrix.identity(2)
            assert m.inverse_unimodular() * m == Matrix.identity(2)
        rng = random.Random(1)
        for rho in range(1, 6):
            for _ in range(40):
                m = random_unimodular(rng, rho)
                assert leibniz_det(m) in (1, -1)
                inverse = m.inverse_unimodular()
                assert m * inverse == Matrix.identity(rho), m
                assert inverse * m == Matrix.identity(rho), m
        # a random matrix is inverted exactly when its Leibniz det is a unit
        for m in random_matrices(random.Random(2), lo=-2, hi=2):
            det = leibniz_det(m)
            if det in (1, -1):
                assert m * m.inverse_unimodular() == Matrix.identity(m.rho), m
            else:
                with pytest.raises(NonInvertible) as info:
                    m.inverse_unimodular()
                assert info.value.det == det, m

    def test_inverse_rejects_non_unimodular(self):
        for rows, det in (([[2, 0], [0, 1]], 2), ([[1, 0], [0, 0]], 0),
                          ([[0, 1, 0], [1, 0, 0], [0, 0, 3]], -3)):
            with pytest.raises(NonInvertible) as info:
                Matrix.from_rows(rows).inverse_unimodular()
            assert info.value.det == det

    def test_derived_matrices_skip_the_check(self, monkeypatch):
        checks = []
        check = Matrix.__post_init__
        monkeypatch.setattr(Matrix, "__post_init__",
                            lambda m: checks.append(m) or check(m))
        i3 = Matrix.identity(3)
        m = Matrix.from_rows([[1, 2, 0], [0, 1, -1], [3, 0, 1]])
        assert len(checks) == 1
        assert ((m + i3) * m - Matrix.zero(3)).scale(2) == \
            Matrix.from_rows([[4, 12, -4], [-6, 4, -6], [18, 12, 4]])
        assert len(checks) == 2
        for bad in ([[1, 2], [3]], [[1.5]], [[True]], []):
            with pytest.raises(ParseError):
                Matrix.from_rows(bad)
        with pytest.raises(ParseError):
            Matrix(((1, 0), (0, "1")))
        for call in (lambda: Matrix.identity(0), lambda: Matrix.zero(0),
                     lambda: i3 + SWAP, lambda: i3 - SWAP, lambda: i3 * SWAP,
                     lambda: i3.scale(0.5)):
            with pytest.raises(ParseError):
                call()

    @given(square_matrices(2), square_matrices(2))
    def test_product_det_multiplicative(self, a, b):
        assert (a * b).det() == a.det() * b.det()


class TestCharPoly:
    def test_known_values(self):
        # x^2 - 3x + 1 for the hyperbolic matrix, lowest-degree first
        assert char_poly(FIB).coeffs == (1, -3, 1)
        assert char_poly(SWAP).coeffs == (-1, 0, 1)
        assert char_poly(Matrix.identity(2)).coeffs == (1, -2, 1)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=5).flatmap(square_matrices))
    def test_cayley_hamilton(self, m):
        p = char_poly(m)
        acc = Matrix.zero(m.rho)
        power = Matrix.identity(m.rho)
        for c in p.coeffs:
            acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


class TestCyclotomic:
    def test_phi_table(self):
        assert [euler_phi(d) for d in range(1, 13)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_candidate_sets_match_hand_table(self):
        assert quasi_unipotent_candidates(1) == (1, 2)
        assert quasi_unipotent_candidates(2) == (1, 2, 3, 4, 6)
        assert quasi_unipotent_candidates(3) == (1, 2, 3, 4, 6)
        assert quasi_unipotent_candidates(4) == (1, 2, 3, 4, 5, 6, 8, 10, 12)
        assert quasi_unipotent_candidates(5) == (1, 2, 3, 4, 5, 6, 8, 10, 12)
        assert quasi_unipotent_candidates(6) == \
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18)

    def test_cyclotomic_degrees_and_products(self):
        for d in range(1, 20):
            assert cyclotomic(d).degree() == euler_phi(d)
        # product of Phi_d over divisors d of n is x^n - 1
        for n in (1, 2, 3, 4, 6, 12):
            prod = UniPoly.from_coeffs((1,))
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            want = [0] * (n + 1)
            want[0], want[n] = -1, 1
            assert prod.coeffs == tuple(want)


class TestQuasiUnipotent:
    def test_golden_matrices(self):
        assert is_quasi_unipotent(SWAP) == (True, 2)
        assert is_quasi_unipotent(FIB) == (False, None)
        assert is_quasi_unipotent(Matrix.identity(2)) == (True, 1)
        assert is_quasi_unipotent(ROT4) == (True, 4)
        assert is_quasi_unipotent(UPPER) == (True, 1)
        assert is_quasi_unipotent(Matrix.from_rows([[-1]])) == (True, 2)

    def test_order_certificate_is_nilpotent(self):
        # returned order r makes (m^r - 1) nilpotent to the rank
        for m in (SWAP, ROT4, UPPER, Matrix.identity(3)):
            flag, r = is_quasi_unipotent(m)
            assert flag
            n = m ** r - Matrix.identity(m.rho)
            assert (n ** m.rho).is_zero()

    def test_three_cycle(self):
        cyc = Matrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert is_quasi_unipotent(cyc) == (True, 3)


class TestNilpotency:
    def test_degrees(self):
        z = Matrix.zero(2)
        assert nilpotency_degree(z) == 1
        n = Matrix.from_rows([[0, 1], [0, 0]])
        assert nilpotency_degree(n) == 2
        big = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotency_degree(big) == 3

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotency_degree(SWAP)
        with pytest.raises(NotNilpotent):
            nilpotent_powers(UPPER)

    def test_powers_stop_at_last_nonzero(self):
        big = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_powers(big) == (Matrix.identity(3), big, big * big)
        assert nilpotent_powers(Matrix.zero(2)) == (Matrix.identity(2),)


class TestMemo:
    """is_quasi_unipotent is memoized by matrix value, and the strided
    nilpotent powers by (matrix, order)."""

    def test_one_decision_per_matrix_value(self, monkeypatch):
        is_quasi_unipotent.cache_clear()
        calls = []
        real = lattice_algebra.char_poly
        monkeypatch.setattr(lattice_algebra, "char_poly",
                            lambda m: calls.append(m) or real(m))
        for m in (UPPER, Matrix.from_rows([[1, 1], [0, 1]]), SWAP, UPPER, SWAP):
            is_quasi_unipotent(m)
        assert calls == [UPPER, SWAP]

    def test_cached_results_are_tuples(self):
        nilpotent = UPPER - Matrix.identity(2)
        for result in (is_quasi_unipotent(ROT4), nilpotent_powers(nilpotent),
                       strided_nilpotent_powers(ROT4, 4)):
            assert type(result) is tuple
        assert strided_nilpotent_powers(UPPER, 1) is strided_nilpotent_powers(UPPER, 1)
        assert strided_nilpotent_powers(UPPER, 3) is strided_nilpotent_powers(UPPER, 3)
        assert strided_nilpotent_powers(UPPER, 3) == nilpotent_powers(nilpotent.scale(3))

    def test_errors_raise_on_every_call(self):
        singular = Matrix.from_rows([[1, 2], [2, 4]])
        for _ in range(2):
            with pytest.raises(NonInvertible):
                is_quasi_unipotent(singular)
            with pytest.raises(NotNilpotent):
                nilpotent_powers(UPPER)
            with pytest.raises(NotNilpotent):
                strided_nilpotent_powers(ROT4, 2)


    def test_strided_geometric_sum(self):
        assert strided_geometric_sum(FIB, 3) == geometric_sum(FIB, 3)
        assert strided_geometric_sum(FIB, 3) is strided_geometric_sum(FIB, 3)
        # a warm (matrix, 1) entry must not answer for True
        strided_geometric_sum(SWAP, 1)
        for order in (True, 0, -1, 1.5):
            with pytest.raises(ParseError):
                strided_geometric_sum(SWAP, order)


class TestGeometricSum:
    def test_small_values(self):
        assert geometric_sum(SWAP, 0).is_zero()
        assert geometric_sum(SWAP, 1) == Matrix.identity(2)
        assert geometric_sum(SWAP, 2) == Matrix.identity(2) + SWAP
        assert geometric_sum(FIB, 3) == \
            Matrix.identity(2) + FIB + FIB * FIB

    @settings(max_examples=40)
    @given(square_matrices(2, -3, 3),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    def test_functional_equation(self, m, a, b):
        lhs = geometric_sum(m, a + b)
        rhs = geometric_sum(m, a) + (m ** a) * geometric_sum(m, b)
        assert lhs == rhs

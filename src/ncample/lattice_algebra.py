"""Exact integer matrices and the quasi-unipotence decision.

Matrices act on column vectors of lattice coordinates.  All arithmetic is
over the integers; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import mul

from .errors import NonInvertible, NotNilpotent, ParseError, exact_int, exact_ints


@dataclass(frozen=True)
class Matrix:
    """Square integer matrix, row-major, acting on column vectors."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_square(self.entries)
        exact_ints(chain.from_iterable(self.entries), "matrix entry")

    @property
    def rho(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows) -> "Matrix":
        """A matrix from a sequence of rows; any entry that is not an int
        raises ParseError instead of being truncated."""
        return Matrix(tuple(map(tuple, rows)))

    @staticmethod
    def _trusted(entries: tuple[tuple[int, ...], ...]) -> "Matrix":
        """A matrix from entries already known to be a nonempty square int
        array, such as a sum or product of two valid matrices of one rank;
        it skips the __post_init__ check."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "entries", entries)
        return m

    def _same_rank(self, other: "Matrix", verb: str) -> None:
        if other.rho != self.rho:
            raise ParseError(f"cannot {verb} matrices of rank {self.rho} and {other.rho}")

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def identity(rho: int) -> "Matrix":
        exact_int(rho, "matrix rank", at_least=1)
        return Matrix._trusted(tuple(tuple(1 if i == j else 0 for j in range(rho))
                                     for i in range(rho)))

    @staticmethod
    def zero(rho: int) -> "Matrix":
        exact_int(rho, "matrix rank", at_least=1)
        return Matrix._trusted(tuple((0,) * rho for _ in range(rho)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_rank(other, "add")
        return Matrix._trusted(tuple(tuple(a + b for a, b in zip(r1, r2))
                                     for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_rank(other, "subtract")
        return Matrix._trusted(tuple(tuple(a - b for a, b in zip(r1, r2))
                                     for r1, r2 in zip(self.entries, other.entries)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._same_rank(other, "multiply")
        cols = tuple(zip(*other.entries))
        return Matrix._trusted(tuple(tuple([sum(map(mul, row, col)) for col in cols])
                                     for row in self.entries))

    def scale(self, c: int) -> "Matrix":
        exact_int(c, "matrix scale factor")
        return Matrix._trusted(tuple(tuple(c * e for e in row) for row in self.entries))

    def __pow__(self, n: int) -> "Matrix":
        """Left-to-right binary powering: floor(log2 n) + popcount(n) - 1
        products for n >= 1."""
        if exact_int(n, "matrix power exponent", at_least=0) == 0:
            return Matrix.identity(self.rho)
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def apply(self, vec) -> tuple[int, ...]:
        """Multiply self by a column vector."""
        v = tuple(vec)
        if len(v) != self.rho:
            raise ParseError(f"vector of length {len(v)} for a matrix of "
                             f"rank {self.rho}")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def det(self) -> int:
        """(-1)^rho c_0, from the memoized trace recursion."""
        c0 = _trace_recursion(self)[0][0]
        return -c0 if self.rho & 1 else c0

    def inverse_unimodular(self) -> "Matrix":
        """Exact inverse -c_0 M_rho, from the memoized trace recursion; only
        defined when det is +1 or -1, and NonInvertible(det=...) otherwise."""
        coeffs, last = _trace_recursion(self)
        if coeffs[0] not in (1, -1):
            raise NonInvertible(det=self.det())
        return last.scale(-coeffs[0])


def _check_square(entries):
    n = len(entries)
    if n == 0:
        raise ParseError("a matrix needs at least one row")
    for row in entries:
        if len(row) != n:
            raise ParseError(f"matrix must be square, got a row of length "
                             f"{len(row)} in {n} rows")
    return entries


@dataclass(frozen=True)
class UniPoly:
    """Univariate integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "UniPoly":
        cs = list(exact_ints(coeffs, "polynomial coefficient"))
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return UniPoly.from_coeffs(out)

    def divide_exact(self, divisor: "UniPoly") -> "UniPoly | None":
        """Quotient by a monic divisor when the division is exact over Z."""
        if not divisor.coeffs or divisor.coeffs[-1] != 1:
            raise ParseError(f"divisor must be monic, got coefficients {divisor.coeffs}")
        if self.degree() < divisor.degree():
            return None
        rem = list(self.coeffs)
        dd = divisor.degree()
        quot = [0] * (len(rem) - dd)
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + dd]
            quot[i] = q
            if q:
                for j, b in enumerate(divisor.coeffs):
                    rem[i + j] -= q * b
        if any(rem[:dd]):
            return None
        return UniPoly.from_coeffs(quot)


@lru_cache(maxsize=256, typed=True)
def _trace_recursion(m: Matrix) -> tuple[tuple[int, ...], Matrix]:
    """The Faddeev–LeVerrier recursion: the coefficients c_0, ..., c_rho of
    det(x I - m), lowest degree first, and its last iterate M_rho.

    With M_1 = I, c_(rho-k) = -tr(m M_k) / k (exact over Z) and
    M_(k+1) = m M_k + c_(rho-k) I, Cayley–Hamilton gives m M_rho = -c_0 I:
    det m = (-1)^rho c_0, and -c_0 M_rho inverts m when c_0 = +-1.
    Memoized per process by matrix value, so the determinant check, the
    screen and the inverse of one action take one pass.
    """
    n = m.rho
    coeffs = [0] * n + [1]
    mk = Matrix.identity(n)
    for k in range(1, n):
        product = (m * mk).entries
        c = coeffs[n - k] = -sum(product[i][i] for i in range(n)) // k
        mk = Matrix._trusted(tuple(row[:i] + (row[i] + c,) + row[i + 1:]
                                   for i, row in enumerate(product)))
    # m M_rho = -c_0 I, so of that last product only the trace is formed
    coeffs[0] = -sum(sum(map(mul, row, col))
                     for row, col in zip(m.entries, zip(*mk.entries))) // n
    return tuple(coeffs), mk


def char_poly(m: Matrix) -> UniPoly:
    """Characteristic polynomial of m, monic, from the memoized trace
    recursion."""
    return UniPoly(_trace_recursion(m)[0])


@lru_cache(maxsize=None, typed=True)
def euler_phi(d: int) -> int:
    exact_int(d, "Euler's phi argument", at_least=1)
    result = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None, typed=True)
def cyclotomic(d: int) -> UniPoly:
    """d-th cyclotomic polynomial via exact division of x^d - 1."""
    exact_int(d, "cyclotomic order", at_least=1)
    poly = UniPoly.from_coeffs([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            poly = poly.divide_exact(cyclotomic(e))
            assert poly is not None
    return poly


def quasi_unipotent_candidates(rho: int) -> tuple[int, ...]:
    """Orders d whose cyclotomic factor could divide a degree-rho polynomial."""
    # euler_phi(d) >= sqrt(d/2), so d <= 2*rho^2 bounds the search
    return tuple(d for d in range(1, 2 * rho * rho + 3) if euler_phi(d) <= rho)


@lru_cache(maxsize=256, typed=True)
def is_quasi_unipotent(m: Matrix) -> tuple[bool, int | None]:
    """Decide whether every eigenvalue of m is a root of unity.

    Returns (True, r) with r the least power making m unipotent, or
    (False, None).  Requires det(m) in {+1, -1}.  The answer depends on
    the matrix value alone and actions recur across systems, so it is
    memoized per process; NonInvertible is not cached and raises on every
    call.
    """
    d = m.det()
    if d not in (1, -1):
        raise NonInvertible(det=d)
    # the determinant and the characteristic polynomial share one memoized
    # trace recursion
    remaining = char_poly(m)
    orders: list[int] = []
    for cand in quasi_unipotent_candidates(m.rho):
        phi = cyclotomic(cand)
        while remaining.degree() >= phi.degree():
            quotient = remaining.divide_exact(phi)
            if quotient is None:
                break
            remaining = quotient
            if cand not in orders:
                orders.append(cand)
        if remaining.degree() == 0:
            break
    if remaining.degree() != 0:
        return False, None
    assert remaining.is_one()
    return True, lcm(*orders)


def nilpotent_powers(n: Matrix) -> tuple[Matrix, ...]:
    """I, n, n^2, ... up to the last nonzero power of n, as a tuple.

    Raises NotNilpotent when n^rho is not zero.
    """
    powers = [Matrix.identity(n.rho)]
    power = n
    while not power.is_zero():
        if len(powers) == n.rho:
            raise NotNilpotent(f"matrix is not nilpotent within exponent {n.rho}")
        powers.append(power)
        power = power * n
    return tuple(powers)


@lru_cache(maxsize=256, typed=True)
def strided_nilpotent_powers(m: Matrix, order: int) -> tuple[Matrix, ...]:
    """nilpotent_powers of m^order - I, the nilpotent part of the action
    strided by order.

    Raises ParseError unless order is an int >= 1, and NotNilpotent when
    m^order is not unipotent.  Memoized per process by (matrix, order), so
    the screen and the strided class of every system that shares an action
    and its period take one power; the memo is typed, so a warm (m, 1)
    entry does not answer (m, True), and errors are not cached.
    """
    exact_int(order, "stride", at_least=1)
    return nilpotent_powers(m ** order - Matrix.identity(m.rho))


@lru_cache(maxsize=256, typed=True)
def strided_geometric_sum(m: Matrix, order: int) -> Matrix:
    """geometric_sum(m, order), the sum that strides a divisor by order.

    Raises ParseError unless order is an int >= 1. Memoized per process by
    (matrix, order), typed, like strided_nilpotent_powers."""
    exact_int(order, "stride", at_least=1)
    return geometric_sum(m, order)


def nilpotency_degree(n: Matrix) -> int:
    """Least k >= 1 with n^k = 0; raises NotNilpotent otherwise."""
    return len(nilpotent_powers(n))


def geometric_sum(m: Matrix, n: int) -> Matrix:
    """I + m + m^2 + ... + m^(n-1), by halving."""
    if exact_int(n, "geometric sum length", at_least=0) == 0:
        return Matrix.zero(m.rho)
    if n == 1:
        return Matrix.identity(m.rho)
    half = n // 2
    s = geometric_sum(m, half)
    s = s + (m ** half) * s
    if n & 1:
        s = s + m ** (n - 1)
    return s

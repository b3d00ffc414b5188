"""Integer-valued multivariate polynomials in the binomial-coefficient basis.

A polynomial is stored as a finite sum  sum_k c_k * prod_i C(n_i, k_i)  with
integer coefficients c_k.  In this basis integer-valuedness is syntactic, and
nonnegativity of all coefficients together with a positive constant term
certifies strict positivity on the nonnegative orthant.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotIntegerValued, ParseError, exact_int, exact_ints

Exponents = tuple[int, ...]


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0; for n < 0 it is (-1)^k C(k-n-1, k)."""
    exact_int(n, "binomial coefficient n")
    exact_int(k, "binomial coefficient k", at_least=0)
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def _expect_len(what: str, got: int, want: int) -> None:
    if got != want:
        raise ParseError(f"{what}: got {got}, expected {want}")


@functools.lru_cache(maxsize=None, typed=True)
def _mono_to_binom_row(e: int) -> tuple[int, ...]:
    """Coefficients of x^e in the basis C(x,0..e): the forward differences
    of x -> x^e at 0."""
    row = _interpolate((e,), e, lambda coords: [x ** e for x in coords[0]]).terms
    return tuple(row.get((k,), 0) for k in range(e + 1))


@functools.lru_cache(maxsize=None, typed=True)
def _falling_row(k: int) -> tuple[int, ...]:
    """Monomial coefficients of x(x-1)...(x-k+1) = k! C(x,k), lowest first."""
    row = [1]
    for j in range(k):
        # multiply by x - j
        row = [a - j * b for a, b in zip([0] + row, row + [0])]
    return tuple(row)


def _change_basis(terms: dict[Exponents, int], rows) -> dict[Exponents, int]:
    """Change the one-variable basis on each axis in turn, in integers.

    On axis j the basis element of index e becomes
    sum_k rows[j][e][k] * (new basis element of index k); coefficients
    that cancel are dropped.  An axis of degree <= 1 is skipped: both
    changes of basis here fix 1 and x.
    """
    for j, row in enumerate(rows):
        if len(row) <= 2:
            continue
        out: dict[Exponents, int] = {}
        for key, c in terms.items():
            head, tail = key[:j], key[j + 1:]
            for k, w in enumerate(row[key[j]]):
                if w:
                    new = head + (k,) + tail
                    out[new] = out.get(new, 0) + c * w
        terms = {key: c for key, c in out.items() if c}
    return terms


def _values(p: "MultiPoly", coords) -> list[int]:
    """p at many points together; coords[j] lists the j-th coordinate of
    every point.

    C(x_j, k) is computed once per axis and point, for k up to p's degree
    in x_j, as C(x, k + 1) = C(x, k) (x - k) / (k + 1), exact on ints, and
    the terms are contracted axis by axis, last first, over the points.
    """
    npoints = len(coords[0])
    level = {key: [c] * npoints for key, c in p.terms.items()}
    for j in reversed(range(p.nvars)):
        column = [[1] * npoints]
        for k in range(p.degree_in(j)):
            column.append([c * (x - k) // (k + 1) for c, x in zip(column[-1], coords[j])])
        out: dict[Exponents, list[int]] = {}
        for key, vec in level.items():
            head = key[:-1]
            term = [v * x for v, x in zip(vec, column[key[-1]])]
            prev = out.get(head)
            out[head] = term if prev is None else [a + b for a, b in zip(prev, term)]
        level = out
    return level.get((), [0] * npoints)


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in the binomial-coefficient basis with int coefficients."""

    nvars: int
    terms: dict[Exponents, int] = field(default_factory=dict)

    def __post_init__(self):
        exact_int(self.nvars, "polynomial variable count", at_least=1)
        exact_ints(itertools.chain.from_iterable(self.terms), "polynomial exponent", at_least=0)
        exact_ints(self.terms.values(), "polynomial coefficient")
        for k, c in self.terms.items():
            if len(k) != self.nvars or not c:
                raise ParseError(f"bad term {c!r} at exponents {k} in {self.nvars} variables")

    @staticmethod
    def _trusted(nvars: int, terms: dict[Exponents, int]) -> "MultiPoly":
        """A polynomial from terms already known to be valid in nvars >= 1
        variables (nonzero int coefficients at int exponent tuples of that
        length, all >= 0), such as the package builds from its own
        integers; it skips the __post_init__ check."""
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: int) -> "MultiPoly":
        exact_int(c, "constant")
        return MultiPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def from_monomials(nvars: int, monomials) -> "MultiPoly":
        """Convert a monomial dict {exponents: rational} to the binomial basis.

        Raises NotIntegerValued when the input is not integer-valued on
        integer points, naming the first binomial exponents in sorted order
        whose coefficient is not an integer.
        """
        rational: dict[Exponents, int | Fraction] = {}
        for expts, coeff in dict(monomials).items():
            expts = exact_ints(expts, "monomial exponent", length=nvars, at_least=0)
            q = coeff if type(coeff) is int else Fraction(coeff)
            if q:
                rational[expts] = q
        # clear the denominators, map x^e to its binomial row, divide back;
        # int coefficients have no denominator to clear
        integral = set(map(type, rational.values())) <= {int}
        if integral:
            den, scaled = 1, rational
        else:
            den = math.lcm(*(q.denominator for q in rational.values()))
            scaled = {k: q.numerator * (den // q.denominator) for k, q in rational.items()}
        degrees = [max((k[j] for k in scaled), default=0) for j in range(nvars)]
        rows = [[_mono_to_binom_row(e) for e in range(d + 1)] for d in degrees]
        terms = _change_basis(scaled, rows)
        if integral:
            return MultiPoly(nvars, terms)
        for key in sorted(terms):
            if terms[key] % den:
                raise NotIntegerValued(key, Fraction(terms[key], den))
        return MultiPoly(nvars, {k: c // den for k, c in terms.items()})

    def _monomial_numerators(self) -> tuple[int, dict[Exponents, int]]:
        """(den, numerators): the monomial coefficients are numerators[k] / den,
        with den > 0 and numerators free of zeros.

        On an axis of degree d the basis changes through the integer rows
        d!/k! * x(x-1)...(x-k+1) = d! C(x,k), and den is the product of the d!.
        """
        if not self.terms:
            return 1, {}
        degrees = [self.degree_in(j) for j in range(self.nvars)]
        rows = [[tuple(c * (math.factorial(d) // math.factorial(k)) for c in _falling_row(k))
                 for k in range(d + 1)] for d in degrees]
        return math.prod(map(math.factorial, degrees)), _change_basis(self.terms, rows)

    def to_monomials(self) -> dict[Exponents, Fraction]:
        """The monomial coefficients {exponents: rational}."""
        den, numerators = self._monomial_numerators()
        return {k: Fraction(c, den) for k, c in numerators.items()}

    def evaluate(self, point) -> int:
        pt = exact_ints(point, "evaluation point entry", length=self.nvars)
        return _values(self, [(x,) for x in pt])[0]

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        """Degree as a polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(k[var] for k in self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _expect_len("summand variable count", other.nvars, self.nvars)
        out = dict(self.terms)
        for k, c in other.terms.items():
            c2 = out.get(k, 0) + c
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
        return MultiPoly(self.nvars, out)

    def scale(self, c: int) -> "MultiPoly":
        exact_int(c, "scale factor")
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        _expect_len("factor variable count", other.nvars, self.nvars)
        degrees = [self.degree_in(j) + other.degree_in(j) for j in range(self.nvars)]
        return _interpolate(degrees, self.total_degree() + other.total_degree(),
                            lambda coords: [a * b for a, b in zip(_values(self, coords),
                                                                  _values(other, coords))])

    def shift(self, t) -> "MultiPoly":
        """The polynomial n -> self(n + t), exactly."""
        tv = exact_ints(t, "shift entry", length=self.nvars)
        return _interpolate([max(self.degree_in(j), 0) for j in range(self.nvars)],
                            max(self.total_degree(), 0),
                            lambda coords: _values(self, [[x + t_j for x in column]
                                                          for column, t_j in zip(coords, tv)]))

    def to_json(self) -> dict:
        return {
            "basis": "binomial",
            "nvars": self.nvars,
            "terms": [{"exponents": list(k), "coeff": c}
                      for k, c in sorted(self.terms.items())],
        }

    def format_monomials(self, names=None) -> str:
        """Human-readable monomial rendering, e.g. 'n1*n2 - 5'."""
        mono = self.to_monomials()
        if not mono:
            return "0"
        if names is None:
            names = [f"n{i + 1}" for i in range(self.nvars)]
        pieces = []
        for expts in sorted(mono, key=lambda e: (-sum(e), e)):
            c = mono[expts]
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(expts) if e]
            body = "*".join(factors)
            if not body:
                pieces.append((c < 0, str(abs(c))))
                continue
            if abs(c) == 1:
                pieces.append((c < 0, body))
            else:
                pieces.append((c < 0, f"{abs(c)}*{body}"))
        text = ""
        for neg, body in pieces:
            if not text:
                text = ("-" if neg else "") + body
            else:
                text += (" - " if neg else " + ") + body
        return text


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the eventual-positivity search.

    kind is "yes" (positive on every integer point >= m0, where m0 is the
    least certifying diagonal shift, however far out), "no" (negative on a
    cofinal ray base + t*direction for all t >= threshold), or "unknown"
    (no diagonal shift certifies the polynomial and the ray search, whose
    directions have entries up to the stated bound, found no negative ray).
    """

    kind: str
    m0: tuple[int, ...] | None = None
    base: tuple[int, ...] | None = None
    direction: tuple[int, ...] | None = None
    threshold: int | None = None
    bound: int | None = None

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"


def _interpolate(degrees, total: int, f) -> MultiPoly:
    """The polynomial with values f(k) whose binomial exponents k all lie in
    the lower set  k_j <= degrees[j], sum(k) <= total.

    f receives every point of the set at once, as coordinate lists (the
    j-th lists the j-th coordinate of each point), and returns their values
    in that order.  The coefficient at k is the forward difference
    Delta^k f(0), an integer when f is integer-valued.  Differencing one
    axis at a time stays inside the set, since each of its lines along an
    axis starts at 0.
    """
    points = [k for k in itertools.product(*(range(d + 1) for d in degrees))
              if sum(k) <= total]
    if not points:
        return MultiPoly.zero(len(degrees))
    values = dict(zip(points, f(list(zip(*points)))))
    for j, d in enumerate(degrees):
        for m in range(1, d + 1):
            values = {k: c - values[k[:j] + (k[j] - 1,) + k[j + 1:]] if k[j] >= m else c
                      for k, c in values.items()}
    return MultiPoly._trusted(len(degrees), {k: c for k, c in values.items() if c})


def box_sum(p: MultiPoly) -> MultiPoly:
    """f(n) = sum of p over the box 1 <= n_i <= n, as a univariate polynomial.

    The column sums  sum_{m=1..n} C(m,k) = C(n+1,k+1) - [k = 0]  give f(n)
    in closed form; f has degree at most deg p + s, so its values at
    n = 0..deg p + s determine it.
    """
    degree = p.total_degree() + p.nvars
    return _interpolate((degree,), degree, lambda coords: [sum(
        c * math.prod(math.comb(n + 1, k + 1) - (k == 0) for k in key)
        for key, c in p.terms.items()) for n in coords[0]])


def compose(outer: MultiPoly, inner) -> MultiPoly:
    """outer(inner_1(n), ..., inner_rho(n)) as a polynomial in n.

    A term prod_i C(x_i, k_i) of outer becomes a polynomial of degree at most
    sum_i k_i * deg(inner_i) in each n_j and in total, so the composition is
    interpolated from its integer values on that box cut by that total.  The
    inner and outer polynomials are evaluated at all those points together.
    """
    args = list(inner)
    _expect_len("number of inner polynomials", len(args), outer.nvars)
    nvars = args[0].nvars
    for a in args:
        _expect_len("inner polynomial variable count", a.nvars, nvars)

    def bound(degree_of) -> int:
        degs = [max(degree_of(a), 0) for a in args]
        return max((sum(k * d for k, d in zip(key, degs)) for key in outer.terms),
                   default=0)

    degrees = [bound(lambda a: a.degree_in(j)) for j in range(nvars)]
    return _interpolate(degrees, bound(MultiPoly.total_degree),
                        lambda coords: _values(outer, [_values(a, coords) for a in args]))


def _restrict_to_ray(p: MultiPoly, base, direction) -> tuple[int, list[int]]:
    """(den, numerators): t -> p(base + t*direction) has the monomial
    coefficients numerators[e] / den, lowest first, with den > 0."""
    degree = p.total_degree()
    ray = _interpolate((degree,), degree, lambda coords: _values(
        p, [[b + v * t for t in coords[0]] for b, v in zip(base, direction)]))
    den, numerators = ray._monomial_numerators()
    return den, [numerators.get((e,), 0) for e in range(max(ray.total_degree(), 0) + 1)]


def _sign_stable_threshold(coeffs: list[int]) -> int:
    """t beyond which the polynomial has the sign of its leading coefficient:
    1 + max |c / lead| over the lower coefficients, rounded up."""
    lead = abs(coeffs[-1])
    assert lead != 0
    return 1 + max((-(-abs(c) // lead) for c in coeffs[:-1]), default=0)


@functools.lru_cache(maxsize=1024, typed=True)
def _vandermonde_rows(key: Exponents) -> tuple[tuple[Exponents, tuple[int, ...]], ...]:
    """(j, row) for every j <= key, with row the coefficients of
    prod_i C(t, k_i - j_i) in the basis C(t, 0..|key - j|).

    By Vandermonde, prod_i C(n_i + t, k_i) has at C(n, j) C(t, m) exactly
    the m-th of those coefficients, so one interpolation over (n, t) gives
    every row.  Memoized per process by the exponent key: polynomials of
    one shape share their keys.
    """
    degree = sum(key)
    table = _interpolate(key + (degree,), degree, lambda coords: [
        math.prod(math.comb(n + t, k) for n, k in zip(point, key))
        for *point, t in zip(*coords)]).terms
    return tuple((j, tuple(table.get(j + (m,), 0) for m in range(degree - sum(j) + 1)))
                 for j in itertools.product(*(range(k + 1) for k in key)))


def _shift_trends(p: MultiPoly) -> dict[Exponents, list[int]]:
    """Each binomial coefficient of p.shift((t,)*s) as a polynomial in t.

    By Vandermonde, C(n_i + t, k_i) = sum_j C(t, k_i - j) C(n_i, j), so the
    term c_k adds c_k * prod_i C(t, k_i - j_i) to the coefficient at j.  Each
    trend is an integer vector in the basis C(t, 0..D), D = p.total_degree(),
    with trailing zeros dropped; keys whose trend vanishes are left out.
    """
    degree = p.total_degree()
    trends: dict[Exponents, list[int]] = {}
    for key, c in p.terms.items():
        for j, row in _vandermonde_rows(key):
            vec = trends.setdefault(j, [0] * (degree + 1))
            for m, w in enumerate(row):
                vec[m] += c * w
    for vec in trends.values():
        while vec and not vec[-1]:
            vec.pop()
    return {j: vec for j, vec in trends.items() if vec}


def _shift_certifies(trends: list[list[int]], t: int) -> bool:
    """Whether the diagonal shift t certifies, read from trends: the first,
    the constant term's, must be positive at t and the others nonnegative."""
    basis = [math.comb(t, m) for m in range(max(map(len, trends)))]
    values = (sum(map(operator.mul, vec, basis)) for vec in trends)
    return next(values) > 0 and all(v >= 0 for v in values)


def _least_certifying_shift(p: MultiPoly) -> int | None:
    """The least t whose diagonal shift certifies p, or None if none does.

    A shift certifies when all binomial coefficients of p.shift((t,)*s) are
    nonnegative and the constant one is positive.  Shifting a certified
    polynomial by (1,...,1) keeps it certified, since
    C(n+1,k) = C(n,k) + C(n,k-1) and its new constant term, its value at
    (1,...,1), is at least the old one.  So a shift exists iff the
    constant term's trend has a positive leading coefficient and no other
    trend a negative one, and then t gallops through 0, 1, 3, 7, ... and
    bisects the last gap.  Trends whose coefficients are all nonnegative
    are nonnegative at every t >= 0, so the probes skip them.

    A nonzero p whose coefficients are all nonnegative needs no trends: the
    Vandermonde weights C(t, k_i - j_i) are nonnegative, so every shift
    keeps its coefficients nonnegative, and its constant term
    p(t, ..., t) = sum_k c_k prod_i C(t, k_i) is positive exactly when some
    term has max(k) <= t.
    """
    if p.terms and min(p.terms.values()) >= 0:
        return min(map(max, p.terms))
    trends = _shift_trends(p)
    constant = trends.pop((0,) * p.nvars, [])
    if not constant or constant[-1] < 0 or any(vec[-1] < 0 for vec in trends.values()):
        return None
    checked = [constant] + [vec for vec in trends.values() if min(vec) < 0]
    lo, hi = -1, 0  # lo fails (or is -1), hi is the next probe
    while not _shift_certifies(checked, hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _shift_certifies(checked, mid):
            hi = mid
        else:
            lo = mid
    return hi


def eventually_positive(p: MultiPoly, search_bound: int) -> PositivityResult:
    """Certified semi-decision of eventual strict positivity on N^s.

    Yes certificates come from the least diagonal shift t whose binomial
    coefficients are all nonnegative with positive constant term; that
    search has no upper limit and needs O(log t) probes.  When no shift
    certifies p, No certificates come from rays with entries in
    [1, search_bound] whose restriction has a negative leading coefficient.
    """
    exact_int(search_bound, "search bound", at_least=0)
    s = p.nvars
    if p.is_zero():
        return PositivityResult("unknown", bound=search_bound)
    t = _least_certifying_shift(p)
    if t is not None:
        return PositivityResult("yes", m0=(t,) * s)
    # C(n,k) = n^k/k! + lower terms, so D! times the top form is integral
    degree = p.total_degree()
    top = {k: c * math.factorial(degree) // math.prod(map(math.factorial, k))
           for k, c in p.terms.items() if sum(k) == degree}
    origin = (0,) * s
    degenerate: list[tuple[int, ...]] = []
    for v in itertools.product(range(1, search_bound + 1), repeat=s):
        # D! times the restriction's top coefficient, from any base
        lead = sum(c * math.prod(vi ** ki for vi, ki in zip(v, k))
                   for k, c in top.items())
        if lead > 0:
            continue
        _, coeffs = _restrict_to_ray(p, origin, v)
        if coeffs[-1] < 0:
            return PositivityResult("no", base=origin, direction=v,
                                    threshold=_sign_stable_threshold(coeffs))
        degenerate.append(v)
    coarse = sorted({0, max(1, search_bound // 2), search_bound})
    for base in itertools.product(coarse, repeat=s):
        if base == origin:
            continue
        for v in degenerate:
            _, coeffs = _restrict_to_ray(p, base, v)
            if coeffs[-1] < 0:
                return PositivityResult("no", base=base, direction=v,
                                        threshold=_sign_stable_threshold(coeffs))
    return PositivityResult("unknown", bound=search_bound)

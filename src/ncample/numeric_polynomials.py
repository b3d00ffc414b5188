"""Integer-valued multivariate polynomials in the binomial-coefficient basis.

A polynomial is stored as a finite sum  sum_k c_k * prod_i C(n_i, k_i)  with
integer coefficients c_k.  In this basis integer-valuedness is syntactic, and
nonnegativity of all coefficients together with a positive constant term
certifies strict positivity on the nonnegative orthant.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotIntegerValued, ParseError

Exponents = tuple[int, ...]


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0, via the falling factorial."""
    assert k >= 0
    num = 1
    for j in range(k):
        num *= n - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    q, r = divmod(num, den)
    assert r == 0
    return q


def _mono_to_binom_row(e: int) -> tuple[int, ...]:
    """Coefficients of x^e in the basis C(x,0..e).

    Built by repeated multiplication by x, using
    x*C(x,k) = (k+1)*C(x,k+1) + k*C(x,k).
    """
    row = [1]
    for _ in range(e):
        new = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            new[k + 1] += c * (k + 1)
            new[k] += c * k
        row = new
    return tuple(row)


def _binom_to_mono_row(k: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(x,k) = x(x-1)...(x-k+1)/k!."""
    coeffs = [Fraction(1)]
    for j in range(k):
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= j * coeffs[i + 1]
    fact = 1
    for j in range(2, k + 1):
        fact *= j
    return tuple(c / fact for c in coeffs)


def _mono_mul(a: dict, b: dict) -> dict:
    out: dict[Exponents, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, Fraction(0)) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in the binomial-coefficient basis with int coefficients."""

    nvars: int
    terms: dict[Exponents, int] = field(default_factory=dict)

    def __post_init__(self):
        assert self.nvars >= 1
        for k, c in self.terms.items():
            assert len(k) == self.nvars and all(e >= 0 for e in k)
            assert isinstance(c, int) and c != 0

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: int) -> "MultiPoly":
        c = int(c)
        return MultiPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def binom_term(nvars: int, var: int, k: int, coeff: int = 1) -> "MultiPoly":
        """coeff * C(n_var, k)."""
        if coeff == 0:
            return MultiPoly.zero(nvars)
        key = tuple(k if i == var else 0 for i in range(nvars))
        return MultiPoly(nvars, {key: int(coeff)})

    @staticmethod
    def from_monomials(nvars: int, monomials) -> "MultiPoly":
        """Convert a monomial dict {exponents: rational} to the binomial basis.

        Raises NotIntegerValued when the input is not integer-valued on
        integer points.
        """
        acc: dict[Exponents, Fraction] = {}
        for expts, coeff in dict(monomials).items():
            expts = tuple(int(e) for e in expts)
            assert len(expts) == nvars
            q = Fraction(coeff)
            if not q:
                continue
            rows = [_mono_to_binom_row(e) for e in expts]
            for key in itertools.product(*(range(len(r)) for r in rows)):
                weight = 1
                for r, k in zip(rows, key):
                    weight *= r[k]
                if not weight:
                    continue
                c = acc.get(key, Fraction(0)) + q * weight
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        for key in sorted(acc):
            if acc[key].denominator != 1:
                raise NotIntegerValued(key, acc[key])
        return MultiPoly(nvars, {k: int(c) for k, c in acc.items()})

    def to_monomials(self) -> dict[Exponents, Fraction]:
        acc: dict[Exponents, Fraction] = {}
        for key, coeff in self.terms.items():
            rows = [_binom_to_mono_row(k) for k in key]
            for expts in itertools.product(*(range(len(r)) for r in rows)):
                weight = Fraction(1)
                for r, e in zip(rows, expts):
                    weight *= r[e]
                if not weight:
                    continue
                c = acc.get(expts, Fraction(0)) + coeff * weight
                if c:
                    acc[expts] = c
                elif expts in acc:
                    del acc[expts]
        return acc

    def evaluate(self, point) -> int:
        pt = tuple(point)
        assert len(pt) == self.nvars
        total = 0
        for key, coeff in self.terms.items():
            prod = coeff
            for n, k in zip(pt, key):
                if prod == 0:
                    break
                prod *= binom_int(n, k)
            total += prod
        return total

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
        assert self.nvars == other.nvars
        out = dict(self.terms)
        for k, c in other.terms.items():
            c2 = out.get(k, 0) + c
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def scale(self, c: int) -> "MultiPoly":
        c = int(c)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        assert self.nvars == other.nvars
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(self.nvars)
        product = _mono_mul(self.to_monomials(), other.to_monomials())
        return MultiPoly.from_monomials(self.nvars, product)

    def shift(self, t) -> "MultiPoly":
        """The polynomial n -> self(n + t), exactly, via Vandermonde."""
        tv = tuple(int(x) for x in t)
        assert len(tv) == self.nvars
        out: dict[Exponents, int] = {}
        for key, coeff in self.terms.items():
            # C(n_i + t_i, k_i) = sum_j C(t_i, k_i - j) C(n_i, j)
            rows = []
            for t_i, k_i in zip(tv, key):
                rows.append(tuple(binom_int(t_i, k_i - j) for j in range(k_i + 1)))
            for newkey in itertools.product(*(range(len(r)) for r in rows)):
                weight = coeff
                for r, j in zip(rows, newkey):
                    weight *= r[j]
                if not weight:
                    continue
                c = out.get(newkey, 0) + weight
                if c:
                    out[newkey] = c
                elif newkey in out:
                    del out[newkey]
        return MultiPoly(self.nvars, out)

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

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in ("m0", "base", "direction"):
            v = getattr(self, name)
            if v is not None:
                out[name] = list(v)
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.bound is not None:
            out["bound"] = self.bound
        return out


def box_sum(p: MultiPoly) -> MultiPoly:
    """f(n) = sum of p over the box 1 <= n_i <= n, as a univariate polynomial.

    Uses the closed column sum  sum_{m=1..n} C(m,k) = C(n+1,k+1), rewritten
    as C(n,k+1) + C(n,k) - [k = 0].
    """
    result = MultiPoly.zero(1)
    for key, coeff in p.terms.items():
        factor = MultiPoly.constant(1, coeff)
        for k in key:
            if k == 0:
                g = MultiPoly(1, {(1,): 1})
            else:
                g = MultiPoly(1, {(k + 1,): 1, (k,): 1})
            factor = factor * g
        result = result + factor
    return result


def compose(outer: MultiPoly, inner) -> MultiPoly:
    """outer(inner_1(n), ..., inner_rho(n)) as a polynomial in n.

    The composition is carried out in the rational monomial basis and
    converted back; the result of composing integer-valued inputs along an
    integer-lattice-valued tuple stays integer-valued.
    """
    args = list(inner)
    assert len(args) == outer.nvars
    nvars = args[0].nvars
    assert all(a.nvars == nvars for a in args)
    arg_monos = [a.to_monomials() for a in args]
    one = {(0,) * nvars: Fraction(1)}
    # cache powers of each argument as they come up
    powers: list[dict[int, dict]] = [{0: one} for _ in args]

    def arg_power(i: int, e: int) -> dict:
        cache = powers[i]
        if e not in cache:
            cache[e] = _mono_mul(arg_power(i, e - 1), arg_monos[i])
        return cache[e]

    acc: dict[Exponents, Fraction] = {}
    for expts, coeff in outer.to_monomials().items():
        term = {(0,) * nvars: coeff}
        for i, e in enumerate(expts):
            if e:
                term = _mono_mul(term, arg_power(i, e))
        for k, c in term.items():
            c2 = acc.get(k, Fraction(0)) + c
            if c2:
                acc[k] = c2
            elif k in acc:
                del acc[k]
    return MultiPoly.from_monomials(nvars, acc)


def _restrict_to_ray(mono: dict, base, direction) -> list[Fraction]:
    """Univariate coefficients (lowest first) of t -> p(base + t*direction)."""
    out = [Fraction(0)]
    for expts, coeff in mono.items():
        term = [coeff]
        for b, v, e in zip(base, direction, expts):
            for _ in range(e):
                # multiply by (b + v t)
                nxt = [Fraction(0)] * (len(term) + 1)
                for i, c in enumerate(term):
                    nxt[i] += c * b
                    nxt[i + 1] += c * v
                term = nxt
        if len(term) > len(out):
            out.extend([Fraction(0)] * (len(term) - len(out)))
        for i, c in enumerate(term):
            out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _sign_stable_threshold(coeffs: list[Fraction]) -> int:
    """t beyond which the polynomial has the sign of its leading coefficient."""
    lead = coeffs[-1]
    assert lead != 0
    if len(coeffs) == 1:
        return 1
    worst = max(abs(c / lead) for c in coeffs[:-1])
    t = 1 + int(worst)
    if Fraction(t) < 1 + worst:
        t += 1
    return t


def _certifies(q: MultiPoly) -> bool:
    """All binomial coefficients >= 0 and the constant term > 0."""
    return q.constant_term > 0 and all(c >= 0 for c in q.terms.values())


def _some_shift_certifies(p: MultiPoly, shifted) -> bool:
    """Whether any diagonal shift t certifies p, decided exactly.

    Each binomial coefficient of p.shift((t,)*s) is a polynomial in t of
    degree at most D = p.total_degree(), so its values at t = 0..D (from
    ``shifted(t)``) give its coefficients in the basis C(t, m) by forward
    differences; its sign for large t is that of the last nonzero one.
    Since the certifying shifts are upward closed, one exists iff the
    constant term's polynomial is eventually positive and no other
    coefficient's is eventually negative.
    """
    degree = p.total_degree()
    values = [shifted(t) for t in range(degree + 1)]
    constant = (0,) * p.nvars
    keys = {constant}.union(*(q.terms for q in values))
    for key in keys:
        row = [q.terms.get(key, 0) for q in values]
        for m in range(1, degree + 1):
            for i in range(degree, m - 1, -1):
                row[i] -= row[i - 1]
        lead = next((c for c in reversed(row) if c), 0)
        if lead < 0 or (key == constant and lead == 0):
            return False
    return True


def _least_certifying_shift(p: MultiPoly, search_bound: int) -> int | None:
    """The least t whose diagonal shift certifies p, or None if none does.

    Shifting a certified polynomial by (1,...,1) keeps it certified, since
    C(n+1,k) = C(n,k) + C(n,k-1) and its new constant term, its value at
    (1,...,1), is at least the old one.  So t gallops through 0, 1, 3, 7,
    ... and then bisects the last gap.  When the gallop first passes
    search_bound it asks _some_shift_certifies whether to go on.
    """
    @functools.cache
    def shifted(t: int) -> MultiPoly:
        return p.shift((t,) * p.nvars)

    lo, hi = -1, 0  # lo fails (or is -1), hi is the next probe
    while not _certifies(shifted(hi)):
        lo, hi = hi, 2 * hi + 1
        if lo <= search_bound < hi and not _some_shift_certifies(p, shifted):
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _certifies(shifted(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def eventually_positive(p: MultiPoly, search_bound: int) -> PositivityResult:
    """Certified semi-decision of eventual strict positivity on N^s.

    Yes certificates come from the least diagonal shift t whose binomial
    coefficients are all nonnegative with positive constant term; that
    search has no upper limit and needs O(log t) shifts.  When no shift
    certifies p, No certificates come from rays with entries in
    [1, search_bound] whose restriction has a negative leading coefficient.
    """
    if search_bound < 0:
        raise ParseError(f"search bound must be >= 0, got {search_bound}")
    s = p.nvars
    if p.is_zero():
        return PositivityResult("unknown", bound=search_bound)
    t = _least_certifying_shift(p, search_bound)
    if t is not None:
        return PositivityResult("yes", m0=(t,) * s)
    mono = p.to_monomials()
    top_degree = max(sum(e) for e in mono)
    top = {e: c for e, c in mono.items() if sum(e) == top_degree}
    origin = (0,) * s
    degenerate: list[tuple[int, ...]] = []
    for v in itertools.product(range(1, search_bound + 1), repeat=s):
        lead = Fraction(0)
        for e, c in top.items():
            w = c
            for vi, ei in zip(v, e):
                w *= vi ** ei
            lead += w
        if lead > 0:
            continue
        # from the origin the restriction's top coefficient is lead itself
        coeffs = _restrict_to_ray(mono, origin, v)
        if coeffs[-1] < 0:
            return PositivityResult("no", base=origin, direction=v,
                                    threshold=_sign_stable_threshold(coeffs))
        degenerate.append(v)
    coarse = sorted({0, max(1, search_bound // 2), search_bound})
    for base in itertools.product(coarse, repeat=s):
        if base == origin:
            continue
        for v in degenerate:
            coeffs = _restrict_to_ray(mono, base, v)
            if coeffs[-1] < 0:
                return PositivityResult("no", base=base, direction=v,
                                        threshold=_sign_stable_threshold(coeffs))
    return PositivityResult("unknown", bound=search_bound)

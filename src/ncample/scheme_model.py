"""Numerical models of projective schemes.

A model carries a lattice rank, a dimension, a dimension-counting polynomial
on the lattice, and a polyhedral cone of strict inequalities whose interior
stands in for the ample classes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import EmptyCone, ParseError, exact_int, exact_ints, int_tuple, strict_int
from .numeric_polynomials import MultiPoly


@dataclass(frozen=True)
class DivisorClass:
    """Integer lattice point representing a numerical divisor class."""

    coords: tuple[int, ...]

    def __post_init__(self):
        exact_ints(self.coords, "divisor coordinate")

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def _rational(value) -> int | Fraction:
    """The rational number a document entry spells, as Fraction(str(value))
    reads it: an int when int() reads the text, since that is the common
    case and int() accepts nothing Fraction() rejects, else a Fraction.
    Raises what Fraction() raises (ValueError, ZeroDivisionError)."""
    text = str(value)
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


def as_coords(vec) -> tuple[int, ...]:
    """The coordinates of a class given as a DivisorClass or a sequence of
    ints; any other entry raises ParseError instead of being truncated."""
    if isinstance(vec, DivisorClass):
        return vec.coords
    return DivisorClass(tuple(vec)).coords


@dataclass(frozen=True)
class NumericalScheme:
    name: str
    dim: int
    rho: int
    euler: MultiPoly
    cone: tuple[tuple[int, ...], ...]
    interior_point: tuple[int, ...] = field(compare=False)
    note: str = ""

    @staticmethod
    def build(name, dim, rho, euler, cone, note="") -> "NumericalScheme":
        for what, text in (("name", name), ("note", note)):
            if not isinstance(text, str):
                raise ParseError(f"{what} must be a string, got {text!r}")
        dim = strict_int(dim, "dim")
        rho = strict_int(rho, "rho")
        if dim < 0:
            raise ParseError(f"dim must be >= 0, got {dim}")
        if rho < 1:
            raise ParseError(f"rho must be >= 1, got {rho}")
        if euler.nvars != rho:
            raise ParseError(f"euler polynomial has {euler.nvars} variables, expected {rho}")
        if euler.total_degree() > dim:
            raise ParseError(
                f"euler polynomial degree {euler.total_degree()} exceeds dim {dim}")
        try:
            rows = tuple(int_tuple(row, "ample cone entry") for row in cone)
        except TypeError as exc:
            raise ParseError(f"ample cone must be a list of rows: {exc}") from exc
        if not rows:
            raise ParseError("ample cone needs at least one functional")
        for row in rows:
            if len(row) != rho:
                raise ParseError(f"cone row {row} has length {len(row)}, expected {rho}")
        return NumericalScheme(name, dim, rho, euler, rows, _find_interior_point(rows, rho), note)

    def is_ample(self, c) -> bool:
        """Strict positivity of every cone functional at the class c."""
        v = as_coords(c)
        if len(v) != self.rho:
            raise ParseError(f"class {v} has length {len(v)}, expected {self.rho}")
        return _strictly_positive(self.cone, v)

    def euler_at(self, c) -> int:
        return self.euler.evaluate(as_coords(c))

    def to_document(self) -> dict:
        mono = self.euler.to_monomials()
        doc = {
            "name": self.name,
            "dim": self.dim,
            "rho": self.rho,
            "euler": [{"coeff": str(mono[e]), "exponents": list(e)}
                      for e in sorted(mono, key=lambda e: (-sum(e), e))],
            "ample_cone": [list(row) for row in self.cone],
        }
        if self.note:
            doc["note"] = self.note
        return doc


def _strictly_positive(rows, point) -> bool:
    return all(sum(r * x for r, x in zip(row, point)) > 0 for row in rows)


def _find_interior_point(rows, rho):
    """The first point of itertools.product(range(-R, R + 1), repeat=rho)
    with every row strictly positive, for the least R that has one.

    Raises EmptyCone, with a Gordan certificate, when no real point has.
    The search tables are built once per cone. The unit box is searched
    before the projection is built, with the same first point: the
    projected rows follow from the cone's, so they only prune."""
    levels = _cone_levels(rows, rho)
    point = _first_in_box(levels, 1)
    if point is not None:
        return point
    # a projected row of bounding[i] involves x[0..i] only: spread 0
    levels = [[(row[:i], row[i], 0) for row in bounding] + level
              for i, (bounding, level) in enumerate(zip(_project(rows, rho), levels))]
    # a nonempty open cone holds integer points, so the walk ends
    for radius in itertools.count(2):
        point = _first_in_box(levels, radius)
        if point is not None:
            return point


def _cone_levels(rows, rho) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """The search tables of _first_in_box for the cone rows alone: for each
    coordinate i, (row[:i], row[i], sum |row[i+1:]|) for each row whose
    check at i can fail. Two kinds of row cannot, so they are left out: a
    row that is zero from i on, which the bound on x[j] at its last nonzero
    coordinate j already made positive, and a row zero at i and before,
    whose later coordinates can still add radius * spread > 0. A zero row
    stays, and fails at coordinate 0."""
    levels = []
    for i in range(rho):
        level = []
        for row in rows:
            prefix, a, spread = row[:i], row[i], sum(map(abs, row[i + 1:]))
            if a or spread and any(prefix) or not any(row):
                level.append((prefix, a, spread))
        levels.append(level)
    return levels


def _project(rows, rho) -> list[list[tuple[int, ...]]]:
    """Fourier-Motzkin elimination of x[rho-1], ..., x[0] from rows . x > 0.

    Returns, for each i, the derived rows that bound x[i]: they involve
    x[0..i] only, and x[0..i] extends to a real point of the cone exactly
    when it makes every row of bounding[0], ..., bounding[i] positive.
    Derived rows are kept primitive with integer multipliers y >= 0 and a
    scale t > 0 such that t * row == y^T A exactly; a derived zero row makes
    y a Gordan certificate that the cone is empty."""
    system: dict = {}
    for i, row in enumerate(rows):
        _keep(system, row, tuple(int(k == i) for k in range(len(rows))), 1)
    bounding = [[] for _ in range(rho)]
    for done, j in enumerate(reversed(range(rho)), start=1):
        eliminated = [(row, y) for (row, _), y in system.items() if row[j]]
        system = {key: y for key, y in system.items() if not key[0][j]}
        for p, (yp, tp) in eliminated:
            for n, (yn, tn) in eliminated:
                if p[j] > 0 > n[j]:
                    # -n[j] p + p[j] n, times tp tn, is y^T A
                    y = tuple(-n[j] * tn * u + p[j] * tp * v for u, v in zip(yp, yn))
                    # Chernikov's rule: after `done` eliminations a row that
                    # combines more than done + 1 input rows is implied by
                    # the rows that combine fewer, so it can go
                    if sum(1 for c in y if c) <= done + 1:
                        _keep(system, tuple(-n[j] * a + p[j] * b
                                            for a, b in zip(p, n)), y, tp * tn)
        bounding[j] = list(dict.fromkeys(row for row, _ in eliminated))
    return bounding


def _keep(system, row, y, scale) -> None:
    """Store row primitive with (y, scale) in lowest terms, keyed with the
    input rows it combines: two rows equal as vectors but built from
    different inputs both stay, since Chernikov's rule counts inputs."""
    g = math.gcd(*row)
    if g == 0:
        g = math.gcd(*y)
        raise EmptyCone(tuple(c // g for c in y))
    key = (tuple(a // g for a in row), frozenset(k for k, c in enumerate(y) if c))
    if key not in system:
        h = math.gcd(scale * g, *y)
        system[key] = (tuple(c // h for c in y), scale * g // h)


def _first_in_box(levels, radius):
    """Depth-first search, in itertools.product order, for the first point of
    [-radius, radius]^rho with every row strictly positive, or None.

    levels[i] lists (prefix, a, spread) for the rows that bound coordinate
    i: the row is prefix . x[0..i-1] + a * x[i] + (terms in the later
    coordinates, whose absolute coefficients sum to spread). Coordinate i
    only takes the values that leave every such row able to become
    positive when the later coordinates add the most the box allows,
    radius * spread. The walk keeps its own stack, so rho is not bounded
    by the recursion limit."""
    point: list[int] = []
    pending = []  # pending[i]: the values coordinate i has yet to try
    while len(point) < len(levels):
        lo, hi = -radius, radius
        for prefix, a, spread in levels[len(point)]:
            # need a * x + c > 0
            c = sum(map(mul, prefix, point)) + radius * spread
            if a > 0:
                lo = max(lo, -((c - 1) // a))
            elif a < 0:
                hi = min(hi, (c - 1) // -a)
            elif c <= 0:
                hi = lo - 1  # no value of x makes this row positive
                break
        pending.append(iter(range(lo, hi + 1)))
        while (x := next(pending[-1], None)) is None:
            pending.pop()
            if not pending:
                return None
            point.pop()
        point.append(x)
    return tuple(point)


def load_scheme(document) -> NumericalScheme:
    """Build a scheme model from a JSON document (dict or JSON text)."""
    doc = _as_dict(document)
    for key in ("name", "dim", "rho", "euler", "ample_cone"):
        if key not in doc:
            raise ParseError(f"missing required member {key!r}")
    try:
        rho = strict_int(doc["rho"], "rho")
        monomials = {}
        for term in doc["euler"]:
            expts = int_tuple(term["exponents"], "euler exponent")
            if len(expts) != rho or any(e < 0 for e in expts):
                raise ParseError(f"bad euler exponents {list(expts)}")
            monomials[expts] = monomials.get(expts, 0) + _rational(term["coeff"])
        # the basis change costs about the cube of the degree, so a degree
        # above dim is refused before it, with NumericalScheme.build's message
        dim = strict_int(doc["dim"], "dim")
        degree = max((sum(e) for e, q in monomials.items() if q), default=0)
        if 0 <= dim < degree:
            raise ParseError(f"euler polynomial degree {degree} exceeds dim {dim}")
    except ParseError:
        raise
    except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed scheme document: {exc}") from exc
    euler = MultiPoly.from_monomials(rho, monomials)
    return NumericalScheme.build(
        doc["name"], dim, rho, euler, doc["ample_cone"],
        note=doc.get("note", ""))


def _as_dict(document) -> dict:
    """A document as a dict: a dict as it is, or JSON text (bytes read as
    UTF-8); over-deep nesting and over-long integers are invalid JSON."""
    if isinstance(document, dict):
        return document
    if isinstance(document, (str, bytes)):
        try:
            if isinstance(document, bytes):
                document = document.decode("utf-8")
            doc = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("top-level JSON value must be an object")
        return doc
    raise ParseError(f"cannot read a document from {type(document).__name__}")


@functools.lru_cache(maxsize=None, typed=True)
def p1_power_scheme(d: int) -> NumericalScheme:
    """Product of d projective lines: dim d, rank d, counting product (n_i + 1).
    The model is immutable, so it is built once per d."""
    exact_int(d, "number of projective lines", at_least=1)
    # prod (C(n_i,1) + 1) expands to every 0/1 exponent with coefficient 1
    euler = MultiPoly(d, dict.fromkeys(itertools.product((0, 1), repeat=d), 1))
    cone = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
    name = {1: "P1", 2: "P1xP1"}.get(d, f"P1^{d}")
    return NumericalScheme.build(name, d, d, euler, cone)


def _p2_scheme() -> NumericalScheme:
    # (n+1)(n+2)/2 = C(n,2) + 2 C(n,1) + 1
    euler = MultiPoly(1, {(2,): 1, (1,): 2, (0,): 1})
    return NumericalScheme.build("P2", 2, 1, euler, ((1,),))


def _abelian_surface_scheme() -> NumericalScheme:
    # rank-2 hyperbolic model: counting polynomial a*b, trivial-class count 0
    euler = MultiPoly(2, {(1, 1): 1})
    return NumericalScheme.build("AbelianSurfaceHyperbolic", 2, 2, euler, ((1, 0), (0, 1)))


_BUILTIN_FACTORIES = {
    "P1": lambda: p1_power_scheme(1),
    "P1xP1": lambda: p1_power_scheme(2),
    "P2": _p2_scheme,
    "AbelianSurfaceHyperbolic": _abelian_surface_scheme,
}


def builtin_scheme(name: str) -> NumericalScheme:
    if name not in _BUILTIN_FACTORIES:
        known = ", ".join(sorted(_BUILTIN_FACTORIES))
        raise ParseError(f"unknown builtin scheme {name!r} (have: {known})")
    return _BUILTIN_FACTORIES[name]()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_FACTORIES))

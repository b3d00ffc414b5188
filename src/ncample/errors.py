"""Shared exception and warning types, and the integer checks.

An int here is an int and nothing else: bools, floats and anything else
raise ParseError instead of being truncated.  Document readers also take a
string that spells an int.
"""

from __future__ import annotations


class NcampleError(Exception):
    """Base error for this package."""


class ParseError(NcampleError):
    """A document or source string is malformed or fails validation."""


_INT = {int}


def strict_int(value, what: str) -> int:
    """A document entry as an int: an int, or a string spelling one."""
    if type(value) is int:
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def int_tuple(values, what: str) -> tuple[int, ...]:
    """A document array, a list or a tuple, as a tuple of ints. One type
    check passes an array of ints; any other array goes through strict_int
    entry by entry, which reads strings spelling ints and raises its
    ParseError at the first bad entry."""
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"expected a JSON array of integers for {what}, got {values!r}")
    t = tuple(values)
    if set(map(type, t)) == _INT:
        return t
    return tuple(strict_int(v, what) for v in t)


def exact_int(value, what: str, at_least: int | None = None) -> int:
    """A library argument that must already be an int, and at least
    at_least when that is given."""
    if type(value) is not int or at_least is not None and value < at_least:
        bound = "" if at_least is None else f" >= {at_least}"
        raise ParseError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def exact_ints(values, what: str, length: int | None = None,
               at_least: int | None = None) -> tuple[int, ...]:
    """A library array as a tuple of ints, each checked as exact_int checks
    one, with length entries when that is given. One type check and a min
    pass an array of ints; only a bad array is walked entry by entry, to
    name its first bad entry."""
    t = tuple(values)
    if length is not None and len(t) != length:
        raise ParseError(f"{what} count must be {length}, got {len(t)}")
    if set(map(type, t)) != _INT or at_least is not None and min(t) < at_least:
        for v in t:
            exact_int(v, what, at_least)
    return t


class NonInvertible(NcampleError):
    """An action matrix does not have determinant +1 or -1."""

    def __init__(self, index=None, det=None):
        self.index = index
        self.det = det
        where = "" if index is None else f" at position {index}"
        super().__init__(f"action matrix{where} has determinant {det}, expected +1 or -1")


class NotNilpotent(NcampleError):
    """A matrix expected to be nilpotent is not."""


class NotIntegerValued(NcampleError):
    """A polynomial is not integer-valued on integer points."""

    def __init__(self, exponents, coeff):
        self.exponents = exponents
        self.coeff = coeff
        super().__init__(
            f"non-integer coefficient {coeff} at basis exponents {exponents}"
        )


class EmptyCone(NcampleError):
    """A cone of strict inequalities A x > 0 has no interior point.

    certificate is Gordan's alternative: integers y >= 0, not all zero, one
    per row of A, with y^T A = 0 exactly, so no x makes every row positive.
    """

    def __init__(self, certificate):
        self.certificate = tuple(certificate)
        super().__init__(
            f"ample cone is empty: row multipliers {list(self.certificate)} "
            f"are >= 0 and sum the rows to zero")


class MatrixCommutationFail(NcampleError):
    """Two action matrices do not commute."""

    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(f"action matrices at positions {i} and {j} do not commute")


class ClassCommutationFail(NcampleError):
    """Two bimodules do not commute at the level of divisor classes."""

    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(
            f"bimodules at positions {i} and {j} fail divisor-class commutation"
        )


class UnipotentRequired(NcampleError):
    """An operation needed a unipotent action matrix."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"action matrix at position {index} is not unipotent")


class ArityError(NcampleError):
    """An operation received a system with the wrong number of bimodules."""


class NotQuasiUnipotent(NcampleError):
    """An operation required every action matrix to be quasi-unipotent."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"action matrix at position {index} is not quasi-unipotent")


class NotNCAmple(NcampleError):
    """Growth data was requested for a system without a positive ampleness verdict."""

    def __init__(self, verdict_kind):
        self.verdict_kind = verdict_kind
        super().__init__(f"system verdict is {verdict_kind}, need NCAmple")


class DegenerateHilbert(NcampleError):
    """The dimension-counting polynomial vanishes identically."""


class DegreeMismatch(NcampleError):
    """A ring element's multidegree disagrees with its declared grade."""


class GeometricRealizabilityWarning(UserWarning):
    """A unipotent action matrix violates the nilpotency bound satisfied by
    automorphism actions on projective models, so no geometric realization exists."""

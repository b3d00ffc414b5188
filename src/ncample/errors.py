"""Shared exception and warning types."""

from __future__ import annotations


class NcampleError(Exception):
    """Base error for this package."""


class ParseError(NcampleError):
    """A document or source string is malformed or fails validation."""


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

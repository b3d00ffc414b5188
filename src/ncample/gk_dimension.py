"""Growth of twisted multi-homogeneous coordinate rings.

For a certified system the graded dimension count is polynomial on each
residue branch; passing to the combined stride makes it a single polynomial,
and the growth exponent is the degree of its box sum plus nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ampleness import (DEFAULT_SEARCH_BOUND, Verdict, nc_ample_verdict,
                        nilpotency_ceiling)
from .bimodule_system import BimoduleSystem, class_at, symbolic_class
from .errors import DegenerateHilbert, NotNCAmple
from .numeric_polynomials import MultiPoly, box_sum, compose


def gk_bounds(sys: BimoduleSystem) -> tuple[int, int]:
    """Inclusive range the growth exponent must land in for realizable data."""
    dim = sys.scheme.dim
    ell = nilpotency_ceiling(sys.scheme.rho)
    return dim + 1, sys.s * ((ell + 1) * dim + 1)


def hilbert_value(sys: BimoduleSystem, n) -> int:
    """Euler characteristic of the class at exponent n."""
    return sys.scheme.euler_at(class_at(sys, n))


@dataclass(frozen=True)
class GkCertificate:
    gk: int
    veronese_used: tuple[int, ...]
    hilbert: MultiPoly
    box_poly: MultiPoly
    bounds: tuple[int, int]
    ell: int
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "gk": self.gk,
            "veronese_used": list(self.veronese_used),
            "hilbert": self.hilbert.to_json(),
            "hilbert_monomials": self.hilbert.format_monomials(),
            "box_poly": self.box_poly.to_json(),
            "box_poly_monomials": self.box_poly.format_monomials(["n"]),
            "bounds": list(self.bounds),
            "ell": self.ell,
            "verdict": self.verdict.to_json(),
        }


def gk(sys: BimoduleSystem, search_bound: int = DEFAULT_SEARCH_BOUND) -> GkCertificate:
    """Growth exponent with its full certificate.

    Requires an NCAmple verdict; on the stride where every action is
    unipotent the dimension count chi(class(n)) is a polynomial, its box sum
    is univariate, and the growth exponent is that degree.
    """
    verdict = nc_ample_verdict(sys, search_bound)
    if verdict.kind != "NCAmple":
        raise NotNCAmple(verdict.kind)
    periods = verdict.screen.orders
    hilbert = compose(sys.scheme.euler, symbolic_class(sys, periods))
    if hilbert.is_zero():
        raise DegenerateHilbert(
            "dimension-counting polynomial vanishes identically on the stride")
    box = box_sum(hilbert)
    return GkCertificate(
        gk=box.total_degree(),
        veronese_used=periods,
        hilbert=hilbert,
        box_poly=box,
        bounds=gk_bounds(sys),
        ell=verdict.screen.ell,
        verdict=verdict,
    )

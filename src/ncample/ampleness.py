"""Decision procedure for eventual simultaneous ampleness.

The certified route: screen every action for quasi-unipotence, pass to the
periods where all actions become unipotent, split the exponent lattice into
residue branches, and run the certified positivity search on every cone
functional of every branch polynomial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import lcm
from operator import mul

from .bimodule_system import BimoduleSystem, _twisted_walk, branch_class_polys
from .errors import (ArityError, GeometricRealizabilityWarning,
                     NotQuasiUnipotent, exact_int)
from .lattice_algebra import is_quasi_unipotent, strided_nilpotent_powers
from .numeric_polynomials import MultiPoly, eventually_positive

DEFAULT_SEARCH_BOUND = 16


def nilpotency_ceiling(rho: int) -> int:
    """Largest nilpotency exponent an automorphism action can realize, minus one."""
    return 2 * ((rho - 1) // 2)


@dataclass(frozen=True)
class ScreenEntry:
    index: int
    quasi_unipotent: bool
    order: int | None
    nilpotency: int | None
    realizability_warning: str | None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "quasi_unipotent": self.quasi_unipotent,
            "order": self.order,
            "nilpotency": self.nilpotency,
            "realizability_warning": self.realizability_warning,
        }


@dataclass(frozen=True)
class ScreenReport:
    entries: tuple[ScreenEntry, ...]
    ell: int

    @property
    def all_quasi_unipotent(self) -> bool:
        return all(e.quasi_unipotent for e in self.entries)

    @property
    def first_failure(self) -> int | None:
        for e in self.entries:
            if not e.quasi_unipotent:
                return e.index
        return None

    @property
    def orders(self) -> tuple:
        return tuple(e.order for e in self.entries)

    @property
    def combined_order(self) -> int | None:
        if not self.all_quasi_unipotent:
            return None
        return lcm(*(e.order for e in self.entries))

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(e.realizability_warning for e in self.entries
                     if e.realizability_warning)

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "ell": self.ell,
            "all_quasi_unipotent": self.all_quasi_unipotent,
            "combined_order": self.combined_order,
        }


def quasi_unipotent_screen(sys: BimoduleSystem) -> ScreenReport:
    """Per-bimodule quasi-unipotence, orders, and realizability diagnostics.

    A unipotent power whose nilpotent part survives past exponent ell + 1
    cannot come from an automorphism of a projective model; that raises
    GeometricRealizabilityWarning but is not an error.  The decision and
    the nilpotent powers come from lattice_algebra's memos, keyed by the
    matrix and by (matrix, order); the warning and the message are made
    here for every index.
    """
    rho = sys.scheme.rho
    ell = nilpotency_ceiling(rho)
    entries = []
    for i, bim in enumerate(sys.bimodules):
        flag, order = is_quasi_unipotent(bim.action)
        nilp = None
        message = None
        if flag:
            nilp = len(strided_nilpotent_powers(bim.action, order))
            if nilp > ell + 1:
                message = (f"bimodule {i}: unipotent part fails nilpotency bound "
                           f"{ell + 1} for rank {rho}; no automorphism of a "
                           f"projective model acts this way")
                warnings.warn(GeometricRealizabilityWarning(message))
        entries.append(ScreenEntry(i, flag, order, nilp, message))
    return ScreenReport(tuple(entries), ell)


@dataclass(frozen=True)
class RayWitness:
    """Cofinal ray on which a cone functional of the class stays negative."""

    residue: tuple[int, ...]
    functional_index: int
    functional: tuple[int, ...]
    base: tuple[int, ...]
    direction: tuple[int, ...]
    threshold: int

    def to_json(self) -> dict:
        return {
            "residue": list(self.residue),
            "functional_index": self.functional_index,
            "functional": list(self.functional),
            "base": list(self.base),
            "direction": list(self.direction),
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class BranchRecord:
    residue: tuple[int, ...]
    functional_index: int
    kind: str
    shift: int | None = None

    def to_json(self) -> dict:
        out = {"residue": list(self.residue),
               "functional_index": self.functional_index,
               "kind": self.kind}
        if self.shift is not None:
            out["shift"] = self.shift
        return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of the ampleness decision, with its certificate data."""

    kind: str  # NCAmple | SigmaAmple | QuasiUnipotentFail |
    #            EventualAmplenessFail | Undetermined
    search_bound: int
    screen: ScreenReport
    m0: tuple[int, ...] | None = None
    power: int | None = None
    fail_index: int | None = None
    witness: RayWitness | None = None
    supplementary_witness: RayWitness | None = None
    records: tuple[BranchRecord, ...] = ()
    star_flags: tuple[bool, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def decisive(self) -> bool:
        return self.kind != "Undetermined"

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "search_bound": self.search_bound,
            "screen": self.screen.to_json(),
            "star_flags": list(self.star_flags),
            "notes": list(self.notes),
        }
        if self.m0 is not None:
            out["m0"] = list(self.m0)
        if self.power is not None:
            out["power"] = self.power
        if self.fail_index is not None:
            out["fail_index"] = self.fail_index
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.supplementary_witness is not None:
            out["supplementary_witness"] = self.supplementary_witness.to_json()
        out["branch_records"] = [r.to_json() for r in self.records]
        return out


_CONE_NOTE = "ampleness judged relative to the declared polyhedral cone"


def _verdict(kind, sys, search_bound, screen, *notes, **certificate) -> Verdict:
    """A Verdict carrying the star flags, the cone note, the screen's
    warnings and any further notes."""
    return Verdict(kind, search_bound, screen,
                   star_flags=tuple(b.star for b in sys.bimodules),
                   notes=(_CONE_NOTE,) + screen.warnings + notes, **certificate)


def eventual_ampleness(sys: BimoduleSystem,
                       search_bound: int = DEFAULT_SEARCH_BOUND,
                       screen: ScreenReport | None = None) -> Verdict:
    """Certified search for a corner beyond which every class is ample.

    Returns NCAmple with the corner m0, EventualAmplenessFail with a ray
    witness, or Undetermined, each with its branch records.  Branches are
    scanned in lexicographic residue order and functionals in declaration
    order; the first falsified pair is reported.
    """
    exact_int(search_bound, "search bound", at_least=0)
    if screen is None:
        screen = quasi_unipotent_screen(sys)
    if not screen.all_quasi_unipotent:
        raise NotQuasiUnipotent(screen.first_failure)
    periods = screen.orders
    s = sys.s
    cone = sys.scheme.cone
    records: list[BranchRecord] = []
    m0 = [0] * s
    saw_unknown = False
    # a cone-preserving action permutes the functionals, so most
    # polynomials recur; each distinct one is searched once
    searched = {}
    for residue, vectors in branch_class_polys(sys, periods).items():
        shift = 0
        for k, row in enumerate(cone):
            terms = {key: value for key, vec in vectors.items()
                     if (value := sum(map(mul, row, vec)))}
            seen = frozenset(terms.items())
            outcome = searched.get(seen)
            if outcome is None:
                outcome = searched[seen] = eventually_positive(
                    MultiPoly._trusted(s, terms), search_bound)
            if outcome.is_no:
                witness = RayWitness(
                    residue=residue,
                    functional_index=k,
                    functional=row,
                    base=tuple(c + r * b for c, r, b in
                               zip(residue, periods, outcome.base)),
                    direction=tuple(r * v for r, v in
                                    zip(periods, outcome.direction)),
                    threshold=outcome.threshold,
                )
                records.append(BranchRecord(residue, k, "no"))
                return _verdict("EventualAmplenessFail", sys, search_bound, screen,
                                witness=witness, records=tuple(records))
            if outcome.is_yes:
                t = max(outcome.m0) if outcome.m0 else 0
                shift = max(shift, t)
                records.append(BranchRecord(residue, k, "yes", shift=t))
            else:
                saw_unknown = True
                records.append(BranchRecord(residue, k, "unknown"))
        # a branch certified from shift t covers its residues beyond c + r*(t-1),
        # so the corner is the componentwise max of those cutoffs plus one
        if shift >= 1:
            m0 = [max(m, c + r * (shift - 1) + 1) for m, c, r in zip(m0, residue, periods)]
    if saw_unknown:
        return _verdict("Undetermined", sys, search_bound, screen,
                        records=tuple(records))
    return _verdict("NCAmple", sys, search_bound, screen, m0=tuple(m0),
                    records=tuple(records))


def nc_ample_verdict(sys: BimoduleSystem,
                     search_bound: int = DEFAULT_SEARCH_BOUND) -> Verdict:
    """Full decision: quasi-unipotence screen, then eventual ampleness."""
    exact_int(search_bound, "search bound", at_least=0)
    screen = quasi_unipotent_screen(sys)
    if not screen.all_quasi_unipotent:
        return _verdict("QuasiUnipotentFail", sys, search_bound, screen,
                        fail_index=screen.first_failure)
    return eventual_ampleness(sys, search_bound, screen=screen)


def sigma_ample_verdict(sys: BimoduleSystem,
                        search_bound: int = DEFAULT_SEARCH_BOUND) -> Verdict:
    """Single-factor variant: search for one power with an ample class."""
    if sys.s != 1:
        raise ArityError(f"sigma_ample_verdict needs one bimodule, got {sys.s}")
    exact_int(search_bound, "search bound", at_least=0)
    screen = quasi_unipotent_screen(sys)
    if not screen.all_quasi_unipotent:
        return _verdict("QuasiUnipotentFail", sys, search_bound, screen,
                        fail_index=screen.first_failure)
    for (m,), coords, _ in _twisted_walk(sys, [range(1, search_bound + 1)]):
        if sys.scheme.is_ample(coords):
            return _verdict("SigmaAmple", sys, search_bound, screen, power=m)
    outcome = eventual_ampleness(sys, search_bound, screen=screen)
    if outcome.kind == "EventualAmplenessFail":
        return _verdict("Undetermined", sys, search_bound, screen,
                        "no sampled power is ample and a cofinal negative "
                        "ray exists", supplementary_witness=outcome.witness)
    return _verdict("Undetermined", sys, search_bound, screen)

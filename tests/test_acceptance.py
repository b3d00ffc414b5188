"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single [PASS]/[FAIL] line
(visible with -s or in failure output).  All arithmetic is exact, so every
comparison below is equality or a strict inequality, never a tolerance.
"""

import itertools
import random
import warnings

import pytest

from corpus import (
    FIB,
    SWAP,
    ample_corpus,
    duality_corpus,
    golden_line_and_inverse,
    golden_pair,
    golden_single_line,
    golden_swap,
    golden_warning,
    unipotent_corpus,
)
from ncample.ampleness import nc_ample_verdict, nilpotency_ceiling, quasi_unipotent_screen
from ncample.bimodule_system import class_at, dual, product, rees, symbolic_class
from ncample.errors import GeometricRealizabilityWarning
from ncample.gk_dimension import gk
from ncample.lattice_algebra import Matrix, is_quasi_unipotent
from ncample.section_oracle import FactorAutomorphism, OracleRing, cross_validate

BOUND = 8


def quiet_verdict(sys, bound=BOUND):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nc_ample_verdict(sys, search_bound=bound)


def quiet_gk(sys, bound=BOUND):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gk(sys, search_bound=bound)


def stamp(ok: bool, line: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


@pytest.fixture(scope="module")
def duality_verdicts():
    """Verdict for each duality-corpus system and for its dual."""
    out = []
    for sys in duality_corpus():
        out.append((quiet_verdict(sys), quiet_verdict(dual(sys))))
    return out


@pytest.fixture(scope="module")
def ample_certs():
    """Growth certificates for the all-ample corpus."""
    return [(sys, quiet_gk(sys)) for sys in ample_corpus()]


def test_criterion_01_golden_pair_is_nc_ample():
    v = quiet_verdict(golden_pair())
    ok = v.kind == "NCAmple" and v.decisive and v.m0 == (1, 1)
    stamp(ok, "criterion 1: coordinate-line pair on the quadric is NC-ample "
              f"with corner {v.m0}")


def test_criterion_02_line_and_inverse_fails_with_witness():
    sys = golden_line_and_inverse()
    v = quiet_verdict(sys)
    ok = v.kind == "EventualAmplenessFail" and v.decisive and v.witness is not None
    if ok:
        w = v.witness
        for t in range(w.threshold, w.threshold + 6):
            pt = tuple(b + t * d for b, d in zip(w.base, w.direction))
            val = sum(r * x for r, x in
                      zip(w.functional, class_at(sys, pt).coords))
            ok = ok and val < 0
    stamp(ok, "criterion 2: degree +1/-1 pair fails with a certified "
              "negative ray")


def test_criterion_03_quasi_unipotence_certificates():
    checks = (
        is_quasi_unipotent(SWAP) == (True, 2),
        is_quasi_unipotent(FIB)[0] is False,
        is_quasi_unipotent(Matrix.identity(2)) == (True, 1),
    )
    stamp(all(checks), "criterion 3: quasi-unipotence decisions "
                       "(swap, hyperbolic, identity)")


def test_criterion_04_duality_agreement(duality_verdicts):
    disagreements = []
    decisive = 0
    for v, vd in duality_verdicts:
        if v.decisive and vd.decisive:
            decisive += 1
        if v.kind != vd.kind:
            disagreements.append((v.kind, vd.kind))
    ok = (len(duality_verdicts) >= 100 and decisive >= 80
          and not disagreements)
    stamp(ok, f"criterion 4: duality agreement on {len(duality_verdicts)} "
              f"systems ({decisive} decisive pairs, "
              f"{len(disagreements)} disagreements)")


def test_criterion_05_gk_values_and_bounds(ample_certs):
    golden = (
        quiet_gk(golden_single_line()).gk == 2,
        quiet_gk(golden_pair()).gk == 4,
        quiet_gk(golden_swap()).gk == 3,
        quiet_gk(golden_swap()).bounds[0] == 3,
    )
    in_bounds = True
    for sys, cert in ample_certs:
        lo, hi = cert.bounds
        dim = sys.scheme.dim
        ell = cert.ell
        in_bounds = in_bounds and isinstance(cert.gk, int)
        in_bounds = in_bounds and lo == dim + 1
        in_bounds = in_bounds and hi == sys.s * ((ell + 1) * dim + 1)
        in_bounds = in_bounds and lo <= cert.gk <= hi
    ok = all(golden) and in_bounds
    stamp(ok, f"criterion 5: growth values 2/4/3 and bounds hold on "
              f"{len(ample_certs)} ample systems")


def test_criterion_06_rees_adds_one(ample_certs):
    singles = [(sys, cert) for sys, cert in ample_certs if sys.s == 1]
    ok = len(singles) >= 5
    for sys, cert in singles:
        ok = ok and quiet_gk(rees(sys)).gk == cert.gk + 1
    stamp(ok, f"criterion 6: idealizer duplication adds one to growth on "
              f"{len(singles)} one-bundle systems")


def test_criterion_07_tensor_adds(ample_certs):
    rng = random.Random(5)
    pairs = [(ample_certs[rng.randrange(len(ample_certs))],
              ample_certs[rng.randrange(len(ample_certs))])
             for _ in range(20)]
    ok = True
    for (sa, ca), (sb, cb) in pairs:
        ok = ok and quiet_gk(product(sa, sb)).gk == ca.gk + cb.gk
    stamp(ok, f"criterion 7: product growth is additive on {len(pairs)} pairs")


def test_criterion_08_symbolic_matches_direct():
    mismatches = 0
    systems = unipotent_corpus()
    for sys in systems:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            polys = symbolic_class(sys)
        for n in itertools.product(range(9), repeat=sys.s):
            direct = class_at(sys, n).coords
            symbolic = tuple(p.evaluate(n) for p in polys)
            if direct != symbolic:
                mismatches += 1
    stamp(mismatches == 0,
          f"criterion 8: symbolic class equals the direct sum on [0,8]^s "
          f"for {len(systems)} unipotent systems ({mismatches} mismatches)")


def _oracle_rings():
    ident1 = FactorAutomorphism.identity(1)
    ident2 = FactorAutomorphism.identity(2)
    mob_id = [[1, 0], [0, 1]]
    pair = OracleRing(2, [((1, 0), ident2), ((0, 1), ident2)])
    swap = OracleRing(2, [((1, 0), FactorAutomorphism.build([2, 1],
                                                            [mob_id, mob_id]))])
    parabolic = OracleRing(1, [((1,), FactorAutomorphism.build(
        [1], [[[1, 1], [0, 1]]]))])
    return (("pair", pair), ("swap", swap), ("parabolic", parabolic))


def test_criterion_09_oracle_cross_validation():
    rings = _oracle_rings()
    ok = True
    triples = 0
    for name, ring in rings:
        report = cross_validate(ring, ring.numerical_shadow(), grade_range=6,
                                samples=334, opposite_samples=40, seed=99,
                                triple=tuple(i % ring.s for i in range(3)))
        ok = ok and report["ok"] and report["hilbert"]["skipped"] == 0
        triples += report["associativity"]["samples"]
    stamp(ok and triples >= 1000,
          f"criterion 9: oracle dimensions, {triples} associativity triples, "
          "opposite and reordering coherence all exact")


def test_criterion_10_certificate_soundness(duality_verdicts):
    systems = duality_corpus()
    yes = no = 0
    ok = True
    for sys, (v, _) in zip(systems, duality_verdicts):
        if v.kind == "NCAmple":
            yes += 1
            for off in itertools.product(range(9), repeat=sys.s):
                n = tuple(m + o for m, o in zip(v.m0, off))
                ok = ok and sys.scheme.is_ample(class_at(sys, n))
        elif v.kind == "EventualAmplenessFail":
            no += 1
            w = v.witness
            for t in range(w.threshold, w.threshold + 9):
                pt = tuple(b + t * d for b, d in zip(w.base, w.direction))
                val = sum(r * x for r, x in
                          zip(w.functional, class_at(sys, pt).coords))
                ok = ok and val < 0
    stamp(bool(ok and yes and no),
          f"criterion 10: {yes} positive corners exhaustively ample, "
          f"{no} negative rays verified past their thresholds")


def test_criterion_11_realizability_warning():
    sys = golden_warning()
    with pytest.warns(GeometricRealizabilityWarning):
        rep = quasi_unipotent_screen(sys)
    ell = nilpotency_ceiling(sys.scheme.rho)
    nilpotent_part = sys.bimodules[0].action - Matrix.identity(2)
    ok = (ell == 0 and not (nilpotent_part ** (ell + 1)).is_zero()
          and rep.warnings)
    stamp(ok, "criterion 11: shear action on a rank-2 lattice triggers the "
              "realizability warning at ceiling 0")

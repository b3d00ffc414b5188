import itertools
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    IDENT,
    SWAP,
    ample_corpus,
    duality_corpus,
    fibonacci_system,
    golden_fibonacci,
    golden_line_and_inverse,
    golden_pair,
    golden_single_line,
    golden_swap,
    golden_warning,
    identity_system,
    invariant_divisor_system,
    shared_action_system,
    single_bundle_system,
)
from ncample import ampleness, bimodule_system, cli, lattice_algebra
from ncample.ampleness import (
    nc_ample_verdict,
    nilpotency_ceiling,
    quasi_unipotent_screen,
    sigma_ample_verdict,
)
from ncample.bimodule_system import (
    branch_class_polys,
    class_at,
    combined_single,
    dual,
    load_system,
    make_system,
    veronese,
)
from ncample.errors import ArityError, GeometricRealizabilityWarning, NotQuasiUnipotent
from ncample.lattice_algebra import Matrix
from ncample.numeric_polynomials import MultiPoly, eventually_positive
from ncample.scheme_model import builtin_scheme, p1_power_scheme


def quiet_verdict(sys, bound=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nc_ample_verdict(sys, search_bound=bound)


def reference_records(sys, bound):
    """(residue, functional, kind, shift) of every pair the verdict scans,
    each functional summed as MultiPolys and searched on its own."""
    periods = quasi_unipotent_screen(sys).orders
    records = []
    for residue, vectors in branch_class_polys(sys, periods).items():
        polys = [MultiPoly(sys.s, {k: v[i] for k, v in vectors.items() if v[i]})
                 for i in range(sys.scheme.rho)]
        for k, row in enumerate(sys.scheme.cone):
            h = MultiPoly.zero(sys.s)
            for coeff, poly in zip(row, polys):
                h = h + poly.scale(coeff)
            outcome = eventually_positive(h, bound)
            records.append((residue, k, outcome.kind, max(outcome.m0) if outcome.is_yes else None))
            if outcome.is_no:
                return records
    return records


class TestScreen:
    def test_golden_orders(self):
        rep = quasi_unipotent_screen(golden_swap())
        assert rep.all_quasi_unipotent
        assert rep.orders == (2,)
        assert rep.combined_order == 2

        rep = quasi_unipotent_screen(golden_pair())
        assert rep.orders == (1, 1)

        rep = quasi_unipotent_screen(golden_fibonacci())
        assert not rep.all_quasi_unipotent
        assert rep.first_failure == 0

    def test_nilpotency_ceiling(self):
        # even dimension cap that the realizable world obeys
        assert nilpotency_ceiling(1) == 0
        assert nilpotency_ceiling(2) == 0
        assert nilpotency_ceiling(3) == 2
        assert nilpotency_ceiling(4) == 2
        assert nilpotency_ceiling(5) == 4

    def test_realizability_warning(self):
        with pytest.warns(GeometricRealizabilityWarning):
            rep = quasi_unipotent_screen(golden_warning())
        assert rep.entries[0].realizability_warning is not None
        assert rep.warnings

    def test_one_power_per_bundle(self, monkeypatch):
        # the nilpotency degree takes the one power M^r, from the memo keyed
        # by (matrix, order), so a second screen of the action takes none
        path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "swap-ring.json")
        with open(path, encoding="utf-8") as fh:
            system = load_system(fh.read())
        lattice_algebra.strided_nilpotent_powers.cache_clear()
        calls = []
        power = Matrix.__pow__
        monkeypatch.setattr(Matrix, "__pow__",
                            lambda m, n: calls.append((m, n)) or power(m, n))
        for _ in range(2):
            rep = quasi_unipotent_screen(system)
            assert rep.orders == (2,)
            assert calls == [(system.bimodules[0].action, 2)]

    def test_no_warning_for_permutations(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = quasi_unipotent_screen(golden_swap())
        assert not rep.warnings


SHEAR = Matrix.from_rows([[1, 1], [0, 1]])


def shear_system(*divisors):
    """Bundles on P1xP1 that all share the shear; the classes commute
    because the divisors share their second coordinate."""
    return make_system(builtin_scheme("P1xP1"), [(d, SHEAR) for d in divisors])


class TestScreenMemo:
    """Each distinct action is screened once per process; warnings, screen
    messages and errors are not cached."""

    @staticmethod
    def count_char_polys(monkeypatch):
        lattice_algebra.is_quasi_unipotent.cache_clear()
        lattice_algebra.strided_nilpotent_powers.cache_clear()
        bimodule_system._strided_operators.cache_clear()
        calls = []
        real = lattice_algebra.char_poly
        monkeypatch.setattr(lattice_algebra, "char_poly",
                            lambda m: calls.append(m) or real(m))
        return calls

    def test_shared_shear_screened_once(self, monkeypatch):
        calls = self.count_char_polys(monkeypatch)
        assert quiet_verdict(shear_system((1, 1), (2, 1), (0, 1))).decisive
        assert calls == [SHEAR]
        # another divisor with the same shear reuses the entry
        quiet_verdict(shear_system((3, 2), (1, 2), (2, 2)))
        assert calls == [SHEAR]

    def test_nilpotent_powers_once_per_unipotent_part(self, monkeypatch):
        self.count_char_polys(monkeypatch)
        powers = []
        real = Matrix.__pow__
        monkeypatch.setattr(lattice_algebra.Matrix, "__pow__",
                            lambda m, n: powers.append((m, n)) or real(m, n))
        strided = lattice_algebra.strided_nilpotent_powers
        operators = bimodule_system._strided_operators
        # the screen and the strided class share one M^r per (matrix,
        # order), and the shear's s = 3 power tuple builds its operators once
        for divisors in (((1, 1), (2, 1), (0, 1)), ((3, 2), (1, 2), (2, 2))):
            quiet_verdict(shear_system(*divisors))
            assert powers == [(SHEAR, 1)]
            assert strided.cache_info().misses == 1
            assert operators.cache_info().misses == 1
        # two bundles make a second power tuple, but no second power
        quiet_verdict(shear_system((1, 1), (2, 1)))
        assert powers == [(SHEAR, 1)]
        assert operators.cache_info().misses == 2
        # the swap's M^2 - I is zero, a second distinct unipotent part
        quiet_verdict(golden_swap())
        assert powers.count((SWAP, 2)) == 1
        assert strided.cache_info().misses == 2
        assert operators.cache_info().misses == 3

    def test_every_shared_action_warns(self):
        for _ in range(2):
            with pytest.warns(GeometricRealizabilityWarning) as caught:
                rep = quasi_unipotent_screen(shear_system((1, 1), (2, 1)))
            messages = [str(w.message) for w in caught]
            assert [m.split(":")[0] for m in messages] == ["bimodule 0", "bimodule 1"]
            assert list(rep.warnings) == messages

    def test_repeated_cli_reports_are_equal(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "data", "unipotent-warning.json")
        reports = []
        for _ in range(2):
            code, report = cli.run(["verdict", path])
            assert code == 0
            del report["timing_ms"]
            assert any("nilpotency bound" in w for w in report["warnings"])
            reports.append(report)
        assert reports[0] == reports[1]


class TestVerdict:
    def test_golden_pair(self):
        v = quiet_verdict(golden_pair())
        assert v.kind == "NCAmple"
        assert v.m0 == (1, 1)
        assert v.decisive

    def test_line_and_inverse_fails(self):
        v = quiet_verdict(golden_line_and_inverse())
        assert v.kind == "EventualAmplenessFail"
        assert v.decisive
        w = v.witness
        assert w is not None
        assert w.base == (0, 0)
        assert w.direction == (1, 2)
        # the witnessed functional really is negative along the ray
        for t in range(w.threshold, w.threshold + 6):
            pt = tuple(b + t * d for b, d in zip(w.base, w.direction))
            c = class_at(golden_line_and_inverse(), pt)
            val = sum(r * x for r, x in zip(w.functional, c.coords))
            assert val < 0

    def test_fibonacci_fails_screen(self):
        v = quiet_verdict(golden_fibonacci())
        assert v.kind == "QuasiUnipotentFail"
        assert v.fail_index == 0
        assert v.decisive

    def test_swap_m0(self):
        v = quiet_verdict(golden_swap())
        assert v.kind == "NCAmple"
        assert v.m0 == (2,)

    def test_shear_certificate_past_bound(self):
        # one bundle (-256, 1) and two (1, 1), all sheared: each branch is
        # certified by a diagonal shift far past the bound
        shear = ((1, 1), (0, 1))
        sys = make_system(builtin_scheme("P1xP1"),
                          [((-256, 1), shear), ((1, 1), shear), ((1, 1), shear)])
        v = quiet_verdict(sys, bound=16)
        assert v.kind == "NCAmple"
        assert v.m0 == (86, 86, 86)
        for n in itertools.product(*(range(m, m + 3) for m in v.m0)):
            assert sys.scheme.is_ample(class_at(sys, n))

    def test_boundary_class_is_undetermined(self):
        # O(1,0) alone never leaves the cone boundary
        sys = make_system(builtin_scheme("P1xP1"), [((1, 0), IDENT[2])])
        v = quiet_verdict(sys)
        assert v.kind == "Undetermined"
        assert not v.decisive

    def test_m0_grid_soundness(self):
        for sys in (golden_pair(), golden_swap()):
            v = quiet_verdict(sys)
            for n in itertools.product(*(range(m, m + 9) for m in v.m0)):
                assert sys.scheme.is_ample(class_at(sys, n))

    def test_m0_left_edge_not_ample(self):
        # just below the certified corner the swap class is not ample
        sys = golden_swap()
        v = quiet_verdict(sys)
        below = tuple(m - 1 for m in v.m0)
        assert not sys.scheme.is_ample(class_at(sys, below))

    def test_each_distinct_functional_searched_once(self, monkeypatch):
        searched = []
        monkeypatch.setattr(ampleness, "eventually_positive",
                            lambda p, bound: searched.append(p) or eventually_positive(p, bound))
        pairs = repeats = 0
        for sys in duality_corpus() + (golden_swap(), golden_line_and_inverse()):
            searched.clear()
            v = quiet_verdict(sys)
            if v.kind == "QuasiUnipotentFail":
                continue
            keys = [frozenset(p.terms.items()) for p in searched]
            assert len(set(keys)) == len(keys)
            want = reference_records(sys, 8)
            assert [(r.residue, r.functional_index, r.kind, r.shift)
                    for r in v.records] == want
            pairs += len(want)
            repeats += len(want) - len(searched)
        assert repeats > pairs // 4

    def test_verdict_json_shape(self):
        doc = quiet_verdict(golden_pair()).to_json()
        assert doc["kind"] == "NCAmple"
        assert doc["m0"] == [1, 1]
        assert "screen" in doc and "search_bound" in doc

    def test_combined_single_is_sigma_ample(self):
        # every NC-ample system stays ample after collapsing to one bundle
        for sys in [golden_pair(), golden_swap()] + list(ample_corpus()[:6]):
            v = quiet_verdict(sys)
            if v.kind != "NCAmple":
                continue
            for n in itertools.product((1, 2), repeat=sys.s):
                single = combined_single(sys, n)
                sv = sigma_ample_verdict(single, search_bound=8)
                assert sv.kind == "SigmaAmple", (n, sv.kind)

    def test_veronese_stability(self):
        for sys in [golden_pair(), golden_swap()] + list(ample_corpus()[:6]):
            if quiet_verdict(sys).kind != "NCAmple":
                continue
            for n in itertools.product((1, 2), repeat=sys.s):
                assert quiet_verdict(veronese(sys, n)).kind == "NCAmple"


class TestSigmaVerdict:
    def test_single_line(self):
        v = sigma_ample_verdict(golden_single_line(), search_bound=8)
        assert v.kind == "SigmaAmple"
        assert v.power == 1

    def test_negative_line_undetermined_with_witness(self):
        sys = make_system(builtin_scheme("P1"), [((-1,), IDENT[1])])
        v = sigma_ample_verdict(sys, search_bound=8)
        assert v.kind == "Undetermined"
        assert v.supplementary_witness is not None

    def test_fibonacci_screen_fail(self):
        v = sigma_ample_verdict(golden_fibonacci(), search_bound=8)
        assert v.kind == "QuasiUnipotentFail"

    def test_arity(self):
        with pytest.raises(ArityError):
            sigma_ample_verdict(golden_pair())


# every corpus family on P1, P1xP1, P1^3, P2 and the abelian surface, and
# the hyperbolic twist on the abelian surface
_ABELIAN = builtin_scheme("AbelianSurfaceHyperbolic")
DUALITY_CASES = [
    (scheme, build)
    for scheme in (*map(p1_power_scheme, (1, 2, 3)), builtin_scheme("P2"), _ABELIAN)
    for build in (identity_system, shared_action_system,
                  invariant_divisor_system, single_bundle_system)
] + [(_ABELIAN, fibonacci_system)]


class TestDuality:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DUALITY_CASES), st.randoms(use_true_random=False))
    def test_kinds_agree_on_random_systems(self, case, rng):
        # the main theorem: right and left ampleness are equivalent, so the
        # kinds agree exactly, Undetermined included
        scheme, build = case
        sys = build(rng, scheme)
        assert quiet_verdict(sys).kind == quiet_verdict(dual(sys)).kind

    def test_eventual_ampleness_requires_screen(self):
        from ncample.ampleness import eventual_ampleness
        with pytest.raises(NotQuasiUnipotent):
            eventual_ampleness(golden_fibonacci(), search_bound=8)

import itertools
import json
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
    golden_pair,
    golden_swap,
    golden_warning,
    unipotent_corpus,
)
from ncample import bimodule_system, lattice_algebra
from ncample.ampleness import nc_ample_verdict
from ncample.bimodule_system import (
    Bimodule,
    BimoduleSystem,
    _twisted_walk,
    branch_class_polys,
    class_at,
    combined_single,
    dual,
    load_system,
    make_system,
    product,
    rees,
    symbolic_class,
    system_to_document,
    veronese,
)
from ncample.errors import (
    ArityError,
    ClassCommutationFail,
    MatrixCommutationFail,
    NonInvertible,
    NotNilpotent,
    ParseError,
    UnipotentRequired,
)
from ncample.ampleness import quasi_unipotent_screen
from ncample.lattice_algebra import Matrix, nilpotent_powers
from ncample.numeric_polynomials import MultiPoly
from ncample.scheme_model import (DivisorClass, builtin_scheme, load_scheme,
                                  p1_power_scheme)
from ncample.section_oracle import hilbert_match, load_oracle


def load_data(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "data", name),
              encoding="utf-8") as fh:
        return json.load(fh)

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


class TestValidation:
    def test_rank_mismatch(self):
        with pytest.raises(ParseError):
            make_system(builtin_scheme("P1xP1"), [((1,), IDENT[1])])

    def test_non_unimodular(self):
        with pytest.raises(NonInvertible):
            make_system(builtin_scheme("P1xP1"),
                        [((1, 0), Matrix.from_rows([[2, 0], [0, 1]]))])

    def test_matrix_commutation(self):
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        upper = Matrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(MatrixCommutationFail):
            make_system(builtin_scheme("P1xP1"),
                        [((0, 0), rot), ((0, 0), upper)])

    def test_class_commutation(self):
        with pytest.raises(ClassCommutationFail):
            make_system(builtin_scheme("P1xP1"),
                        [((1, 0), SWAP), ((0, 1), SWAP)])

    def test_empty_system(self):
        with pytest.raises(ParseError):
            make_system(builtin_scheme("P1"), [])

    def test_one_star_flag_per_pair(self):
        # a short stars list used to drop the bundles past its end
        pairs = [((1, 1), IDENT[2]), ((2, 1), IDENT[2])]
        for stars in ([True], [True, False, True], []):
            with pytest.raises(ParseError) as info:
                make_system(builtin_scheme("P1xP1"), pairs, stars)
            assert str(info.value) == (f"need one star flag per pair, got "
                                       f"{len(stars)} for 2 pairs")
        sys = make_system(builtin_scheme("P1xP1"), pairs, [True, False])
        assert [b.star for b in sys.bimodules] == [True, False]

    def test_star_flags_are_bools(self):
        # bool("false") is True
        for star in ("false", 0, 1, None):
            with pytest.raises(ParseError) as info:
                make_system(builtin_scheme("P1"), [((1,), IDENT[1])], [star])
            assert str(info.value) == f"star flag must be true or false, got {star!r}"

    def test_each_divisor_checked_once(self, monkeypatch):
        calls = []
        check = DivisorClass.__post_init__
        monkeypatch.setattr(DivisorClass, "__post_init__",
                            lambda d: calls.append(d.coords) or check(d))
        pairs = [((1, 1), IDENT[2]), ((2, 1), IDENT[2])]
        make_system(builtin_scheme("P1xP1"), pairs)
        assert calls == [(1, 1), (2, 1)]
        # a DivisorClass is taken as it is
        calls.clear()
        sys = make_system(builtin_scheme("P1xP1"),
                          [(DivisorClass(d), m) for d, m in pairs])
        assert calls == [(1, 1), (2, 1)]
        assert sys == make_system(builtin_scheme("P1xP1"), pairs)

    def test_equal_bundles_skip_pairwise_checks(self, monkeypatch):
        calls = []
        check = bimodule_system._check_classes_commute
        monkeypatch.setattr(bimodule_system, "_check_classes_commute",
                            lambda bims, i, j: calls.append((i, j)) or check(bims, i, j))
        shear = Matrix.from_rows([[1, 1], [0, 1]])
        make_system(builtin_scheme("P1xP1"), [((1, 1), shear)] * 40)
        assert calls == []
        # each distinct pair once, named by first occurrences
        make_system(builtin_scheme("P1xP1"),
                    [((1, 1), shear), ((2, 1), shear), ((1, 1), shear), ((2, 1), shear),
                     ((3, 1), shear)])
        assert calls == [(0, 1), (0, 4), (1, 4)]

    def test_errors_keep_their_indices(self):
        # the first failure in index order is the one reported, repeats or not
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        upper = Matrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(MatrixCommutationFail) as info:
            make_system(builtin_scheme("P1xP1"),
                        [((0, 0), rot), ((0, 0), rot), ((0, 0), upper)])
        assert (info.value.i, info.value.j) == (0, 2)
        with pytest.raises(ClassCommutationFail) as info:
            make_system(builtin_scheme("P1xP1"),
                        [((1, 0), SWAP), ((1, 0), SWAP), ((0, 1), SWAP), ((0, 1), SWAP)])
        assert (info.value.i, info.value.j) == (0, 2)
        singular = Matrix.from_rows([[2, 0], [0, 1]])
        for bundles, index in (([((1, 0), singular)] * 3, 0),
                               ([((1, 0), upper), ((1, 0), singular), ((1, 0), singular)], 1)):
            with pytest.raises(NonInvertible) as info:
                make_system(builtin_scheme("P1xP1"), bundles)
            assert info.value.index == index
        with pytest.raises(ParseError, match="bimodule 1 does not match lattice rank 2"):
            make_system(builtin_scheme("P1xP1"),
                        [((1, 0), upper), ((1,), IDENT[1]), ((1,), IDENT[1])])


class TestClassAt:
    def test_origin_is_zero(self):
        for sys in (golden_pair(), golden_swap()):
            assert class_at(sys, (0,) * sys.s).coords == (0,) * sys.scheme.rho

    def test_trivial_linearity(self):
        sys = make_system(builtin_scheme("P1"),
                          [((1,), IDENT[1]), ((1,), IDENT[1])])
        for i, j in itertools.product(range(5), repeat=2):
            assert class_at(sys, (i, j)).coords == (i + j,)

    def test_swap_steps(self):
        sys = golden_swap()
        assert class_at(sys, (1,)).coords == (1, 0)
        assert class_at(sys, (2,)).coords == (1, 1)
        assert class_at(sys, (3,)).coords == (2, 1)
        assert class_at(sys, (8,)).coords == (4, 4)

    def test_pair_bilinear(self):
        sys = golden_pair()
        for n in itertools.product(range(6), repeat=2):
            assert class_at(sys, n).coords == n

    def test_last_coordinate_increment_identity(self):
        for sys in duality_corpus()[:25]:
            s = sys.s
            prefix = Matrix.identity(sys.scheme.rho)
            for n in itertools.product(range(3), repeat=s):
                inc = tuple(list(n[:-1]) + [n[-1] + 1])
                delta = tuple(
                    a - b for a, b in zip(class_at(sys, inc).coords,
                                          class_at(sys, n).coords))
                prefix = Matrix.identity(sys.scheme.rho)
                for b in range(s - 1):
                    prefix = prefix * sys.bimodules[b].action ** n[b]
                step = prefix * (sys.bimodules[s - 1].action ** n[s - 1])
                assert delta == step.apply(sys.bimodules[s - 1].divisor.coords)


def reference_walk(sys, ranges):
    """(n, class, action) for every n of the box, each summed in a plain
    loop: sum_a (prod_(b<a) M_b^(n_b)) (sum_(j<n_a) M_a^j d_a)."""
    rho = sys.scheme.rho
    out = []
    for n in itertools.product(*ranges):
        total = (0,) * rho
        prefix = Matrix.identity(rho)
        for bim, n_a in zip(sys.bimodules, n):
            power = Matrix.identity(rho)
            for _ in range(n_a):
                term = prefix.apply(power.apply(bim.divisor.coords))
                total = tuple(t + x for t, x in zip(total, term))
                power = power * bim.action
            prefix = prefix * power
        out.append((n, total, prefix))
    return out


CORPUS = duality_corpus() + ample_corpus() + unipotent_corpus()


class TestTwistedWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_plain_loop(self, data):
        sys = data.draw(st.sampled_from(CORPUS))
        ranges = [range(start, start + length) for start, length in data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     min_size=sys.s, max_size=sys.s))]
        assert list(_twisted_walk(sys, ranges)) == reference_walk(sys, ranges)

    @staticmethod
    def count_geometric_sums(monkeypatch):
        calls = []
        real = bimodule_system.geometric_sum
        monkeypatch.setattr(bimodule_system, "geometric_sum",
                            lambda m, n: calls.append(n) or real(m, n))
        return calls

    def test_hilbert_box_sums_once_per_bundle(self, monkeypatch):
        doc = load_data("trivial-triple.json")
        ring, sys = load_oracle(doc), load_system(doc)
        calls = self.count_geometric_sums(monkeypatch)
        assert hilbert_match(ring, sys, 4).ok
        # one walk over [1, 4]^3, not 64 walks of three bundles each
        assert len(calls) <= 21

    def test_residue_scan_sums_once_per_bundle(self, monkeypatch):
        swap = load_system(load_data("swap-ring.json"))
        cube = product(product(swap, swap), swap)
        calls = self.count_geometric_sums(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert nc_ample_verdict(cube).kind == "NCAmple"
        # three strides plus one walk over the 8 residues, not 8 walks
        assert len(calls) <= 10


class TestSymbolicClass:
    def test_agrees_with_direct_on_unipotent_corpus(self):
        for sys in unipotent_corpus()[:10]:
            polys = symbolic_class(sys)
            for n in itertools.product(range(5), repeat=sys.s):
                want = class_at(sys, n).coords
                assert tuple(p.evaluate(n) for p in polys) == want

    def test_rejects_non_unipotent(self):
        with pytest.raises(UnipotentRequired):
            symbolic_class(golden_swap())
        # the first bundle is unipotent and the second is not
        sys = make_system(builtin_scheme("P1xP1"),
                          [((1, 1), IDENT[2]), ((1, 1), SWAP)])
        with pytest.raises(UnipotentRequired) as info:
            symbolic_class(sys)
        assert info.value.index == 1

    def test_branch_polys_name_first_non_unipotent_power(self):
        sys = make_system(builtin_scheme("P1xP1"),
                          [((1, 1), IDENT[2]), ((1, 1), SWAP)])
        with pytest.raises(UnipotentRequired) as info:
            branch_class_polys(sys, (1, 1))
        assert info.value.index == 1
        with pytest.raises(ParseError):
            branch_class_polys(sys, (1, 0))

    def test_branch_polys_cover_residues(self):
        p1xp1 = builtin_scheme("P1xP1")
        square = product(golden_swap(), golden_swap())
        cases = [
            (golden_swap(), (2,)),
            (square, (2, 2)),
            (product(square, golden_swap()), (2, 2, 2)),
            # invariant divisors under independent powers of one permutation
            # (the corpus family invariant_divisor_system)
            (make_system(p1xp1, [((1, 1), SWAP), ((-1, -1), IDENT[2]),
                                 ((2, 2), SWAP)]), (2, 1, 2)),
            # one shared permutation, divisors differing by an invariant
            # shift (shared_action_system): the first residue swaps the
            # second bundle's classes
            (make_system(p1xp1, [((1, 0), SWAP), ((2, 1), SWAP)]), (2, 2)),
            # the shear moves the second bundle's classes, and
            # -[[1, 1], [0, 1]] squares to a shear, so both the prefixes
            # and the orbit sums carry nilpotent terms
            (make_system(p1xp1,
                         [((1, 0), Matrix.from_rows([[1, 1], [0, 1]])),
                          ((0, -2), Matrix.from_rows([[-1, -1], [0, -1]]))]),
             (1, 2)),
        ]
        for sys, periods in cases:
            branches = branch_class_polys(sys, periods)
            assert list(branches) == list(
                itertools.product(*(range(r) for r in periods)))
            for c, vectors in branches.items():
                polys = [MultiPoly(sys.s, {k: v[i] for k, v in vectors.items() if v[i]})
                         for i in range(sys.scheme.rho)]
                for q in itertools.product(range(4), repeat=sys.s):
                    n = tuple(ci + ri * qi for ci, ri, qi in zip(c, periods, q))
                    want = class_at(sys, n).coords
                    assert tuple(p.evaluate(q) for p in polys) == want, (c, q)


def reference_class_vectors(sys):
    """The symbolic class of a unipotent system by the nested loop: from
    the last bundle to the first, add d_a at its unit key and move every
    vector by each power of N_a, raising the key at a by the power."""
    s, rho = sys.s, sys.scheme.rho
    powers = []
    for a, bim in enumerate(sys.bimodules):
        try:
            powers.append(nilpotent_powers(bim.action - Matrix.identity(rho)))
        except NotNilpotent:
            raise UnipotentRequired(a) from None
    vectors = {}
    for a in reversed(range(s)):
        vectors[(0,) * a + (1,) + (0,) * (s - a - 1)] = sys.bimodules[a].divisor.coords
        moved = {}
        for key, vec in vectors.items():
            for k, npow in enumerate(powers[a]):
                image = npow.apply(vec)
                if any(image):
                    moved[key[:a] + (key[a] + k,) + key[a + 1:]] = image
        vectors = moved
    return vectors


def reference_branches(sys, periods):
    """branch_class_polys from the veronese system's nested-loop class,
    moved by every residue's action."""
    strided = reference_class_vectors(veronese(sys, periods))
    origin = (0,) * sys.s
    return {residue: {origin: coords, **{k: action.apply(v) for k, v in strided.items()}}
            for residue, coords, action in reference_walk(sys, [range(r) for r in periods])}


JORDAN = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


@st.composite
def jordan_systems(draw):
    """s <= 3 bundles on P1^3 twisted by +-(I + x E + y E^2), E the
    nilpotent Jordan block, with strides that are multiples of the periods.

    The unipotent parts have nilpotency up to 3, and a negative sign gives
    period 2.  The divisors (M_a - I) u + c_a e_1 commute, because E kills
    e_1: c_a is free when every sign is positive, and otherwise shared by
    the negative bundles and 0 on the positive ones.  u and the c_a are
    often all zero.
    """
    s = draw(st.integers(1, 3))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=s, max_size=s))
    actions = []
    for sign in signs:
        x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        actions.append((Matrix.identity(3) + JORDAN.scale(x)
                        + (JORDAN * JORDAN).scale(y)).scale(sign))
    u = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    shared = draw(st.integers(-2, 2))
    cs = [draw(st.integers(-2, 2)) if -1 not in signs else shared if sign < 0 else 0
          for sign in signs]
    pairs = [(tuple(v + c * (i == 0) for i, v in
                    enumerate((m - Matrix.identity(3)).apply(u))), m)
             for m, c in zip(actions, cs)]
    periods = tuple(draw(st.integers(1, 2)) * (1 if sign > 0 else 2) for sign in signs)
    return make_system(p1_power_scheme(3), pairs), periods


def corpus_strides():
    """(system, strides) for every quasi-unipotent corpus system and data/
    document with strides 1 and 2 times its screen periods."""
    systems = list(CORPUS) + [load_system(load_data(name)) for name in sorted(
        os.listdir(os.path.join(os.path.dirname(__file__), os.pardir, "data")))]
    cases = []
    for sys in systems:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            screen = quasi_unipotent_screen(sys)
        if screen.all_quasi_unipotent:
            cases += [(sys, tuple(k * r for r in screen.orders)) for k in (1, 2)]
    return cases


def with_zero_divisors(sys):
    return BimoduleSystem(sys.scheme, tuple(
        Bimodule(DivisorClass((0,) * sys.scheme.rho), bim.action, bim.star)
        for bim in sys.bimodules))


class TestClassVectorsAgainstReference:
    """The memoized operators give the nested loop's vectors exactly."""

    @staticmethod
    def check(sys, periods):
        vectors = bimodule_system._class_vectors(sys, periods)
        assert vectors == reference_class_vectors(veronese(sys, periods))
        assert all(any(vec) for vec in vectors.values())
        assert branch_class_polys(sys, periods) == reference_branches(sys, periods)

    def test_corpora_and_data(self):
        cases = corpus_strides()
        assert len(cases) > 100
        for sys, periods in cases:
            self.check(sys, periods)

    def test_zero_divisors_keep_no_vector(self):
        for sys, periods in corpus_strides():
            zero = with_zero_divisors(sys)
            assert bimodule_system._class_vectors(zero, periods) == {}
            self.check(zero, periods)

    @settings(max_examples=200, deadline=None)
    @given(jordan_systems())
    def test_jordan_systems(self, case):
        sys, periods = case
        self.check(sys, periods)
        self.check(with_zero_divisors(sys), periods)

    def test_nilpotency_three_reaches_key_three(self):
        sys = make_system(p1_power_scheme(3), [((1, 2, 3), Matrix.identity(3) + JORDAN)] * 3)
        vectors = bimodule_system._class_vectors(sys, (1, 1, 1))
        assert max(map(max, vectors)) == 3
        assert vectors == reference_class_vectors(sys)

    def test_first_non_unipotent_stride_named(self):
        sys = make_system(builtin_scheme("P1xP1"),
                          [((1, 1), IDENT[2]), ((1, 1), SWAP)])
        for periods in ((1, 1), (2, 3)):
            with pytest.raises(UnipotentRequired) as info:
                bimodule_system._class_vectors(sys, periods)
            assert info.value.index == 1
        assert bimodule_system._class_vectors(sys, (1, 2)) == \
            reference_class_vectors(veronese(sys, (1, 2)))


class TestConstructors:
    def test_dual_involution(self):
        for sys in duality_corpus()[:30]:
            again = dual(dual(sys))
            assert system_to_document(again) == system_to_document(sys)

    def test_dual_of_swap(self):
        d = dual(golden_swap())
        assert d.bimodules[0].divisor.coords == (0, 1)
        assert d.bimodules[0].action == SWAP

    def test_veronese_identity(self):
        for sys in duality_corpus()[:20]:
            v = veronese(sys, (1,) * sys.s)
            assert system_to_document(v) == system_to_document(sys)

    def test_veronese_class_consistency(self):
        for sys in (golden_pair(), golden_swap()):
            strides = tuple(2 for _ in range(sys.s))
            v = veronese(sys, strides)
            for q in itertools.product(range(4), repeat=sys.s):
                scaled = tuple(a * b for a, b in zip(strides, q))
                assert class_at(v, q).coords == class_at(sys, scaled).coords

    def _data_systems(self):
        for name in sorted(os.listdir(DATA)):
            with open(os.path.join(DATA, name), "rb") as fh:
                yield name, load_system(fh.read())

    @staticmethod
    def _derived_systems(systems):
        """(label, system) for every derived constructor on the given systems:
        veronese at strides 1..3, dual, combined_single at three grades,
        rees where there is one bundle, and product with each system."""
        for name, sys in systems:
            for strides in itertools.product((1, 2, 3), repeat=sys.s):
                yield (name, "veronese", strides), veronese(sys, strides)
            yield (name, "dual"), dual(sys)
            for n in ((0,) * sys.s, (1,) * sys.s, (2, 3, 1)[:sys.s]):
                yield (name, "combined_single", n), combined_single(sys, n)
            if sys.s == 1:
                yield (name, "rees"), rees(sys)
            for other, other_sys in systems:
                yield (name, "product", other), product(sys, other_sys)

    def test_derived_systems_skip_revalidation(self, monkeypatch):
        # a system derived from a valid one is valid, so no constructor takes
        # a determinant; dual's inverses read the trace recursion directly
        systems = list(self._data_systems())
        calls = []
        real = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda m: calls.append(m) or real(m))
        labels = [label for label, _ in self._derived_systems(systems)]
        assert {label[1] for label in labels} == {
            "veronese", "dual", "combined_single", "rees", "product"}
        assert calls == []

    def test_dual_one_recursion_per_distinct_action(self):
        # from a cold memo, the duals of the data/ systems (15 bundles, 5
        # distinct actions) invert each action by one trace recursion
        systems = [sys for _, sys in self._data_systems()]
        actions = {bim.action for sys in systems for bim in sys.bimodules}
        recursion = lattice_algebra._trace_recursion
        recursion.cache_clear()
        for sys in systems:
            dual(sys)
        assert recursion.cache_info().misses == len(actions) == 5

    def test_derived_systems_equal_revalidated_systems(self):
        for label, sys in self._derived_systems(list(self._data_systems())):
            assert BimoduleSystem(sys.scheme, sys.bimodules) == sys, label

    def test_veronese_rejects_zero_stride(self):
        with pytest.raises(ParseError):
            veronese(golden_pair(), (0, 1))

    def test_combined_single(self):
        # golden_warning's action is the shear [[1, 1], [0, 1]]
        for sys in (golden_pair(), golden_swap(), golden_warning()):
            for n in ((1,) * sys.s, (2, 3)[:sys.s], (5, 2)[:sys.s]):
                comb = combined_single(sys, n)
                assert comb.s == 1
                action = Matrix.identity(sys.scheme.rho)
                for bim, n_a in zip(sys.bimodules, n):
                    action = action * bim.action ** n_a
                assert comb.bimodules[0].action == action
                for m in range(7):
                    scaled = tuple(m * x for x in n)
                    assert class_at(comb, (m,)).coords == class_at(sys, scaled).coords

    def test_rees_duplicates(self):
        sys = golden_swap()
        r = rees(sys)
        assert r.s == 2
        assert r.bimodules[0] == r.bimodules[1]
        with pytest.raises(ArityError):
            rees(golden_pair())

    def test_product_euler_grid(self):
        a = golden_pair()
        b = golden_swap()
        prod = product(a, b)
        assert prod.scheme.rho == 4
        for ca in itertools.product(range(5), repeat=2):
            for cb in itertools.product(range(3), repeat=2):
                want = a.scheme.euler_at(ca) * b.scheme.euler_at(cb)
                assert prod.scheme.euler_at(ca + cb) == want

    def test_product_actions_block_diagonal(self):
        prod = product(golden_swap(), golden_swap())
        mats = [b.action for b in prod.bimodules]
        assert len(mats) == 2
        assert mats[0].entries == ((0, 1, 0, 0), (1, 0, 0, 0),
                                   (0, 0, 1, 0), (0, 0, 0, 1))
        assert mats[1].entries == ((1, 0, 0, 0), (0, 1, 0, 0),
                                   (0, 0, 0, 1), (0, 0, 1, 0))

    def test_product_notes_sublattice(self):
        prod = product(golden_pair(), golden_swap())
        assert "sublattice" in prod.scheme.note

    def test_product_interior_point_is_searched(self):
        # the factors' first points side by side, (3, 2) and (-1, 1), lie in
        # the product cone, but its first point is (3, 2, -3, 2); the product
        # reports the same point as its own reloaded document
        def cone_system(rows):
            rho = len(rows[0])
            scheme = load_scheme({"name": "cone", "dim": rho, "rho": rho,
                                  "euler": [{"coeff": "1", "exponents": [0] * rho}],
                                  "ample_cone": rows})
            return make_system(scheme, [((1,) * rho, Matrix.identity(rho))])

        a = cone_system([[1, -1], [-1, 2]])
        b = cone_system([[1, 2]])
        assert a.scheme.interior_point == (3, 2)
        assert b.scheme.interior_point == (-1, 1)
        prod = product(a, b)
        reloaded = load_system(system_to_document(prod))
        assert prod.scheme.interior_point == reloaded.scheme.interior_point == (3, 2, -3, 2)


class TestDocuments:
    def test_round_trip(self):
        for sys in duality_corpus()[:20]:
            doc = system_to_document(sys)
            again = load_system(json.dumps(doc))
            assert system_to_document(again) == doc

    def test_missing_bimodules(self):
        doc = builtin_scheme("P1").to_document()
        with pytest.raises(ParseError):
            load_system(doc)

    def test_star_flag_round_trip(self):
        sys = make_system(builtin_scheme("P1"), [((1,), IDENT[1])],
                          stars=(True,))
        doc = system_to_document(sys)
        assert doc["bimodules"][0]["star"] is True
        again = load_system(doc)
        assert again.bimodules[0].star is True

    def test_arrays_must_be_json_arrays(self):
        # a string or an object read as an array would load digit by digit
        # or key by key: "10" as the divisor (1, 0), ["01", "10"] as the swap
        for change, message in (({"divisor": "10"}, "divisor entry, got '10'"),
                                ({"divisor": {"10": 0}}, "divisor entry, got {'10': 0}"),
                                ({"matrix": ["01", "10"]}, "matrix entry, got '01'")):
            with open(os.path.join(DATA, "swap-ring.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["bimodules"][0].update(change)
            with pytest.raises(ParseError) as info:
                load_system(doc)
            assert str(info.value) == f"expected a JSON array of integers for {message}"

    def test_document_matrices_checked_once(self, monkeypatch):
        # int_tuple checks each entry; the Matrix constructor's second type
        # pass is never run on a document matrix
        calls = []
        real = Matrix.__post_init__
        monkeypatch.setattr(Matrix, "__post_init__", lambda m: calls.append(m) or real(m))
        for name in sorted(os.listdir(DATA)):
            with open(os.path.join(DATA, name), "rb") as fh:
                load_system(fh.read())
            assert calls == [], name

    def test_entries_spelled_as_strings_still_load(self):
        # an array that is not all ints is read entry by entry, and a
        # string spelling an int is read as that int
        doc = builtin_scheme("P1xP1").to_document()
        doc["ample_cone"] = [["1", 0], [0, "1"]]
        doc["bimodules"] = [{"divisor": ["2", 1], "matrix": [[1, "1"], [0, 1]]}]
        sys = load_system(doc)
        assert sys.scheme.cone == ((1, 0), (0, 1))
        assert sys.bimodules[0].divisor.coords == (2, 1)
        assert sys.bimodules[0].action == Matrix.from_rows([[1, 1], [0, 1]])
        assert load_system(system_to_document(sys)) == sys

    def test_one_determinant_per_distinct_action(self):
        # det reads the memoized trace recursion: from a cold memo, three
        # bundles that share the shear take one recursion
        recursion = lattice_algebra._trace_recursion
        recursion.cache_clear()
        shear = Matrix.from_rows([[1, 1], [0, 1]])
        make_system(builtin_scheme("P1xP1"),
                    [((-5, 1), shear), ((1, 1), shear), ((1, 1), shear)])
        assert recursion.cache_info().misses == 1
        # a repeated singular action is named at its first index
        singular = Matrix.from_rows([[2, 0], [0, 1]])
        with pytest.raises(NonInvertible) as info:
            make_system(builtin_scheme("P1xP1"),
                        [((1, 1), shear), ((1, 0), singular), ((2, 0), singular)])
        assert info.value.index == 1
        assert recursion.cache_info().misses == 2

    @settings(max_examples=20)
    @given(st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-3, max_value=3))
    def test_load_rejects_bad_matrix_shape(self, a, b):
        doc = builtin_scheme("P1xP1").to_document()
        doc["bimodules"] = [{"divisor": [a, b], "matrix": [[1, 0]]}]
        with pytest.raises(ParseError):
            load_system(doc)

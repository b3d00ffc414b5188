import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from corpus import run_python
from ncample import scheme_model
from ncample.bimodule_system import load_system
from ncample.errors import EmptyCone, NotIntegerValued, ParseError
from ncample.numeric_polynomials import MultiPoly
from ncample.scheme_model import (
    DivisorClass,
    _project,
    _rational,
    builtin_names,
    builtin_scheme,
    load_scheme,
    p1_power_scheme,
)


def cone_scheme(rows):
    rho = len(rows[0])
    return load_scheme({"name": "cone", "dim": rho, "rho": rho,
                        "euler": [{"coeff": "1", "exponents": [0] * rho}],
                        "ample_cone": rows})


def shell_walk_interior_point(rows, rho, radius=8):
    """Reference for the cone search: every lattice point shell by shell,
    in itertools.product order, out to a fixed radius."""
    for shell in range(1, radius + 1):
        for point in itertools.product(range(-shell, shell + 1), repeat=rho):
            if max(abs(x) for x in point) != shell:
                continue
            if all(sum(a * x for a, x in zip(row, point)) > 0 for row in rows):
                return point
    return None


def fraction_project(rows, rho):
    """The Fourier-Motzkin elimination with Fraction multipliers that
    _project replaced, as its reference: the same bounding rows in the
    same order, and the same certificate."""
    system = {}

    def keep(row, y):
        g = math.gcd(*row)
        if g == 0:
            scale = math.lcm(*(c.denominator for c in y))
            ints = [int(c * scale) for c in y]
            g = math.gcd(*ints)
            raise EmptyCone(tuple(c // g for c in ints))
        support = frozenset(k for k, c in enumerate(y) if c)
        system.setdefault((tuple(a // g for a in row), support), tuple(c / g for c in y))

    for i, row in enumerate(rows):
        keep(row, tuple(Fraction(int(k == i)) for k in range(len(rows))))
    bounding = [[] for _ in range(rho)]
    for done, j in enumerate(reversed(range(rho)), start=1):
        eliminated = [(row, y) for (row, _), y in system.items() if row[j]]
        system = {key: y for key, y in system.items() if not key[0][j]}
        for p, yp in eliminated:
            for n, yn in eliminated:
                if p[j] > 0 > n[j]:
                    y = tuple(-n[j] * u + p[j] * v for u, v in zip(yp, yn))
                    if sum(1 for c in y if c) <= done + 1:
                        keep(tuple(-n[j] * a + p[j] * b for a, b in zip(p, n)), y)
        bounding[j] = list(dict.fromkeys(row for row, _ in eliminated))
    return bounding


def assert_projection_matches(rows):
    outcomes = []
    for project in (_project, fraction_project):
        try:
            outcomes.append(("rows", project(rows, len(rows[0]))))
        except EmptyCone as exc:
            outcomes.append(("empty", exc.certificate))
    assert outcomes[0] == outcomes[1], rows


def assert_gordan(rows, y):
    assert len(y) == len(rows)
    assert all(isinstance(c, int) and c >= 0 for c in y) and any(y)
    for j in range(len(rows[0])):
        assert sum(c * row[j] for c, row in zip(y, rows)) == 0


class TestBuiltins:
    def test_names(self):
        assert set(builtin_names()) == \
            {"P1", "P1xP1", "P2", "AbelianSurfaceHyperbolic"}

    def test_euler_at_origin(self):
        assert builtin_scheme("P2").euler_at((0, 0)[:1]) == 1
        assert builtin_scheme("P1xP1").euler_at((0, 0)) == 1
        assert builtin_scheme("AbelianSurfaceHyperbolic").euler_at((0, 0)) == 0
        assert builtin_scheme("P1").euler_at((0,)) == 1

    def test_euler_values(self):
        p2 = builtin_scheme("P2")
        # degree-n forms in three variables
        assert [p2.euler_at((n,)) for n in range(5)] == [1, 3, 6, 10, 15]
        pp = builtin_scheme("P1xP1")
        assert pp.euler_at((3, 4)) == 20
        ab = builtin_scheme("AbelianSurfaceHyperbolic")
        assert ab.euler_at((2, 3)) == 6

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            builtin_scheme("P3")

    def test_p1_power(self):
        s3 = p1_power_scheme(3)
        assert s3.rho == 3 and s3.dim == 3
        assert s3.euler_at((1, 2, 3)) == 2 * 3 * 4
        assert s3.name == "P1^3"
        assert p1_power_scheme(1).name == "P1"
        assert p1_power_scheme(2).name == "P1xP1"

    def test_p1_power_built_once(self):
        assert p1_power_scheme(3) is p1_power_scheme(3)
        with pytest.raises(ParseError):
            p1_power_scheme(0)

    def test_euler_matches_monomials(self):
        # the builtins state their counting polynomials in the binomial
        # basis; each must be the conversion of its monomial form
        wanted = [(p1_power_scheme(d),
                   dict.fromkeys(itertools.product((0, 1), repeat=d), 1))
                  for d in range(1, 9)]
        wanted.append((builtin_scheme("P2"),
                       {(2,): Fraction(1, 2), (1,): Fraction(3, 2), (0,): 1}))
        wanted.append((builtin_scheme("AbelianSurfaceHyperbolic"), {(1, 1): 1}))
        for scheme, monomials in wanted:
            assert scheme.euler == MultiPoly.from_monomials(scheme.rho, monomials)
        # and the two conversions round-trip, on data/ too
        schemes = [scheme for scheme, _ in wanted]
        data = os.path.join(os.path.dirname(__file__), os.pardir, "data")
        for name in sorted(os.listdir(data)):
            if name.endswith(".json"):
                with open(os.path.join(data, name), "rb") as fh:
                    schemes.append(load_scheme(fh.read()))
        for scheme in schemes:
            monomials = scheme.euler.to_monomials()
            again = MultiPoly.from_monomials(scheme.rho, monomials)
            assert again == scheme.euler, scheme.name
            assert again.to_monomials() == monomials, scheme.name

    def test_hinted_interior_point_is_the_searched_one(self):
        # the factories take their point from the cone search; it must be
        # the point found for the same scheme read from its document
        for scheme in (*map(builtin_scheme, builtin_names()),
                       *map(p1_power_scheme, range(1, 5))):
            searched = load_scheme(scheme.to_document()).interior_point
            assert scheme.interior_point == searched, scheme.name


class TestAmpleness:
    def test_strict_inequalities(self):
        pp = builtin_scheme("P1xP1")
        assert pp.is_ample(DivisorClass((1, 1)))
        assert not pp.is_ample(DivisorClass((1, 0)))
        assert not pp.is_ample(DivisorClass((0, 1)))
        assert not pp.is_ample(DivisorClass((-1, 2)))

    def test_scaling_invariance(self):
        for name in builtin_names():
            scheme = builtin_scheme(name)
            c = scheme.interior_point
            assert scheme.is_ample(DivisorClass(c))
            for k in range(1, 6):
                scaled = DivisorClass(tuple(k * x for x in c))
                assert scheme.is_ample(scaled)

    def test_interior_point_is_interior(self):
        for name in builtin_names():
            scheme = builtin_scheme(name)
            assert scheme.is_ample(DivisorClass(scheme.interior_point))


def swap_ring_document() -> dict:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "swap-ring.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestLoadScheme:
    def test_round_trip(self):
        for name in builtin_names():
            scheme = builtin_scheme(name)
            doc = scheme.to_document()
            again = load_scheme(json.dumps(doc))
            assert again.name == scheme.name
            assert again.rho == scheme.rho
            assert again.dim == scheme.dim
            assert again.euler == scheme.euler
            assert again.cone == scheme.cone

    def test_missing_member(self):
        with pytest.raises(ParseError):
            load_scheme({"name": "x", "dim": 1, "rho": 1, "euler": []})

    def test_bad_coeff(self):
        doc = {"name": "x", "dim": 1, "rho": 1,
               "euler": [{"coeff": "not-a-number", "exponents": [0]}],
               "ample_cone": [[1]]}
        with pytest.raises(ParseError):
            load_scheme(doc)

    def test_non_integer_valued_euler(self):
        doc = {"name": "x", "dim": 2, "rho": 1,
               "euler": [{"coeff": "1/2", "exponents": [2]}],
               "ample_cone": [[1]]}
        with pytest.raises(NotIntegerValued):
            load_scheme(doc)

    def test_empty_cone(self):
        doc = {"name": "x", "dim": 1, "rho": 1,
               "euler": [{"coeff": "1", "exponents": [0]},
                         {"coeff": "1", "exponents": [1]}],
               "ample_cone": [[1], [-1]]}
        with pytest.raises(EmptyCone) as info:
            load_scheme(doc)
        assert info.value.certificate == (1, 1)
        assert "empty" in str(info.value)

    def test_euler_degree_exceeds_dim(self):
        doc = {"name": "x", "dim": 1, "rho": 1,
               "euler": [{"coeff": "1", "exponents": [2]},
                         {"coeff": "1", "exponents": [1]}],
               "ample_cone": [[1]]}
        with pytest.raises(ParseError):
            load_scheme(doc)

    def test_euler_degree_checked_before_basis_change(self, monkeypatch):
        # the basis change of n^400 takes seconds; the degree check needs none
        calls = []
        convert = MultiPoly.from_monomials
        monkeypatch.setattr(MultiPoly, "from_monomials", staticmethod(
            lambda *args: calls.append(args) or convert(*args)))
        doc = {"name": "x", "dim": 1, "rho": 1, "ample_cone": [[1]],
               "euler": [{"coeff": "1", "exponents": [400]}]}
        with pytest.raises(ParseError, match="^euler polynomial degree 400 exceeds dim 1$"):
            load_scheme(doc)
        # terms that cancel leave the degree of what remains
        doc["dim"] = "2"
        doc["euler"] += [{"coeff": "-1", "exponents": [400]},
                         {"coeff": "3", "exponents": [3]}]
        with pytest.raises(ParseError, match="^euler polynomial degree 3 exceeds dim 2$"):
            load_scheme(doc)
        assert calls == []
        doc["dim"] = 3
        assert load_scheme(doc).dim == 3
        assert len(calls) == 1

    def test_not_json_object(self):
        with pytest.raises(ParseError):
            load_scheme("[1, 2]")
        with pytest.raises(ParseError):
            load_scheme("{broken")

    def test_arrays_must_be_json_arrays(self):
        # a string or an object read as an array would load digit by digit
        for change, message in (
                (dict(ample_cone=["10", "01"]), "ample cone entry, got '10'"),
                (dict(ample_cone={"10": 0}), "ample cone entry, got '10'"),
                (dict(euler=[{"coeff": "1", "exponents": "11"}]),
                 "euler exponent, got '11'")):
            with pytest.raises(ParseError) as info:
                load_scheme(dict(swap_ring_document(), **change))
            assert str(info.value) == f"expected a JSON array of integers for {message}"

    def test_name_and_note_must_be_strings(self):
        for key, value in (("name", [1]), ("name", 5), ("note", {"a": 1}), ("note", None)):
            with pytest.raises(ParseError) as info:
                load_scheme(dict(swap_ring_document(), **{key: value}))
            assert str(info.value) == f"{key} must be a string, got {value!r}"

    def test_bytes_read_as_utf8(self):
        text = json.dumps(builtin_scheme("P2").to_document())
        assert load_scheme(text.encode("utf-8")).name == "P2"
        for load, raw in ((load_scheme, b"\x80abc"), (load_system, b"\x80")):
            with pytest.raises(ParseError, match="invalid JSON: 'utf-8' codec"):
                load(raw)

    def test_over_deep_nesting_is_invalid_json(self):
        text = "[" * 100_000 + "]" * 100_000
        for load in (load_scheme, load_system):
            with pytest.raises(ParseError, match="invalid JSON: maximum recursion depth"):
                load(text)

    def test_over_long_integer_is_invalid_json(self):
        # the interpreter's digit limit stays: it guards against slow parsing
        text = '{"name": "P1", "dim": ' + "9" * 5000 + "}"
        for load in (load_scheme, load_system):
            with pytest.raises(ParseError, match="invalid JSON: Exceeds the limit"):
                load(text)


class TestRational:
    """The one parser of rational document entries reads what
    Fraction(str(x)) reads, with its value and its errors."""

    CASES = ("1_000", " 2 ", "+3", "-0", "\u0663", "1e2", "0.5", "1/2", "0x1",
             "True", 1.5, "9" * 5000, 7, -12, "1/0", "", "٣/٤", "1__0")

    @staticmethod
    def _outcome(parse, x):
        try:
            return "value", parse(x)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)

    def test_matches_fraction(self):
        for x in self.CASES:
            want = self._outcome(lambda v: Fraction(str(v)), x)
            assert self._outcome(_rational, x) == want, repr(x)[:20]

    def test_integers_stay_int(self):
        # the common case builds no Fraction
        assert type(_rational("-12")) is int
        assert type(_rational(3)) is int
        assert type(_rational("3/4")) is Fraction

    def test_euler_coefficients_read_alike(self):
        text = {"name": "x", "dim": 1, "rho": 1, "ample_cone": [[1]],
                "euler": [{"coeff": "2/2", "exponents": [1]},
                          {"coeff": "1_0", "exponents": [0]},
                          {"coeff": 0.5, "exponents": [0]},
                          {"coeff": "-1/2", "exponents": [0]}]}
        assert load_scheme(text).euler == MultiPoly(1, {(1,): 1, (0,): 10})
        text["euler"][0]["coeff"] = "0x1"
        with pytest.raises(ParseError, match="Invalid literal for Fraction: '0x1'"):
            load_scheme(text)


def exhaust_empty_cones():
    """Four-row empty cones [r, -r, two random rows] in shuffled order, the
    shape of the benchmark's empty-cone validations."""
    rng = random.Random(41)
    for rho in (3,) * 6 + (4,) * 6:
        r = [0] * rho
        while not any(r):
            r = [rng.randint(-2, 2) for _ in range(rho)]
        rows = [r, [-x for x in r]] + [[rng.randint(-2, 2) for _ in range(rho)]
                                       for _ in range(2)]
        rng.shuffle(rows)
        yield rows


# the certificates the search gave for exhaust_empty_cones() before its
# tables were built once per cone
EXHAUST_EMPTY_CERTIFICATES = [
    (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
    (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0),
    (0, 1, 1, 0), (1, 0, 1, 0)]


class TestConeSearch:
    def test_matches_shell_walk(self):
        rng = random.Random(2024)
        outcomes = {(rank, kind): 0 for rank in ("rho<4", "rho4")
                    for kind in ("same", "beyond", "empty")}
        for _ in range(700):
            rho = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(rho)]
                    for _ in range(rng.randint(1, rho + 3))]
            rank = "rho4" if rho == 4 else "rho<4"
            assert_projection_matches(rows)
            try:
                got = cone_scheme(rows).interior_point
            except EmptyCone as exc:
                # a Gordan certificate proves that no real point is interior
                assert_gordan(rows, exc.certificate)
                outcomes[rank, "empty"] += 1
                continue
            assert all(sum(a * x for a, x in zip(row, got)) > 0 for row in rows)
            # walking out to got's shell finds the first point; the rho 4
            # walk stops at shell 5, where its boxes grow large
            shell = max(abs(x) for x in got)
            limit = 8 if rho < 4 else 5
            want = shell_walk_interior_point(rows, rho, min(shell, limit))
            if shell > limit:
                assert want is None, rows
                outcomes[rank, "beyond"] += 1
            else:
                assert got == want, rows
                outcomes[rank, "same"] += 1
        assert min(outcomes[rank, kind] for rank in ("rho<4", "rho4")
                   for kind in ("same", "empty")) > 0, outcomes
        assert outcomes["rho<4", "beyond"] + outcomes["rho4", "beyond"] > 0, outcomes

    def test_exhaust_thin_wedges(self):
        # k y < x < (k + 1) y with 0-2 redundant rows a thin0 + b thin1, in
        # shuffled order: the first point stays (2k + 1, 2, 1, ...)
        rng = random.Random(23)
        for rho, k, redundant in itertools.product((3, 4), (1, 2, 3), (0, 1, 2)):
            thin = [[1, -k] + [0] * (rho - 2), [-1, k + 1] + [0] * (rho - 2)]
            rows = thin + [[int(j == i) for j in range(rho)] for i in range(2, rho)]
            for _ in range(redundant):
                a, b = rng.randint(1, 3), rng.randint(1, 3)
                rows.append([a * x + b * y for x, y in zip(*thin)])
            rng.shuffle(rows)
            got = cone_scheme(rows).interior_point
            assert got == (2 * k + 1, 2) + (1,) * (rho - 2), rows
            assert got == shell_walk_interior_point(rows, rho), rows

    def test_exhaust_empty_cones(self):
        certificates = []
        for rows in exhaust_empty_cones():
            assert_projection_matches(rows)
            with pytest.raises(EmptyCone) as info:
                cone_scheme(rows)
            assert_gordan(rows, info.value.certificate)
            certificates.append(info.value.certificate)
        assert certificates == EXHAUST_EMPTY_CERTIFICATES

    def test_first_point_past_shell_eight(self):
        rows = [[-3, -3, -1], [-3, -2, -3], [2, 2, 1]]
        assert shell_walk_interior_point(rows, 3) is None
        assert cone_scheme(rows).interior_point == (-12, 10, 5)

    def test_thin_wedge_shell(self):
        # k y < x < (k + 1) y first holds at (x, y) = (2k + 1, 2)
        for k in (1, 2, 3, 10):
            rows = [[1, -k, 0, 0], [-1, k + 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            assert cone_scheme(rows).interior_point == (2 * k + 1, 2, 1, 1)

    def test_rank_seven_empty_cone_is_quick(self):
        rng = random.Random(7)
        rows = [[int(i == j) for j in range(7)] for i in range(7)]
        rows += [[-1] * 7] + [[rng.randint(-2, 2) for _ in range(7)]
                              for _ in range(5)]
        started = time.perf_counter()
        with pytest.raises(EmptyCone) as info:
            cone_scheme(rows)
        assert time.perf_counter() - started < 1.0
        assert_gordan(rows, info.value.certificate)
        assert_projection_matches(rows)

    def test_zero_row_is_empty(self):
        with pytest.raises(EmptyCone) as info:
            cone_scheme([[1, 0], [0, 0]])
        assert info.value.certificate == (0, 1)

    @pytest.mark.parametrize("far", [10 ** 6, 10 ** 9])
    def test_far_cone_in_logarithmically_many_walks(self, far, monkeypatch):
        # x > 0 and y > far x first hold at (1, far + 1), on shell far + 1;
        # the radius is galloped and bisected, not walked one by one
        walks = []
        first_in_box = scheme_model._first_in_box
        monkeypatch.setattr(scheme_model, "_first_in_box",
                            lambda levels, radius: walks.append(radius)
                            or first_in_box(levels, radius))
        assert cone_scheme([[1, 0], [-far, 1]]).interior_point == (1, far + 1)
        assert len(walks) <= 2 * math.log2(far + 1) + 4, walks


_BAD_SCHEMES = """
from fractions import Fraction
from ncample.ampleness import (eventual_ampleness, nc_ample_verdict,
                               sigma_ample_verdict)
from ncample.bimodule_system import (branch_class_polys, class_at, combined_single,
                                     load_system, make_system, symbolic_class,
                                     veronese)
from ncample.errors import ParseError
from ncample.gk_dimension import gk, hilbert_value
from ncample.lattice_algebra import (Matrix, UniPoly, cyclotomic, euler_phi,
                                     geometric_sum, strided_nilpotent_powers)
from ncample.numeric_polynomials import MultiPoly, binom_int, compose
from ncample.scheme_model import (DivisorClass, NumericalScheme,
                                  builtin_scheme, load_scheme, p1_power_scheme)

def doc(**changes):
    base = {"name": "x", "dim": 1, "rho": 1, "ample_cone": [[1]],
            "euler": [{"coeff": "1", "exponents": [0]}]}
    base.update(changes)
    return base

constant = MultiPoly.from_monomials(1, {(0,): Fraction(1)})
pair = MultiPoly.constant(2, 1)
line = make_system(builtin_scheme("P1"), [((1,), [[1]])])
pp = builtin_scheme("P1xP1").to_document()

def system(divisor, matrix):
    return load_system(dict(pp, bimodules=[{"divisor": divisor, "matrix": matrix}]))

for call in (lambda: load_scheme(doc(ample_cone=[[1.5]])),
             lambda: load_scheme(doc(ample_cone=[[True]])),
             lambda: load_scheme(doc(ample_cone=[["1/2"]])),
             lambda: load_scheme(doc(ample_cone=7)),
             lambda: load_scheme(doc(rho=1.7)),
             lambda: load_scheme(doc(dim=2.0)),
             lambda: load_scheme(doc(euler=[{"coeff": "1", "exponents": [0.5]}])),
             lambda: NumericalScheme.build("x", 1, 1, constant, [[1.5]]),
             lambda: DivisorClass((1.5,)),
             lambda: DivisorClass((True,)),
             lambda: builtin_scheme("P1").is_ample((1, 0)),
             lambda: builtin_scheme("P1").is_ample([1.5]),
             lambda: p1_power_scheme(-1),
             lambda: load_system(dict(builtin_scheme("P1").to_document(),
                                      bimodules=[{"divisor": [1],
                                                  "matrix": [[1, 0]]}])),
             lambda: Matrix(()),
             lambda: Matrix(((1, 0),)),
             lambda: Matrix(((1.5,),)),
             lambda: Matrix.from_rows([[1.5]]),
             lambda: Matrix.identity(2) * Matrix.identity(3),
             lambda: make_system(builtin_scheme("P1"), [((1,), [[1.9]])]),
             lambda: make_system(builtin_scheme("P1"), [((1.5,), [[1]])]),
             lambda: Matrix.identity(2) ** -1,
             lambda: Matrix.identity(2).apply((1,)),
             lambda: geometric_sum(Matrix.identity(2), -1),
             lambda: cyclotomic(0),
             lambda: cyclotomic(-2),
             lambda: euler_phi(0),
             lambda: UniPoly((1, 2)).divide_exact(UniPoly((1, 2))),
             lambda: UniPoly((1,)).divide_exact(UniPoly(())),
             lambda: class_at(line, (1, 2)),
             lambda: class_at(line, (-1,)),
             lambda: branch_class_polys(line, (1, 1)),
             lambda: branch_class_polys(line, (0,)),
             lambda: class_at(line, (1.5,)),
             lambda: class_at(line, (True,)),
             lambda: class_at(line, ("1",)),
             lambda: combined_single(line, (2.5,)),
             lambda: veronese(line, (2.9,)),
             lambda: veronese(line, (True,)),
             lambda: branch_class_polys(line, (1.5,)),
             lambda: hilbert_value(line, (2.7,)),
             lambda: nc_ample_verdict(line, 2.5),
             lambda: nc_ample_verdict(line, True),
             lambda: nc_ample_verdict(line, -1),
             lambda: eventual_ampleness(line, 2.5),
             lambda: sigma_ample_verdict(line, 2.5),
             lambda: gk(line, 2.5),
             lambda: MultiPoly(0, {}),
             lambda: MultiPoly(1, {(1, 0): 1}),
             lambda: MultiPoly(1, {(-1,): 1}),
             lambda: MultiPoly(1, {(1,): 0}),
             lambda: MultiPoly(1, {(1,): 1.5}),
             lambda: MultiPoly.from_monomials(2, {(1,): 1}),
             lambda: MultiPoly.from_monomials(1, {(-2,): 3, (0,): 1}),
             lambda: MultiPoly.from_monomials(1, {(1.5,): 1}),
             lambda: constant.evaluate((1, 2)),
             lambda: constant.shift((1, 2)),
             lambda: constant.shift((1.5,)),
             lambda: constant.shift((True,)),
             lambda: constant.scale(1.5),
             lambda: constant.scale(True),
             lambda: MultiPoly.constant(1, 2.5),
             lambda: MultiPoly.constant(1, True),
             lambda: pair.evaluate((1.5, 2)),
             lambda: pair.evaluate((True, 2)),
             lambda: UniPoly.from_coeffs([1.5, 2]),
             lambda: UniPoly.from_coeffs([True]),
             lambda: Matrix.identity(2).scale(True),
             lambda: Matrix.identity(2).scale(1.5),
             lambda: constant + pair,
             lambda: constant * pair,
             lambda: binom_int(3, -1),
             lambda: compose(pair, [constant]),
             lambda: compose(pair, [constant, pair]),
             lambda: MultiPoly(1, {(1,): True}),
             lambda: MultiPoly(1, {(1.0,): 1}),
             lambda: Matrix.identity(2) ** 1.5,
             lambda: Matrix.identity(2) ** True,
             lambda: geometric_sum(Matrix.identity(2), 1.5),
             lambda: geometric_sum(Matrix.identity(2), True),
             # a warm (matrix, 1) entry must not answer for True
             lambda: (strided_nilpotent_powers(Matrix.identity(2), 1),
                      strided_nilpotent_powers(Matrix.identity(2), True)),
             lambda: strided_nilpotent_powers(Matrix.identity(2), 1.5),
             lambda: strided_nilpotent_powers(Matrix.identity(2), 0),
             lambda: symbolic_class(line, (True,)),
             lambda: symbolic_class(line, (1, 1)),
             # int arguments checked by one helper, also inside the typed
             # memos, where a warm int entry must not answer for a bool
             lambda: MultiPoly(1.5, {}),
             lambda: MultiPoly(True, {}),
             lambda: MultiPoly.zero(2.5),
             lambda: Matrix.identity(True),
             lambda: Matrix.identity(2.0),
             lambda: (Matrix.identity(1), Matrix.identity(True)),
             lambda: Matrix.zero(True),
             lambda: Matrix.zero(1.5),
             lambda: cyclotomic(True),
             lambda: cyclotomic(2.0),
             lambda: (cyclotomic(1), cyclotomic(True)),
             lambda: euler_phi(2.5),
             lambda: euler_phi(True),
             lambda: (euler_phi(1), euler_phi(True)),
             lambda: binom_int(2.5, 1),
             lambda: binom_int(3, 1.5),
             lambda: p1_power_scheme(1.5),
             lambda: (p1_power_scheme(1), p1_power_scheme(True)),
             # document arrays: the cases of ARRAY_ERRORS, in order
             lambda: load_scheme(dict(pp, euler=[{"coeff": "1", "exponents": [1, True]}])),
             lambda: load_scheme(dict(pp, euler=[{"coeff": "1", "exponents": [1, 0.0]}])),
             lambda: load_scheme(dict(pp, euler=[{"coeff": "1", "exponents": ["n", 0]}])),
             lambda: load_scheme(dict(pp, ample_cone=[[1, 0], [0, False]])),
             lambda: load_scheme(dict(pp, ample_cone=[[1, 0], [0, 1.0]])),
             lambda: load_scheme(dict(pp, ample_cone=[[1, "one"], [0, 1]])),
             lambda: system([1, True], [[1, 0], [0, 1]]),
             lambda: system([1, 1.0], [[1, 0], [0, 1]]),
             lambda: system(["x", 1], [[1, 0], [0, 1]]),
             lambda: system([1, 1], [[1, 0], [0, True]]),
             lambda: system([1, 1], [[1, 0], [0, 1.0]]),
             lambda: system([1, 1], [[1, 0], ["x", 1]]),
             lambda: system([1, 1], [[1, 0], [1]]),
             lambda: system([1, 1], []),
             # the cases of SHAPE_ERRORS, in order
             lambda: load_scheme(dict(pp, ample_cone=["10", "01"])),
             lambda: load_scheme(dict(pp, ample_cone={"10": 0})),
             lambda: load_scheme(dict(pp, euler=[{"coeff": "1", "exponents": "11"}])),
             lambda: system("10", [[0, 1], [1, 0]]),
             lambda: system({"10": 0}, [[0, 1], [1, 0]]),
             lambda: system([1, 0], ["01", "10"]),
             lambda: load_scheme(dict(pp, name=[1])),
             lambda: load_scheme(dict(pp, note={"a": 1})),
             # the cases of STAR_ERRORS, in order
             lambda: make_system(builtin_scheme("P1"), [((1,), [[1]]), ((2,), [[1]])],
                                 [True]),
             lambda: make_system(builtin_scheme("P1"), [((1,), [[1]])], ["false"])):
    try:
        print(call())
    except ParseError as exc:
        print(f"ParseError: {exc}")
"""

# the messages the document arrays gave when every entry was read on its
# own; reading an array of ints with one type check must keep them
ARRAY_ERRORS = [
    "euler exponent must be an integer, got True",
    "euler exponent must be an integer, got 0.0",
    "euler exponent must be an integer, got 'n'",
    "ample cone entry must be an integer, got False",
    "ample cone entry must be an integer, got 1.0",
    "ample cone entry must be an integer, got 'one'",
    "divisor entry must be an integer, got True",
    "divisor entry must be an integer, got 1.0",
    "divisor entry must be an integer, got 'x'",
    "matrix entry must be an integer, got True",
    "matrix entry must be an integer, got 1.0",
    "matrix entry must be an integer, got 'x'",
    "matrix must be square, got a row of length 1 in 2 rows",
    "a matrix needs at least one row",
]

# a value that is not a JSON array, or a name or note that is not a string,
# is refused instead of being read as one
SHAPE_ERRORS = [
    "expected a JSON array of integers for ample cone entry, got '10'",
    "expected a JSON array of integers for ample cone entry, got '10'",
    "expected a JSON array of integers for euler exponent, got '11'",
    "expected a JSON array of integers for divisor entry, got '10'",
    "expected a JSON array of integers for divisor entry, got {'10': 0}",
    "expected a JSON array of integers for matrix entry, got '01'",
    "name must be a string, got [1]",
    "note must be a string, got {'a': 1}",
]

# make_system takes one star flag per pair, each a bool: a short list used
# to drop bundles, and "false" used to read as True
STAR_ERRORS = [
    "need one star flag per pair, got 1 for 2 pairs",
    "star flag must be true or false, got 'false'",
]


def test_bad_schemes_rejected_under_optimize():
    # python -O strips asserts, so this fails wherever validation is an assert
    lines = run_python("-O", "-c", _BAD_SCHEMES).splitlines()
    assert [line.split(":")[0] for line in lines] == ["ParseError"] * 127
    messages = ARRAY_ERRORS + SHAPE_ERRORS + STAR_ERRORS
    assert lines[-len(messages):] == [f"ParseError: {m}" for m in messages]

"""Every memo in the package is bounded, unless its keys come from a small
fixed set; a memo keyed by documents or polynomials must not grow without
limit in a long-lived process."""

import importlib
import json
import os
import pkgutil

import ncample
from ncample import cli

# tables keyed by small ints or by no argument at all
UNBOUNDED = {
    "lattice_algebra.Matrix.identity": "keyed by the lattice rank",
    "lattice_algebra.euler_phi": "keyed by an order at most 2 rho^2 + 2",
    "lattice_algebra.cyclotomic": "keyed by an order at most 2 rho^2 + 2",
    "numeric_polynomials._mono_to_binom_row": "keyed by a monomial degree",
    "numeric_polynomials._falling_row": "keyed by a binomial degree",
    "scheme_model.p1_power_scheme": "keyed by the number of P1 factors",
    "cli._build_parser": "takes no argument: one parser per process",
}


def cached_functions():
    """{module.name or module.Class.name: function} for every function and
    staticmethod the package defines with a cache_info."""
    found = {}
    for info in pkgutil.iter_modules(ncample.__path__):
        module = importlib.import_module(f"ncample.{info.name}")
        for name, value in vars(module).items():
            members = {name: value}
            if isinstance(value, type) and value.__module__ == module.__name__:
                members = {f"{name}.{attr}": getattr(member, "__func__", member)
                           for attr, member in vars(value).items()}
            for qualified, fn in members.items():
                if (hasattr(fn, "cache_info")
                        and getattr(fn, "__module__", None) == module.__name__):
                    found[f"{info.name}.{qualified}"] = fn
    return found


def test_every_memo_is_bounded():
    found = cached_functions()
    assert "lattice_algebra.is_quasi_unipotent" in found
    assert sorted(set(UNBOUNDED) - set(found)) == []
    unbounded = sorted(name for name, fn in found.items()
                       if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == sorted(UNBOUNDED)


def test_every_memo_is_typed():
    # a typed memo keys True apart from 1 and 2.0 apart from 2, so an
    # integer check inside it runs for every argument that is not an int
    untyped = sorted(name for name, fn in cached_functions().items()
                     if not fn.cache_parameters()["typed"])
    assert untyped == []


def test_reports_equal_with_memos_cold_and_warm():
    # a memo keyed by values must not change an answer: every data/
    # document's verdict and gk report is the same from cold memos and warm
    def report(argv):
        code, out = cli.run(argv)
        del out["timing_ms"]
        return code, json.dumps(out, sort_keys=True)

    root = os.path.join(os.path.dirname(__file__), os.pardir, "data")
    memos = cached_functions().values()
    for name in sorted(os.listdir(root)):
        for command in ("verdict", "gk"):
            argv = [command, os.path.join(root, name)]
            for fn in memos:
                fn.cache_clear()
            cold = report(argv)
            assert report(argv) == cold, argv

"""The benchmark's tracer names package functions and methods by string.
A refactor that deletes or renames one of them must fail here, in the main
suite, and not only in the benchmark's own smoke test."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves():
    # the tracer patches Class.__dict__[meth] for a method, so an inherited
    # or missing one would break it
    missing = []
    for module, attr, _, _ in traced_targets():
        home = importlib.import_module("ncample." + module)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []

"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces every traced function in its defining module
and in each ncample module that bound the name with ``from .x import y``,
and every traced method on its class; ``uninstall()`` puts the originals
back.  Nothing under src/ changes.  Spans are kept in memory with
integer-nanosecond clocks, so a span's self time (its duration minus the
time its children cover) is exact.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# A "span" target records one span per call.  A "leaf" target runs up to
# thousands of times per operation and never calls another traced target,
# so it only adds its call count and time, the latter charged to the
# enclosing span as child time.  A "count" target only counts calls.
TARGETS = (
    ("cli", "run", "cli.run", "span"),
    ("scheme_model", "load_scheme", "scheme_model.load_scheme", "span"),
    ("lattice_algebra", "is_quasi_unipotent",
     "lattice_algebra.is_quasi_unipotent", "span"),
    ("lattice_algebra", "char_poly", "lattice_algebra.char_poly", "span"),
    ("lattice_algebra", "Matrix.__pow__", "lattice_algebra.Matrix.pow", "leaf"),
    ("bimodule_system", "load_system", "bimodule_system.load_system", "span"),
    ("bimodule_system", "branch_class_polys",
     "bimodule_system.branch_class_polys", "span"),
    ("bimodule_system", "symbolic_class", "bimodule_system.symbolic_class", "span"),
    ("bimodule_system", "dual", "bimodule_system.constructors", "span"),
    ("bimodule_system", "veronese", "bimodule_system.constructors", "span"),
    ("bimodule_system", "rees", "bimodule_system.constructors", "span"),
    ("bimodule_system", "product", "bimodule_system.constructors", "span"),
    ("numeric_polynomials", "eventually_positive",
     "numeric_polynomials.eventually_positive", "span"),
    ("numeric_polynomials", "MultiPoly.shift",
     "numeric_polynomials.MultiPoly.shift", "count"),
    ("numeric_polynomials", "MultiPoly.__mul__",
     "numeric_polynomials.MultiPoly.mul", "leaf"),
    ("numeric_polynomials", "compose", "numeric_polynomials.compose", "span"),
    ("numeric_polynomials", "box_sum", "numeric_polynomials.box_sum", "span"),
    ("ampleness", "quasi_unipotent_screen", "ampleness.quasi_unipotent_screen", "span"),
    ("ampleness", "eventual_ampleness", "ampleness.eventual_ampleness", "span"),
    ("ampleness", "nc_ample_verdict", "ampleness.nc_ample_verdict", "span"),
    ("gk_dimension", "gk", "gk_dimension.gk", "span"),
    ("section_oracle", "load_oracle", "section_oracle.load_oracle", "span"),
    ("section_oracle", "OracleRing.graded_multidegree",
     "section_oracle.OracleRing.graded_multidegree", "span"),
    ("section_oracle", "OracleRing.multiply", "section_oracle.OracleRing.multiply", "span"),
    ("section_oracle", "OracleRing.twist_power",
     "section_oracle.OracleRing.twist_power", "span"),
    ("section_oracle", "FactorAutomorphism.compose",
     "section_oracle.FactorAutomorphism.compose", "leaf"),
    ("section_oracle", "pullback", "section_oracle.pullback", "span"),
    ("section_oracle", "hilbert_match", "section_oracle.hilbert_match", "span"),
    ("section_oracle", "opposite_check", "section_oracle.opposite_check", "span"),
    ("section_oracle", "bergman_check", "section_oracle.bergman_check", "span"),
)

# targets whose result has a `kind` ("yes", "no" or "unknown") worth counting
KINDED = {"numeric_polynomials.eventually_positive"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncample" or name.startswith("ncample."))]


class Tracer:
    """Spans and counters of one traced measurement.

    A span is (name, start_ns, end_ns, parent index or -1, operation id,
    leaf time inside it in ns).  ``op`` is set by the caller before each
    operation.
    """

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.kinds: dict[str, Counter] = {name: Counter() for name in KINDED}
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kinds = self.kinds.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.op, frame[1])
            if kinds is not None:
                kinds[result.kind] += 1
            return result

        return wrapper

    def _leaf(self, name, fn):
        calls, leaf_ns, stack, clock = self.calls, self.leaf_ns, self._stack, \
            time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                calls[name] += 1
                leaf_ns[name] += took
                if stack:
                    stack[-1][1] += took

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        make = {"span": self._span, "leaf": self._leaf, "count": self._count}
        for module, attr, name, mode in TARGETS:
            home = sys.modules["ncample." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patched.append((owner, meth, original))
                setattr(owner, meth, make[mode](name, original))
                continue
            original = getattr(home, attr)
            wrapped = make[mode](name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[int]:
        """Self time of every span in ns: duration minus children minus leaves."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _, leaf in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] - leaf
                for i, (_, start, end, _, _, leaf) in enumerate(self.spans)]

    def metrics(self, ops: int, op_s: float) -> dict[str, tuple[float, str]]:
        """Per-target calls, self and total time per operation, the module
        shares of self time, coverage, and the positivity decided ratio."""
        calls = Counter(self.calls)
        self_ns = Counter(self.leaf_ns)
        total_ns = Counter(self.leaf_ns)
        top_ns = 0
        for (name, start, end, parent, _, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += end - start
            if parent < 0:
                top_ns += end - start
        out = {}
        for name in dict.fromkeys(t[2] for t in TARGETS):
            out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9 / ops, "s/op")
            out[f"{name}.total_s"] = (total_ns[name] / 1e9 / ops, "s/op")
        for module in dict.fromkeys(t[0] for t in TARGETS):
            own = sum(v for k, v in self_ns.items() if k.split(".")[0] == module)
            out[f"{module}.self_share"] = (own / 1e9 / op_s, "fraction")
        positivity = self.kinds["numeric_polynomials.eventually_positive"]
        attempts = sum(positivity.values())
        decided = positivity["yes"] + positivity["no"]
        out["numeric_polynomials.eventually_positive.decided_ratio"] = (
            decided / attempts if attempts else 0.0, "fraction")
        out["trace.coverage"] = (top_ns / 1e9 / op_s, "fraction")
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines with their self times."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                name, start, end, parent, op, _ = span
                fh.write(json.dumps([name, start, end, parent, op, own]) + "\n")

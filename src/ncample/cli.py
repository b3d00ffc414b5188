"""Command line front end.

Subcommands, each declared once with its handler in _build_parser:
validate, verdict, gk, class, dual, veronese, rees, tensor, oracle compare.
Exit codes: 0 decisive success, 2 honest indecision (Undetermined), 1
validation or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
import warnings

from . import bimodule_system as bs
from .ampleness import DEFAULT_SEARCH_BOUND, nc_ample_verdict, sigma_ample_verdict
from .errors import NcampleError, NotNCAmple, ParseError
from .gk_dimension import gk
from .scheme_model import _as_dict, builtin_scheme, load_scheme
from .section_oracle import cross_validate, load_oracle


def _read_document(path: str) -> tuple[dict, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = _as_dict(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return doc, {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


def _load_input(args, report) -> dict:
    """Read the positional document, splicing in --scheme (a JSON path or
    builtin:NAME) when given, and record where they came from in the report."""
    doc, meta = _read_document(args.input)
    if args.scheme is not None:
        if args.scheme.startswith("builtin:"):
            name = args.scheme[len("builtin:"):]
            scheme_doc, scheme_meta = builtin_scheme(name).to_document(), {"builtin": name}
        else:
            scheme_doc, scheme_meta = _read_document(args.scheme)
        doc = {**scheme_doc, **{k: doc[k] for k in ("bimodules", "oracle") if k in doc}}
        meta = {**meta, "scheme": scheme_meta}
    report["input"] = meta
    return doc


def _load(args, report) -> tuple[dict, bs.BimoduleSystem]:
    """The positional document, read as _load_input does, and its system."""
    doc = _load_input(args, report)
    return doc, bs.load_system(doc)


def _parse_vector(text: str, expect_len: int | None = None) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated integer vector: {text!r}") from exc
    if expect_len is not None and len(vec) != expect_len:
        raise ParseError(f"expected {expect_len} components, got {len(vec)}")
    return vec


@functools.lru_cache(maxsize=None, typed=True)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncample",
        description="ampleness verdicts and growth certificates for twisted "
                    "divisor systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, helptext, handler, bound=False, emit=False):
        """Declare a subcommand on one input document, bound to its handler."""
        p = subparsers.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("input", help="JSON document (scheme plus bimodules)")
        p.add_argument("--scheme", default=None,
                       help="scheme source: a JSON path or builtin:NAME")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the full machine-readable report")
        if bound:
            p.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND,
                           help="limit of the negative-ray search (largest direction "
                                "and base entry) and of the --single power scan "
                                f"(default {DEFAULT_SEARCH_BOUND}); corners are "
                                "searched without limit")
        if emit:
            p.add_argument("--emit", default=None, metavar="PATH",
                           help="write the constructed document here ('-' = stdout)")
        return p

    command(sub, "validate", "parse and validate a document", _cmd_validate)
    command(sub, "verdict", "decide NC-ampleness", _cmd_verdict, bound=True).add_argument(
        "--single", action="store_true",
        help="use the one-bundle ample-power criterion (s = 1)")
    command(sub, "gk", "growth certificate for the section ring", _cmd_gk, bound=True)
    command(sub, "class", "evaluate the expanded class at a grade", _cmd_class).add_argument(
        "--at", required=True, help="grade vector, comma separated, one entry per bundle")
    command(sub, "dual", "emit the inverse-data system", _cmd_dual, emit=True)
    command(sub, "veronese", "emit the stride-subsampled system", _cmd_veronese,
            emit=True).add_argument("--strides", required=True,
                                    help="positive stride vector, comma separated")
    command(sub, "rees", "emit the duplicated one-bundle system", _cmd_rees, emit=True)

    p = sub.add_parser("tensor", help="emit the product of two systems")
    p.set_defaults(handler=_cmd_tensor)
    p.add_argument("input", help="first JSON document")
    p.add_argument("other", help="second JSON document")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--emit", default=None, metavar="PATH",
                   help="write the constructed document here ('-' = stdout)")

    oracle = sub.add_parser("oracle", help="section-ring cross validation")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = command(osub, "compare", "compare brute-force section counts with the "
                                 "numerical engine", _cmd_oracle_compare)
    p.add_argument("--range", type=int, default=4, dest="grade_range",
                   help="check all grades in [1, N]^s (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random product samples")
    return parser


def _cmd_validate(args, report) -> int:
    doc = _load_input(args, report)
    # load_system reads the scheme before the bimodules, so the first
    # error is the same as from load_scheme alone; an oracle member is
    # read from the bimodules, so it needs them too
    system = bs.load_system(doc) if "bimodules" in doc or "oracle" in doc else None
    scheme = load_scheme(doc) if system is None else system.scheme
    payload = {
        "scheme": {"name": scheme.name, "dim": scheme.dim, "rho": scheme.rho,
                   "cone_rows": len(scheme.cone),
                   "interior_point": list(scheme.interior_point)},
    }
    if system is not None:
        payload["system"] = {
            "s": system.s,
            "determinants": [b.action.det() for b in system.bimodules],
            "star": [b.star for b in system.bimodules],
        }
        if "oracle" in doc:
            ring = load_oracle(doc)
            payload["oracle"] = {"d": ring.d, "s": ring.s}
    payload["ok"] = True
    report["payload"] = payload
    return 0


def _flag(flag: str, what: str, value: int, at_least: int) -> int:
    """A flag's integer value, or a ParseError naming the flag when it is
    below at_least."""
    if value < at_least:
        raise ParseError(f"{flag}: {what} must be an integer >= {at_least}, got {value}")
    return value


def _cmd_verdict(args, report) -> int:
    bound = _flag("--bound", "search bound", args.bound, 0)
    _, system = _load(args, report)
    decide = sigma_ample_verdict if args.single else nc_ample_verdict
    verdict = decide(system, search_bound=bound)
    report["payload"] = verdict.to_json()
    return 0 if verdict.decisive else 2


def _cmd_gk(args, report) -> int:
    bound = _flag("--bound", "search bound", args.bound, 0)
    _, system = _load(args, report)
    try:
        cert = gk(system, search_bound=bound)
    except NotNCAmple as exc:
        report["payload"] = {"error": str(exc), "verdict_kind": exc.verdict_kind}
        print(f"ncample: {exc}", file=sys.stderr)
        return 2 if exc.verdict_kind == "Undetermined" else 1
    report["payload"] = cert.to_json()
    return 0


def _cmd_class(args, report) -> int:
    _, system = _load(args, report)
    at = _parse_vector(args.at, expect_len=system.s)
    if any(n < 0 for n in at):
        raise ParseError("grade entries must be nonnegative")
    cls = bs.class_at(system, at)
    report["payload"] = {
        "at": list(at),
        "class": list(cls.coords),
        "is_ample": system.scheme.is_ample(cls),
        "euler": system.scheme.euler_at(cls),
    }
    return 0


def _cmd_dual(args, report) -> int:
    return _report_built(args, report, bs.dual(_load(args, report)[1]))


def _cmd_veronese(args, report) -> int:
    _, system = _load(args, report)
    strides = [_flag("--strides", "stride", n, 1)
               for n in _parse_vector(args.strides, expect_len=system.s)]
    return _report_built(args, report, bs.veronese(system, strides))


def _cmd_rees(args, report) -> int:
    return _report_built(args, report, bs.rees(_load(args, report)[1]))


def _cmd_tensor(args, report) -> int:
    doc_a, meta_a = _read_document(args.input)
    doc_b, meta_b = _read_document(args.other)
    report["input"] = [meta_a, meta_b]
    built = bs.product(bs.load_system(doc_a), bs.load_system(doc_b))
    return _report_built(args, report, built)


def _report_built(args, report, built) -> int:
    """Report a constructed system's document, and write it to --emit
    ('-' = stdout) when given."""
    out = bs.system_to_document(built)
    report["payload"] = {"document": out}
    if args.emit is not None:
        with _any_length_ints():
            text = json.dumps(out, sort_keys=True, indent=2) + "\n"
        if args.emit == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.emit, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {args.emit}: {exc}") from exc
        report["payload"]["emitted"] = args.emit
    return 0


def _cmd_oracle_compare(args, report) -> int:
    doc, system = _load(args, report)
    ring = load_oracle(doc)
    payload = cross_validate(
        ring, system, grade_range=_flag("--range", "grade range", args.grade_range, 1),
        samples=50, opposite_samples=25, seed=args.seed,
        triple=(0, 1, 2) if ring.s >= 3 else None)
    report["payload"] = payload
    return 0 if payload["ok"] else 1


@contextlib.contextmanager
def _any_length_ints():
    """Lift the interpreter's int-string limit while the CLI writes its own
    output; documents are still read under it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _render_text(report: dict) -> str:
    """Terse human-readable summary of the payload."""
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}." if prefix else key + ".", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix.rstrip('.')}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix.rstrip('.')}: {value}")

    walk("", report.get("payload", {}))
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def run(argv) -> tuple[int, dict]:
    """Parse argv, dispatch, and return (exit code, run report)."""
    return _run(argv)[:2]


def _run(argv) -> tuple[int, dict, argparse.Namespace | None]:
    """run, with the parsed arguments too (None when argv does not parse)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code or 0) if exc.code != 2 else 1,
                {"command": list(argv), "payload": {}, "warnings": []}, None)
    report: dict = {"command": list(argv), "warnings": []}
    started = time.monotonic()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.handler(args, report)
            report["warnings"] = [str(w.message) for w in caught]
    except NcampleError as exc:
        report["payload"] = {"error": str(exc)}
        print(f"ncample: {exc}", file=sys.stderr)
        code = 1
    report["timing_ms"] = int((time.monotonic() - started) * 1000)
    return code, report, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, report, args = _run(argv)
    # with --emit -, stdout carries the emitted document alone
    out = sys.stderr if getattr(args, "emit", None) == "-" else sys.stdout
    payload = report.get("payload", {})
    with _any_length_ints():
        if getattr(args, "as_json", False):
            print(json.dumps(report, sort_keys=True, indent=2), file=out)
        # plain errors already went to the diagnostic stream
        elif not (code != 0 and set(payload) <= {"error", "verdict_kind"}):
            text = _render_text(report)
            if text:
                print(text, file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())

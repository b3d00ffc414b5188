"""Command line front end.

Subcommands: validate, verdict, gk, class, dual, veronese, rees, tensor,
oracle compare.  Exit codes: 0 decisive success, 2 honest indecision
(Undetermined), 1 validation or usage error.
"""

from __future__ import annotations

import argparse
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

_BUILTIN_PREFIX = "builtin:"


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


def _resolve_scheme_source(source: str) -> tuple[dict, dict]:
    if source.startswith(_BUILTIN_PREFIX):
        name = source[len(_BUILTIN_PREFIX):]
        return builtin_scheme(name).to_document(), {"builtin": name}
    return _read_document(source)


def _load_input(path: str, scheme_source: str | None) -> tuple[dict, dict]:
    """Read the positional document, splicing in --scheme when given."""
    doc, meta = _read_document(path)
    if scheme_source is not None:
        scheme_doc, scheme_meta = _resolve_scheme_source(scheme_source)
        merged = dict(scheme_doc)
        for key in ("bimodules", "oracle"):
            if key in doc:
                merged[key] = doc[key]
        doc = merged
        meta = dict(meta)
        meta["scheme"] = scheme_meta
    return doc, meta


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

    def add_common(p, bound=False):
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

    p = sub.add_parser("validate", help="parse and validate a document")
    add_common(p)

    p = sub.add_parser("verdict", help="decide NC-ampleness")
    add_common(p, bound=True)
    p.add_argument("--single", action="store_true",
                   help="use the one-bundle ample-power criterion (s = 1)")

    p = sub.add_parser("gk", help="growth certificate for the section ring")
    add_common(p, bound=True)

    p = sub.add_parser("class", help="evaluate the expanded class at a grade")
    add_common(p)
    p.add_argument("--at", required=True,
                   help="grade vector, comma separated, one entry per bundle")

    for name, helptext in (
            ("dual", "emit the inverse-data system"),
            ("veronese", "emit the stride-subsampled system"),
            ("rees", "emit the duplicated one-bundle system"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument("--emit", default=None, metavar="PATH",
                       help="write the constructed document here ('-' = stdout)")
        if name == "veronese":
            p.add_argument("--strides", required=True,
                           help="positive stride vector, comma separated")

    p = sub.add_parser("tensor", help="emit the product of two systems")
    p.add_argument("input", help="first JSON document")
    p.add_argument("other", help="second JSON document")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--emit", default=None, metavar="PATH",
                   help="write the constructed document here ('-' = stdout)")

    oracle = sub.add_parser("oracle", help="section-ring cross validation")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("compare",
                        help="compare brute-force section counts with the "
                             "numerical engine")
    add_common(p)
    p.add_argument("--range", type=int, default=4, dest="grade_range",
                   help="check all grades in [1, N]^s (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random product samples")
    return parser


def _cmd_validate(args, report) -> int:
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
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
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
    system = bs.load_system(doc)
    if args.single:
        verdict = sigma_ample_verdict(system, search_bound=bound)
    else:
        verdict = nc_ample_verdict(system, search_bound=bound)
    report["payload"] = verdict.to_json()
    return 0 if verdict.decisive else 2


def _cmd_gk(args, report) -> int:
    bound = _flag("--bound", "search bound", args.bound, 0)
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
    system = bs.load_system(doc)
    try:
        cert = gk(system, search_bound=bound)
    except NotNCAmple as exc:
        report["payload"] = {"error": str(exc), "verdict_kind": exc.verdict_kind}
        print(f"ncample: {exc}", file=sys.stderr)
        return 2 if exc.verdict_kind == "Undetermined" else 1
    report["payload"] = cert.to_json()
    return 0


def _cmd_class(args, report) -> int:
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
    system = bs.load_system(doc)
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


def _cmd_constructor(args, report) -> int:
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
    system = bs.load_system(doc)
    if args.command == "dual":
        built = bs.dual(system)
    elif args.command == "veronese":
        strides = [_flag("--strides", "stride", n, 1)
                   for n in _parse_vector(args.strides, expect_len=system.s)]
        built = bs.veronese(system, strides)
    else:
        built = bs.rees(system)
    return _report_built(args, report, built)


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
    doc, meta = _load_input(args.input, args.scheme)
    report["input"] = meta
    system = bs.load_system(doc)
    ring = load_oracle(doc)
    payload = cross_validate(
        ring, system, grade_range=_flag("--range", "grade range", args.grade_range, 1),
        samples=50, opposite_samples=25, seed=args.seed,
        triple=(0, 1, 2) if ring.s >= 3 else None)
    report["payload"] = payload
    return 0 if payload["ok"] else 1


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


_DISPATCH = {
    "validate": _cmd_validate,
    "verdict": _cmd_verdict,
    "gk": _cmd_gk,
    "class": _cmd_class,
    "dual": _cmd_constructor,
    "veronese": _cmd_constructor,
    "rees": _cmd_constructor,
    "tensor": _cmd_tensor,
    "oracle": _cmd_oracle_compare,
}


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
            code = _DISPATCH[args.command](args, report)
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
    if getattr(args, "as_json", False):
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
    elif payload or report.get("warnings"):
        # plain errors already went to the diagnostic stream
        if not (code != 0 and set(payload) <= {"error", "verdict_kind"}):
            text = _render_text(report)
            if text:
                print(text, file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())

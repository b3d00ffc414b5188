import argparse
import json
import os
import sys

import pytest

from corpus import run_python
from ncample import bimodule_system, cli, lattice_algebra, scheme_model
from ncample.cli import main, run
from ncample.scheme_model import builtin_scheme

DATA = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def data(name: str) -> str:
    return os.path.join(DATA, name)


def load_data(name: str) -> dict:
    with open(data(name), encoding="utf-8") as fh:
        return json.load(fh)


DOCUMENTS = sorted(name for name in os.listdir(DATA) if name.endswith(".json"))


def boundary_doc() -> dict:
    # O(1,0) on the quadric: nef but not ample, stays on the cone wall
    doc = builtin_scheme("P1xP1").to_document()
    doc["bimodules"] = [{"divisor": [1, 0], "matrix": [[1, 0], [0, 1]]}]
    return doc


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_full_document(self):
        code, report = run(["validate", data("builtin-pair.json")])
        assert code == 0
        payload = report["payload"]
        assert payload["ok"] is True
        assert payload["scheme"]["name"] == "P1xP1"
        assert payload["system"]["s"] == 2
        assert payload["oracle"] == {"d": 2, "s": 2}
        assert len(report["input"]["sha256"]) == 64

    def test_scheme_loaded_once(self, monkeypatch):
        calls = []
        load = scheme_model.load_scheme
        counted = lambda doc: calls.append(1) or load(doc)
        for module in (cli, bimodule_system):
            monkeypatch.setattr(module, "load_scheme", counted)
        code, report = run(["validate", data("swap-ring.json")])
        assert code == 0 and report["payload"]["system"]["s"] == 1
        assert len(calls) == 1

    def test_one_determinant_per_distinct_action(self, tmp_path):
        # three bundles share the shear: from a cold memo, the system's check
        # and the report read the determinant of one trace recursion
        doc = builtin_scheme("P1xP1").to_document()
        doc["bimodules"] = [{"divisor": d, "matrix": [[1, 1], [0, 1]]}
                            for d in ([1, 1], [2, 1], [0, 1])]
        recursion = lattice_algebra._trace_recursion
        recursion.cache_clear()
        code, report = run(["validate", write_doc(tmp_path, "shear.json", doc)])
        assert code == 0
        assert report["payload"]["system"]["determinants"] == [1, 1, 1]
        assert recursion.cache_info().misses == 1

    def test_missing_file(self):
        code, report = run(["validate", "no-such-file.json"])
        assert code == 1
        assert "error" in report["payload"]

    def test_unreadable_documents(self, tmp_path, capsys):
        # files go through the library's parser, with the path in front
        for name, raw, message in (
                ("bad.json", b"\x80abc",
                 "invalid JSON: 'utf-8' codec can't decode byte 0x80"),
                ("list.json", b"[1, 2]", "top-level JSON value must be an object")):
            path = tmp_path / name
            path.write_bytes(raw)
            assert main(["validate", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"ncample: {path}: {message}")

    def test_oracle_without_bimodules_rejected(self, tmp_path):
        # the oracle is read from the bimodules, as oracle compare reads it
        doc = load_data("swap-ring.json")
        del doc["bimodules"]
        path = write_doc(tmp_path, "oracle-only.json", doc)
        for argv in (["validate", path], ["oracle", "compare", path]):
            code, report = run(argv)
            assert code == 1, argv
            assert report["payload"] == {"error": "document has no bimodules member"}

    def test_oracle_shadow_mismatch(self, tmp_path):
        doc = load_data("swap-ring.json")
        doc["bimodules"][0]["matrix"] = [[1, 0], [0, 1]]
        code, report = run(["validate", write_doc(tmp_path, "bad.json", doc)])
        assert code == 1
        assert "error" in report["payload"]


    def test_non_integer_entries_rejected(self, tmp_path):
        # verdict reads the bimodules but not the oracle member
        edits = [
            ("p1-O1.json", ("validate", "verdict"),
             lambda d: d["bimodules"][0].update(divisor=[1.5])),
            ("p1-O1.json", ("validate", "verdict"),
             lambda d: d["bimodules"][0].update(matrix=[[1.9]])),
            ("swap-ring.json", ("validate",),
             lambda d: d["oracle"]["automorphisms"][0].update(perm=[2.9, 1])),
        ]
        for name, commands, edit in edits:
            doc = load_data(name)
            edit(doc)
            path = write_doc(tmp_path, "bad.json", doc)
            for command in commands:
                code, report = run([command, path])
                assert code == 1, (name, command)
                assert "must be an integer" in report["payload"]["error"]


    def test_zero_denominator_moebius_rejected(self, tmp_path):
        doc = load_data("swap-ring.json")
        doc["oracle"]["automorphisms"][0]["mobius"][0][0][0] = "1/0"
        code, report = run(["validate", write_doc(tmp_path, "bad.json", doc)])
        assert code == 1
        assert "Moebius entry" in report["payload"]["error"]

    def test_star_flag_must_be_boolean(self, tmp_path):
        for star in ("false", 0, 1, None):
            doc = load_data("p1-O1.json")
            doc["bimodules"][0]["star"] = star
            path = write_doc(tmp_path, "bad.json", doc)
            for command in ("validate", "verdict"):
                code, report = run([command, path])
                assert code == 1, (star, command)
                assert "star flag" in report["payload"]["error"]
        doc["bimodules"][0]["star"] = False
        code, report = run(["validate", write_doc(tmp_path, "ok.json", doc)])
        assert code == 0
        assert report["payload"]["system"]["star"] == [False]

class TestVerdict:
    def test_pair_ample(self):
        code, report = run(["verdict", data("builtin-pair.json")])
        assert code == 0
        payload = report["payload"]
        assert payload["kind"] == "NCAmple"
        assert payload["m0"] == [1, 1]

    def test_decisive_failure_exits_zero(self):
        code, report = run(["verdict", data("p1-L-Linv.json")])
        assert code == 0
        payload = report["payload"]
        assert payload["kind"] == "EventualAmplenessFail"
        assert payload["witness"]["direction"] == [1, 2]

    def test_quasi_unipotent_failure(self):
        code, report = run(["verdict", data("fibonacci-abelian.json")])
        assert code == 0
        assert report["payload"]["kind"] == "QuasiUnipotentFail"
        assert report["payload"]["fail_index"] == 0

    def test_boundary_is_undetermined(self, tmp_path):
        path = write_doc(tmp_path, "boundary.json", boundary_doc())
        code, report = run(["verdict", path])
        assert code == 2
        assert report["payload"]["kind"] == "Undetermined"

    def test_single_bundle_mode(self):
        code, report = run(["verdict", "--single", data("p1-O1.json")])
        assert code == 0
        assert report["payload"]["kind"] == "SigmaAmple"
        assert report["payload"]["power"] == 1

    def test_single_undetermined_reports(self, tmp_path):
        # no power of O(-1) is ample, and the negative ray rides along
        doc = load_data("p1-O1.json")
        doc["bimodules"][0]["divisor"] = [-1]
        code, report = run(["verdict", "--single", "--json", write_doc(tmp_path, "neg.json", doc)])
        assert code == 2
        payload = report["payload"]
        assert payload["kind"] == "Undetermined"
        witness = payload["supplementary_witness"]
        assert (witness["base"], witness["direction"], witness["threshold"]) == ([0], [1], 1)
        assert "a cofinal negative ray exists" in payload["notes"][-1]
        # bound 0 samples no power, and O(1) has no negative ray
        code, report = run(["verdict", data("p1-O1.json"), "--single", "--bound", "0"])
        assert code == 2
        assert report["payload"]["kind"] == "Undetermined"
        assert "supplementary_witness" not in report["payload"]

    def test_bound_flag(self):
        code, report = run(
            ["verdict", "--bound", "4", data("builtin-pair.json")])
        assert code == 0
        assert report["payload"]["search_bound"] == 4

    def test_flag_does_not_outlive_its_call(self):
        # one parser serves every call in a process
        bounds = [run(argv)[1]["payload"]["search_bound"]
                  for argv in (["verdict", "--bound", "0", data("p1-O1.json")],
                               ["verdict", data("p1-O1.json")])]
        assert bounds == [0, 16]

    def test_negative_bound_rejected(self):
        for command in ("verdict", "gk"):
            code, report = run([command, data("p1-O1.json"), "--bound", "-1"])
            assert code == 1, command
            assert "--bound" in report["payload"]["error"]

    def test_realizability_warning_recorded(self):
        code, report = run(["verdict", data("unipotent-warning.json")])
        assert code == 0
        assert any("nilpotency bound" in w for w in report["warnings"])


class TestEveryDocument:
    def test_verdict_then_gk(self):
        # verdict on every data/ document, and gk wherever it is NCAmple
        assert DOCUMENTS
        for name in DOCUMENTS:
            code, report = run(["verdict", data(name)])
            assert code in (0, 2), name
            if report["payload"]["kind"] == "NCAmple":
                assert run(["gk", data(name)])[0] in (0, 2), name


class TestGk:
    def test_values(self):
        for name, want in (("p1-O1.json", 2), ("swap-ring.json", 3),
                           ("builtin-pair.json", 4)):
            code, report = run(["gk", data(name)])
            assert code == 0
            assert report["payload"]["gk"] == want

    def test_decisive_failure_exit_one(self, capsys):
        code, report = run(["gk", data("fibonacci-abelian.json")])
        assert code == 1
        assert report["payload"]["verdict_kind"] == "QuasiUnipotentFail"
        assert "ncample:" in capsys.readouterr().err

    def test_indecision_exit_two(self, tmp_path):
        path = write_doc(tmp_path, "boundary.json", boundary_doc())
        code, report = run(["gk", path])
        assert code == 2
        assert report["payload"]["verdict_kind"] == "Undetermined"

    def test_vanishing_count_exit_one(self, tmp_path):
        doc = load_data("p1-O1.json")
        doc["euler"] = []
        code, report = run(["gk", write_doc(tmp_path, "zero.json", doc)])
        assert code == 1
        assert report["payload"] == {
            "error": "dimension-counting polynomial vanishes identically on the stride"}


class TestClassCommand:
    def test_evaluation(self):
        code, report = run(["class", data("builtin-pair.json"), "--at", "2,3"])
        assert code == 0
        assert report["payload"] == {
            "at": [2, 3], "class": [2, 3], "is_ample": True, "euler": 12,
        }

    def test_origin(self):
        code, report = run(["class", data("swap-ring.json"), "--at", "0"])
        assert code == 0
        assert report["payload"]["class"] == [0, 0]
        assert report["payload"]["is_ample"] is False

    def test_arity_checked(self):
        code, _ = run(["class", data("builtin-pair.json"), "--at", "2"])
        assert code == 1

    def test_negative_rejected(self):
        code, _ = run(["class", data("builtin-pair.json"), "--at", "-1,0"])
        assert code == 1
        code, report = run(["class", data("p1-O1.json"), "--at=-1"])
        assert code == 1
        assert report["payload"] == {"error": "grade entries must be nonnegative"}

    def test_non_integer_rejected(self):
        code, report = run(["class", data("p1-O1.json"), "--at", "1,x"])
        assert code == 1
        assert report["payload"] == {
            "error": "expected a comma-separated integer vector: '1,x'"}


class TestConstructorPipelines:
    def test_dual_then_verdict(self, tmp_path):
        out = str(tmp_path / "dual.json")
        code, report = run(["dual", data("swap-ring.json"), "--emit", out])
        assert code == 0
        assert report["payload"]["emitted"] == out
        code, report = run(["verdict", out])
        assert code == 0
        assert report["payload"]["kind"] == "NCAmple"
        assert report["payload"]["m0"] == [2]

    def test_rees_then_gk(self, tmp_path):
        out = str(tmp_path / "rees.json")
        assert run(["rees", data("p1-O1.json"), "--emit", out])[0] == 0
        code, report = run(["gk", out])
        assert code == 0
        assert report["payload"]["gk"] == 3

    def test_veronese_then_verdict(self, tmp_path):
        out = str(tmp_path / "ver.json")
        code, _ = run(["veronese", data("builtin-pair.json"),
                       "--strides", "2,3", "--emit", out])
        assert code == 0
        code, report = run(["verdict", out])
        assert code == 0
        assert report["payload"]["kind"] == "NCAmple"

    def test_tensor_then_gk(self, tmp_path):
        out = str(tmp_path / "prod.json")
        code, report = run(["tensor", data("p1-O1.json"),
                            data("swap-ring.json"), "--emit", out])
        assert code == 0
        assert isinstance(report["input"], list) and len(report["input"]) == 2
        code, report = run(["gk", out])
        assert code == 0
        assert report["payload"]["gk"] == 5

    def test_emitted_document_validates(self, tmp_path):
        out = str(tmp_path / "dual.json")
        run(["dual", data("p1-O1.json"), "--emit", out])
        assert run(["validate", out])[0] == 0

    def test_emit_to_stdout_pipes(self, tmp_path, capsys):
        # with --emit -, stdout is the document alone, so it loads as one,
        # and the summary or the --json report goes to stderr
        for flags in ([], ["--json"]):
            assert main(["dual", data("p1-O1.json"), "--emit", "-", *flags]) == 0
            captured = capsys.readouterr()
            emitted = json.loads(captured.out)
            assert emitted == bimodule_system.system_to_document(
                bimodule_system.dual(bimodule_system.load_system(load_data("p1-O1.json"))))
            if flags:
                assert json.loads(captured.err)["payload"]["emitted"] == "-"
            else:
                assert "emitted: -" in captured.err.splitlines()
            code, report = run(["verdict", write_doc(tmp_path, "d.json", emitted)])
            assert code == 0 and report["payload"]["kind"] == "NCAmple"

    def test_unwritable_emit_path(self, tmp_path, capsys):
        # a write error is a plain error, not a traceback
        for path in (tmp_path / "no-such-dir" / "x.json", tmp_path):
            assert main(["dual", data("p1-O1.json"), "--emit", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"ncample: cannot write {path}: [Errno")

    def test_veronese_bad_stride(self):
        code, report = run(["veronese", data("p1-O1.json"), "--strides", "0"])
        assert code == 1
        assert report["payload"]["error"] == \
            "--strides: stride must be an integer >= 1, got 0"


# The rendered monomial forms of the gk certificates and emitted documents,
# pinned to the output of the Fraction term-by-term converters
GOLDEN_GK = {
    "builtin-pair.json": ("n1*n2 + n2 + n1 + 1", "1/4*n^4 + 3/2*n^3 + 9/4*n^2"),
    "diagonal-triple.json": ("n3 + 2*n2 + n1 + 1", "2*n^4 + 3*n^3"),
    "p1-O1.json": ("n1 + 1", "1/2*n^2 + 3/2*n"),
    "parabolic-p1.json": ("n1 + 1", "1/2*n^2 + 3/2*n"),
    "swap-ring.json": ("n1^2 + 2*n1 + 1", "1/3*n^3 + 3/2*n^2 + 13/6*n"),
    "trivial-triple.json": ("n3^2 + n2*n3 + n1*n3 + n1*n2 + 2*n3 + n2 + n1 + 1",
                            "13/12*n^5 + 4*n^4 + 47/12*n^3"),
    "unipotent-warning.json": ("1/2*n1^3 + n1^2 + 3/2*n1 + 1",
                               "1/8*n^4 + 7/12*n^3 + 11/8*n^2 + 23/12*n"),
}
GOLDEN_SWAP_SQUARE = (
    "n1^2*n2^2 + 2*n1*n2^2 + 2*n1^2*n2 + n2^2 + 4*n1*n2 + n1^2 + 2*n2 + 2*n1 + 1",
    "1/9*n^6 + n^5 + 133/36*n^4 + 13/2*n^3 + 169/36*n^2")


class TestGoldenRenderings:
    @staticmethod
    def renderings(path):
        code, report = run(["gk", path, "--json"])
        assert code == 0
        payload = report["payload"]
        return payload["hilbert_monomials"], payload["box_poly_monomials"]

    def test_gk_on_data(self):
        for name, want in GOLDEN_GK.items():
            assert self.renderings(data(name)) == want, name

    def test_gk_on_tensor_square(self, tmp_path):
        out = str(tmp_path / "square.json")
        assert run(["tensor", data("swap-ring.json"), data("swap-ring.json"),
                    "--emit", out])[0] == 0
        assert self.renderings(out) == GOLDEN_SWAP_SQUARE

    def test_emitted_euler(self, tmp_path):
        out = str(tmp_path / "prod.json")
        assert run(["tensor", data("swap-ring.json"), data("p1-O1.json"),
                    "--emit", out])[0] == 0
        with open(out, encoding="utf-8") as fh:
            euler = json.load(fh)["euler"]
        assert [(t["coeff"], t["exponents"]) for t in euler] == [
            ("1", [1, 1, 1]), ("1", [0, 1, 1]), ("1", [1, 0, 1]), ("1", [1, 1, 0]),
            ("1", [0, 0, 1]), ("1", [0, 1, 0]), ("1", [1, 0, 0]), ("1", [0, 0, 0])]
        # (n+1)(n+2)/2 on P2 renders with rational coefficients
        assert run(["dual", data("p1-O1.json"), "--scheme", "builtin:P2",
                    "--emit", out])[0] == 0
        with open(out, encoding="utf-8") as fh:
            euler = json.load(fh)["euler"]
        assert [(t["coeff"], t["exponents"]) for t in euler] == [
            ("1/2", [2]), ("3/2", [1]), ("1", [0])]


class TestSchemeFlag:
    def test_builtin_scheme_splice(self, tmp_path):
        path = write_doc(tmp_path, "bimods.json", {
            "bimodules": [{"divisor": [1, 0], "matrix": [[1, 0], [0, 1]]},
                          {"divisor": [0, 1], "matrix": [[1, 0], [0, 1]]}]})
        code, report = run(
            ["verdict", path, "--scheme", "builtin:P1xP1"])
        assert code == 0
        assert report["payload"]["kind"] == "NCAmple"
        assert report["input"]["scheme"] == {"builtin": "P1xP1"}

    def test_scheme_from_file(self, tmp_path):
        scheme_path = write_doc(tmp_path, "scheme.json",
                                builtin_scheme("P1").to_document())
        bim_path = write_doc(tmp_path, "bimods.json", {
            "bimodules": [{"divisor": [1], "matrix": [[1]]}]})
        code, report = run(["gk", bim_path, "--scheme", scheme_path])
        assert code == 0
        assert report["payload"]["gk"] == 2
        assert report["input"]["scheme"]["path"] == scheme_path

    def test_unknown_builtin(self, tmp_path):
        path = write_doc(tmp_path, "bimods.json", {"bimodules": []})
        code, _ = run(["verdict", path, "--scheme", "builtin:NOPE"])
        assert code == 1


class TestOracleCompare:
    def test_all_corpus_files_agree(self):
        names = [name for name in DOCUMENTS if "oracle" in load_data(name)]
        assert names
        for name in names:
            code, report = run(["oracle", "compare", data(name), "--range", "3"])
            assert code == 0, name
            payload = report["payload"]
            assert payload["ok"] is True
            assert payload["hilbert"]["mismatches"] == []
            assert payload["associativity"]["failures"] == 0
            assert payload["opposite_ok"] is True

    def test_triple_runs_bergman(self):
        code, report = run(
            ["oracle", "compare", data("trivial-triple.json"), "--range", "2"])
        assert code == 0
        assert report["payload"]["bergman_ok"] is True

    def test_document_without_oracle_rejected(self):
        code, report = run(["oracle", "compare", data("p1-L-Linv.json")])
        assert code == 1
        assert "error" in report["payload"]

    def test_negative_multidegree_document(self, tmp_path):
        # validate and verdict read this document; its pieces of negative
        # multidegree are zero and multiply as zero
        doc = load_data("swap-ring.json")
        doc["bimodules"][0]["divisor"] = [-1, 0]
        path = write_doc(tmp_path, "negative.json", doc)
        assert run(["validate", path])[0] == 0
        assert run(["verdict", path])[1]["payload"]["kind"] == "EventualAmplenessFail"
        code, report = run(["oracle", "compare", path])
        assert code == 0
        payload = report["payload"]
        assert (payload["hilbert"]["checked"], payload["hilbert"]["skipped"]) == (0, 4)
        assert payload["associativity"] == {"samples": 50, "failures": 0}
        assert payload["opposite_ok"] is True

    def test_empty_range_rejected(self):
        for bad in ("0", "-1"):
            code, report = run(["oracle", "compare", data("swap-ring.json"),
                                "--range", bad])
            assert code == 1, bad
            assert "grade range" in report["payload"]["error"]
            assert report["payload"]["error"].startswith("--range: ")


class TestReportShape:
    def test_deterministic_modulo_timing(self):
        runs = []
        for _ in range(2):
            code, report = run(["gk", data("swap-ring.json")])
            assert code == 0
            report.pop("timing_ms")
            runs.append(json.dumps(report, sort_keys=True))
        assert runs[0] == runs[1]

    def test_report_members(self):
        _, report = run(["verdict", data("p1-O1.json")])
        assert set(report) == {"command", "input", "payload", "warnings",
                               "timing_ms"}
        assert report["command"][0] == "verdict"

    def test_usage_error_exit_one(self):
        assert run(["no-such-command"])[0] == 1
        assert run(["class", data("p1-O1.json")])[0] == 1


class TestMain:
    def test_json_mode_prints_report(self, capsys):
        code = main(["verdict", data("p1-O1.json"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["kind"] == "NCAmple"
        assert "timing_ms" in report

    def test_json_flag_read_from_parsed_arguments(self, capsys):
        # argparse takes an unambiguous prefix of an option for the option
        assert main(["verdict", data("p1-O1.json"), "--js"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["kind"] == "NCAmple"

    def test_text_mode(self, capsys):
        code = main(["verdict", data("p1-O1.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kind: NCAmple" in out
        assert "m0: [1]" in out

    def test_error_goes_to_stderr_only(self, capsys):
        code = main(["gk", data("fibonacci-abelian.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ncample:" in captured.err

    def test_module_entry_point(self):
        # python -m ncample runs the CLI from a checkout without installing it
        out = run_python("-m", "ncample", "verdict", data("p1-O1.json"))
        assert "kind: NCAmple" in out.splitlines()

    def test_warning_rendered(self, capsys):
        code = main(["verdict", data("unipotent-warning.json")])
        assert code == 0
        assert "warning:" in capsys.readouterr().out


INPUT = ((), "input", None, True, "JSON document (scheme plus bimodules)", None)
SCHEME = (("--scheme",), "scheme", None, False,
          "scheme source: a JSON path or builtin:NAME", None)
JSON = (("--json",), "as_json", False, False, "print the full machine-readable report",
        None)
BOUND = (("--bound",), "bound", 16, False,
         "limit of the negative-ray search (largest direction and base entry) and of "
         "the --single power scan (default 16); corners are searched without limit",
         None)
EMIT = (("--emit",), "emit", None, False,
        "write the constructed document here ('-' = stdout)", "PATH")

# (option strings, dest, default, required, help, metavar) of every argument,
# in declaration order, keyed by the subcommand path and its help text
DECLARATIONS = {
    ("validate", "parse and validate a document"): [INPUT, SCHEME, JSON],
    ("verdict", "decide NC-ampleness"): [
        INPUT, SCHEME, JSON, BOUND,
        (("--single",), "single", False, False,
         "use the one-bundle ample-power criterion (s = 1)", None)],
    ("gk", "growth certificate for the section ring"): [INPUT, SCHEME, JSON, BOUND],
    ("class", "evaluate the expanded class at a grade"): [
        INPUT, SCHEME, JSON,
        (("--at",), "at", None, True,
         "grade vector, comma separated, one entry per bundle", None)],
    ("dual", "emit the inverse-data system"): [INPUT, SCHEME, JSON, EMIT],
    ("veronese", "emit the stride-subsampled system"): [
        INPUT, SCHEME, JSON, EMIT,
        (("--strides",), "strides", None, True,
         "positive stride vector, comma separated", None)],
    ("rees", "emit the duplicated one-bundle system"): [INPUT, SCHEME, JSON, EMIT],
    ("tensor", "emit the product of two systems"): [
        ((), "input", None, True, "first JSON document", None),
        ((), "other", None, True, "second JSON document", None),
        (("--json",), "as_json", False, False, None, None), EMIT],
    ("oracle", "section-ring cross validation"): [
        ((), "oracle_command", None, True, None, None)],
    ("oracle compare",
     "compare brute-force section counts with the numerical engine"): [
        INPUT, SCHEME, JSON,
        (("--range",), "grade_range", 4, False,
         "check all grades in [1, N]^s (default 4)", None),
        (("--seed",), "seed", 0, False, "seed for the random product samples", None)],
}


class TestDeclarations:
    """Every subcommand's arguments, pinned as declared rather than as
    rendered, since argparse's help headings differ between Pythons."""

    @staticmethod
    def declared(parser, prefix=()):
        found = {}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                helps = {c.dest: c.help for c in action._choices_actions}
                for name, sub in action.choices.items():
                    path = prefix + (name,)
                    found[(" ".join(path), helps[name])] = [
                        (tuple(a.option_strings), a.dest, a.default, a.required,
                         a.help, a.metavar)
                        for a in sub._actions
                        if not isinstance(a, argparse._HelpAction)]
                    found.update(TestDeclarations.declared(sub, path))
        return found

    def test_every_subcommand_declared_as_pinned(self):
        found = self.declared(cli._build_parser())
        assert list(found) == list(DECLARATIONS)
        for key, arguments in DECLARATIONS.items():
            assert found[key] == arguments, key


class TestLongIntegers:
    """Reports and emitted documents print integers past the interpreter's
    4300-digit int-string limit, which stays in force for reading."""

    AT = 30000  # class entries of about 6270 digits

    @staticmethod
    def expected_class() -> list[int]:
        system = bimodule_system.load_system(load_data("fibonacci-abelian.json"))
        return list(bimodule_system.class_at(system, (TestLongIntegers.AT,)).coords)

    @staticmethod
    def unlimited(text: str):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return json.loads(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_text_report(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["class", data("fibonacci-abelian.json"), "--at", str(self.AT)]) == 0
        assert sys.get_int_max_str_digits() == limit
        lines = capsys.readouterr().out.splitlines()
        line = next(line for line in lines if line.startswith("class: "))
        assert self.unlimited(line[len("class: "):]) == self.expected_class()

    def test_json_report(self, capsys):
        argv = ["class", data("fibonacci-abelian.json"), "--at", str(self.AT), "--json"]
        assert main(argv) == 0
        report = self.unlimited(capsys.readouterr().out)
        assert report["payload"]["class"] == self.expected_class()

    def test_interpreter_without_a_limit(self, monkeypatch, capsys):
        # interpreters before the limit have no functions to lift it
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        assert main(["class", data("builtin-pair.json"), "--at", "2,3"]) == 0
        assert "class: [2, 3]" in capsys.readouterr().out.splitlines()

    def test_emitted_document(self, capsys):
        argv = ["veronese", data("fibonacci-abelian.json"), "--strides", str(self.AT),
                "--emit", "-"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert self.unlimited(text)["bimodules"][0]["divisor"] == self.expected_class()
        # such a document holds integers longer than a reader accepts
        with pytest.raises(scheme_model.ParseError, match="invalid JSON"):
            scheme_model._as_dict(text)


class TestLargeDocuments:
    """A long document is read without a RecursionError: under a recursion
    limit of 150, rho = 200 and s = 200 stand for what a default limit of
    1000 would meet at a larger size."""

    @staticmethod
    def run_limited(argv) -> list[str]:
        script = ("import sys\nfrom ncample.cli import main\n"
                  f"sys.setrecursionlimit(150)\nsys.exit(main({argv!r}))\n")
        return run_python("-c", script).splitlines()

    def test_cone_search_in_high_rank(self, tmp_path):
        rho = 200
        doc = {"name": "wide", "dim": 1, "rho": rho,
               "euler": [{"coeff": "1", "exponents": [0] * rho}],
               "ample_cone": [[1] + [0] * (rho - 1)]}
        lines = self.run_limited(["validate", write_doc(tmp_path, "wide.json", doc)])
        assert "ok: True" in lines
        assert f"scheme.interior_point: {json.dumps([1] + [-1] * (rho - 1))}" in lines

    def test_twisted_walk_over_many_bundles(self, tmp_path):
        doc = builtin_scheme("P1").to_document()
        doc["bimodules"] = [{"divisor": [1], "matrix": [[1]]}] * 200
        lines = self.run_limited(["verdict", write_doc(tmp_path, "many.json", doc)])
        assert "kind: NCAmple" in lines

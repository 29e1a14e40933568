"""Command-line surface: schemas, exit codes, determinism, round trips."""

import json
import time
from pathlib import Path

import pytest

from qshape import QQ, ZZ, Zmod, MeshCategory, Matrix, PresentedModule, \
    build_double_an
from qshape.cli import Report, main
from qshape.fixtures import counter_morphism
from qshape.io import (SchemaError, dumps, morphism_json, parse_category,
                       parse_morphism, parse_representation,
                       representation_json)
from qshape.quiver import format_vertex
from qshape.repmod import free_at

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def counter_file(tmp_path):
    _, _, phi = counter_morphism(QQ)
    path = tmp_path / "counter.json"
    path.write_text(dumps(morphism_json(phi)))
    return str(path)


@pytest.fixture()
def rep_file(tmp_path):
    C = MeshCategory(build_double_an(3), ZZ)
    X = free_at(C, 1, PresentedModule.free(ZZ, 1))
    path = tmp_path / "rep.json"
    path.write_text(dumps(representation_json(X)))
    return str(path)


class TestSchemas:
    def test_category_round_trip(self):
        C = parse_category({"flavor": "double_an", "n": 3, "ring": "Z"})
        assert C.n == 3 and C.ring == ZZ

    def test_bad_window_path(self):
        with pytest.raises(SchemaError) as err:
            parse_category({"flavor": "repetitive_an", "n": 2, "ring": "Z",
                            "window": [2, -2]})
        assert "/window" in str(err.value)

    def test_bad_ring_path(self):
        with pytest.raises(SchemaError) as err:
            parse_category({"flavor": "double_an", "n": 2, "ring": {"mod": 6}})
        assert "/ring" in str(err.value)

    def test_representation_round_trip(self):
        C = MeshCategory(build_double_an(2), Zmod(4))
        X = free_at(C, 1, PresentedModule.cyclic(Zmod(4), 2))
        data = representation_json(X)
        Y = parse_representation(json.loads(dumps(data)))
        assert representation_json(Y) == data

    def test_counter_fixture_parses_and_validates(self, counter_file):
        with open(counter_file) as f:
            phi = parse_morphism(json.load(f))
        from qshape.repmod import validate_morphism, validate_representation
        assert validate_representation(phi.source).ok
        assert validate_morphism(phi)["ok"]

    def test_matrix_shape_error(self):
        data = {"category": {"flavor": "double_an", "n": 2, "ring": "Z"},
                "values": {"1": {"rank": 1}, "2": {"rank": 1}},
                "arrows": {"a1": {"rows": 2, "cols": 2,
                                  "entries": ["1", "0", "0", "1"]}}}
        with pytest.raises(SchemaError) as err:
            parse_representation(data)
        assert "/arrows/a1" in str(err.value)


class TestExitCodes:
    def test_dims_ok(self, capsys):
        code, out = run(capsys, "dims", "--n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["tables"]["ranks"][2] == [1, 2, 3, 2, 1]

    def test_bad_json_is_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, out = run(capsys, "validate", "--input", str(bad))
        assert code == 1
        assert "error" in json.loads(out)

    def test_schema_error_is_exit_one_with_path(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "values": {"9": {"rank": 1}}}))
        code, out = run(capsys, "validate", "--input", str(f))
        assert code == 1
        assert "/values/9" in json.loads(out)["error"]

    @pytest.mark.parametrize("ring, value, n, path", [
        ("Z", {"rank": 1, "relations": {"rows": 1, "cols": 1,
                                        "entries": ["abc"]}}, 2,
         "/values/1/relations"),
        ("Q", {"rank": 1, "relations": {"rows": 1, "cols": 1,
                                        "entries": ["1/0"]}}, 2,
         "/values/1/relations"),
        ("Z", {"rank": 1, "relations": {"rows": "1", "cols": 1,
                                        "entries": ["2"]}}, 2,
         "/values/1/relations"),
        ("Z", {"rank": 1, "relations": {"rows": 1, "cols": 2,
                                        "entries": "12"}}, 2,
         "/values/1/relations"),
        ({"mod": "9"}, {"rank": 1}, 2, "/category/ring"),
        ("Z", {"rank": True}, 2, "/values/1/rank"),
        ("Z", {"rank": 1}, True, "/category/n"),
    ], ids=["entry abc over Z", "entry 1/0 over Q", "rows as a string",
            "entries as a string", "modulus as a string", "rank true",
            "n true"])
    def test_malformed_input_is_exit_one_with_path(self, capsys, monkeypatch,
                                                   ring, value, n, path):
        import io as _io
        text = json.dumps({"category": {"flavor": "double_an", "n": n,
                                        "ring": ring},
                           "values": {"1": value}})
        monkeypatch.setattr("sys.stdin", _io.StringIO(text))
        code, out = run(capsys, "validate", "--input", "-")
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    @pytest.mark.parametrize("argv, category, path", [
        (["dims", "--n", "1000"], None, "--n"),
        (["serre-check", "--n", "3", "--ring", f"mod:{10 ** 20 + 39}"], None,
         "--ring"),
        (None, {"flavor": "double_an", "n": 1000, "ring": "Z"}, "/category/n"),
        (None, {"flavor": "double_an", "n": 2, "ring": {"mod": 10 ** 20 + 39}},
         "/category/ring"),
    ], ids=["--n 1000", "--ring prime near 1e20", "JSON n 1000",
            "JSON prime near 1e20"])
    def test_oversized_input_is_refused_quickly(self, capsys, tmp_path,
                                                argv, category, path):
        # dims --n 1000 took 2 s and printed 12.6 MB; checking that a prime
        # near 1e20 is a prime power took about 20 minutes of trial division
        if argv is None:
            f = tmp_path / "rep.json"
            f.write_text(json.dumps({"category": category, "values": {}}))
            argv = ["validate", "--input", str(f)]
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    def test_weq_below_degree_one_is_refused(self, capsys):
        # depth 0 compared no degree at all and called the counterexample a
        # weak equivalence, with an empty table
        code, out = run(capsys, "weq", "--input", str(FIXTURES / "counter.json"),
                        "--max-degree", "0")
        assert code == 1
        assert json.loads(out)["path"] == "--max-degree"

    def test_homology_below_degree_zero_is_refused(self, capsys, rep_file):
        # a negative depth printed empty H_ and H^ tables
        code, out = run(capsys, "homology", "--input", rep_file,
                        "--max-degree", "-3")
        assert code == 1
        assert json.loads(out)["path"] == "--max-degree"
        code, out = run(capsys, "homology", "--input", rep_file,
                        "--max-degree", "0")
        assert code == 0 and json.loads(out)["verdicts"]["max_degree"] == 0

    def test_inputs_at_the_caps_are_accepted(self, capsys):
        code, out = run(capsys, "dims", "--n", "32")
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True
        code, _ = run(capsys, "dims", "--n", "2", "--ring", f"mod:{2 ** 31 - 1}")
        assert code == 0

    def test_mesh_violation_is_exit_two(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "values": {"1": {"rank": 1}, "2": {"rank": 1}},
            "arrows": {"a1": {"rows": 1, "cols": 1, "entries": ["1"]},
                       "a1*": {"rows": 1, "cols": 1, "entries": ["1"]}}}))
        code, out = run(capsys, "validate", "--input", str(f))
        assert code == 2
        assert json.loads(out)["verdicts"]["ok"] is False

    def test_valid_rep_is_exit_zero(self, capsys, rep_file):
        code, _ = run(capsys, "validate", "--input", rep_file)
        assert code == 0

    def test_downstream_commands_reject_invalid_reps(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "values": {"1": {"rank": 1}, "2": {"rank": 1}},
            "arrows": {"a1": {"rows": 1, "cols": 1, "entries": ["1"]},
                       "a1*": {"rows": 1, "cols": 1, "entries": ["1"]}}}))
        for cmd in ("homology", "classify"):
            code, out = run(capsys, cmd, "--input", str(f))
            assert code == 2
            assert "invalid_representation" in json.loads(out)["witnesses"]

    def test_weq_rejects_unnatural_morphism(self, capsys, tmp_path):
        rep = {"values": {"1": {"rank": 1}, "2": {"rank": 1}},
               "arrows": {"a1": {"rows": 1, "cols": 1, "entries": ["1"]}}}
        f = tmp_path / "phi.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "source": rep,
            "target": rep,
            # identity at vertex 1 but zero at vertex 2 breaks naturality
            "components": {"1": {"rows": 1, "cols": 1, "entries": ["1"]}}}))
        code, out = run(capsys, "weq", "--input", str(f))
        assert code == 2
        assert "not_natural" in json.loads(out)["witnesses"]

    @pytest.mark.parametrize("fixture, vertex", [
        ("counter_X.json", "xyz"), ("counter_X.json", "2@3@4"),
        ("counter_X.json", "9"), ("counter_X.json", "1@99"),
        ("counter_X.json", "1@-8"), (None, "7"), (None, "")],
        ids=["not a vertex", "two @", "double id on repetitive",
             "outside the window", "resolution leaves the window",
             "outside double A_3", "empty"])
    def test_bad_vertex_is_exit_one_with_path(self, capsys, rep_file,
                                              fixture, vertex):
        # the first three ended in a traceback, the next three printed an
        # error without a path, and an empty one reported every vertex
        path = rep_file if fixture is None else str(FIXTURES / fixture)
        code, out = run(capsys, "homology", "--input", path, "--vertex", vertex)
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == "--vertex"

    @pytest.mark.parametrize("doc, path", [
        ({"values": "abc"}, "/values"),
        ({"arrows": "x"}, "/arrows"),
        ({"values": []}, "/values"),
        ({"values": {"1": {"rank": 1}}, "arrows": None}, "/arrows"),
    ], ids=["values a string", "arrows a string", "values a list",
            "arrows null"])
    def test_representation_containers_must_be_objects(self, capsys, tmp_path,
                                                      doc, path):
        # a string ended in an AttributeError traceback; a list was read as
        # an empty object
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(
            {"category": {"flavor": "double_an", "n": 2, "ring": "Z"}} | doc))
        code, out = run(capsys, "validate", "--input", str(f))
        assert code == 1
        assert json.loads(out)["path"] == path

    @pytest.mark.parametrize("change, path", [
        ({"source": {"values": []}}, "/source/values"),
        ({"target": {"arrows": "x"}}, "/target/arrows"),
        ({"components": "x"}, "/components"),
        ({"components": [1]}, "/components"),
    ], ids=["source values a list", "target arrows a string",
            "components a string", "components a list"])
    def test_morphism_containers_must_be_objects(self, capsys, tmp_path,
                                                 change, path):
        rep = {"values": {"1": {"rank": 1}}}
        f = tmp_path / "phi.json"
        f.write_text(json.dumps(
            {"category": {"flavor": "double_an", "n": 2, "ring": "Z"},
             "source": rep, "target": rep, "components": {}} | change))
        code, out = run(capsys, "weq", "--input", str(f))
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    def test_mult_refuses_the_repetitive_flavor(self, capsys):
        code, out = run(capsys, "mult", "--flavor", "repetitive_an", "--n", "2")
        assert code == 1
        assert json.loads(out) == {
            "error": "--flavor: closed forms exist for double_an only",
            "path": "--flavor"}

    def test_unknown_flag_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dims", "--bogus"])
        assert err.value.code == 1


class TestCommands:
    def test_oracle_all_builtin_flavors(self, capsys):
        for n in ("2", "3", "6"):
            code, out = run(capsys, "oracle", "--n", n)
            assert code == 0 and json.loads(out)["verdicts"]["ok"]
        code, out = run(capsys, "oracle", "--flavor", "repetitive_an", "--n", "2",
                        "--window", "-3", "3", "--max-len", "4")
        assert code == 0 and json.loads(out)["verdicts"]["ok"]

    def test_mult(self, capsys):
        code, out = run(capsys, "mult", "--n", "3")
        data = json.loads(out)
        assert code == 0 and data["verdicts"]["ok"]
        assert data["tables"]["T[1,1]"]["entries"] == ["-1"]

    def test_serre_check(self, capsys):
        code, out = run(capsys, "serre-check", "--n", "4", "--ring", "mod:5")
        assert code == 0 and json.loads(out)["verdicts"]["ok"]

    def test_build_bundle(self, capsys):
        code, out = run(capsys, "build", "--n", "2")
        data = json.loads(out)
        assert code == 0
        bundle = data["tables"]["bundle"]
        assert bundle["nilpotency_index"] == 2
        assert bundle["hom_bases"]["1->2"] == [1]

    @pytest.mark.parametrize("argv", [
        ["serre-check", "--flavor", "repetitive_an", "--n", "5"],
        ["build", "--flavor", "repetitive_an", "--n", "4",
         "--window", "-10", "10"],
    ], ids=["serre-check n=5", "build n=4 window (-10, 10)"])
    def test_repetitive_serre_data_within_budget(self, capsys, argv):
        # the top degree of the Serre pairing used to be recomputed for
        # every vertex pair: about 52 s and 17 s
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True

    def test_dims_repetitive(self, capsys):
        code, out = run(capsys, "dims", "--flavor", "repetitive_an", "--n", "2",
                        "--window", "0", "1")
        assert code == 0
        assert json.loads(out)["tables"]["ranks"] == {
            "1@0->1@0": 1, "1@0->2@0": 1, "1@1->1@1": 1, "1@1->2@1": 1,
            "2@0->2@0": 1, "2@1->1@0": 1, "2@1->2@1": 1}

    def test_weq_table_format(self, capsys):
        code, out = run(capsys, "weq", "--input", str(FIXTURES / "counter.json"),
                        "--format", "table")
        assert code == 0
        assert out == (DATA / "weq_counter_table.txt").read_text()

    def test_homology_table(self, capsys, rep_file):
        code, out = run(capsys, "homology", "--input", rep_file,
                        "--max-degree", "1")
        data = json.loads(out)
        assert code == 0
        assert data["tables"]["H_"]["0 at 1"] == "Z"   # C_1(F_1) = Z
        assert data["tables"]["mesh"]["2"] == "0"

    def test_homology_table_lists_invariant_factors(self, capsys, tmp_path):
        # a stalk whose value is Z/2 + Z shows both factors in the table
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "values": {"1": {"rank": 2, "relations":
                             {"rows": 2, "cols": 1, "entries": ["2", "0"]}}}}))
        code, out = run(capsys, "homology", "--input", f.as_posix(),
                        "--vertex", "2", "--max-degree", "1")
        data = json.loads(out)
        assert code == 0
        assert data["tables"]["mesh"]["2"] == "Z/2 + Z"
        assert data["tables"]["H_"]["1 at 2"] == "Z/2 + Z"

    def test_homology_without_vertex_skips_what_leaves_the_window(self, capsys):
        path = (FIXTURES / "counter_X.json").as_posix()
        code, out = run(capsys, "homology", "--input", path)
        assert code == 0
        tables = json.loads(out)["tables"]
        assert "1@-8" in tables["skipped"]
        X = parse_representation(json.loads(Path(path).read_text()))
        interior = {format_vertex(q)
                    for q in X.category.quiver.interior_vertices()}
        assert set(tables["mesh"]) | set(tables["skipped"]) == interior
        assert not set(tables["mesh"]) & set(tables["skipped"])
        code, out = run(capsys, "homology", "--input", path, "--vertex", "2@0")
        single = json.loads(out)["tables"]
        for key in ("mesh", "H_", "H^"):
            for k, v in single[key].items():
                assert tables[key][k] == v

    def test_classify(self, capsys, rep_file):
        code, out = run(capsys, "classify", "--input", rep_file)
        data = json.loads(out)
        assert code == 0
        assert data["verdicts"]["is_projective"] is True
        assert data["verdicts"]["is_exact"] is True

    def test_weq_counterexample(self, capsys, counter_file):
        code, out = run(capsys, "weq", "--input", counter_file)
        data = json.loads(out)
        assert code == 0
        assert data["verdicts"]["is_weak_equivalence"] is False

    def test_demo_counterexample(self, capsys):
        code, out = run(capsys, "demo", "counterexample", "--ring", "mod:5")
        data = json.loads(out)
        assert code == 0
        assert data["verdicts"]["mesh_homology_of_phi_at_3"] == "iso"
        assert data["verdicts"]["weak_equivalence"] == "NO"

    def test_demo_chain_complex(self, capsys):
        code, out = run(capsys, "demo", "chain-complex", "--random", "5",
                        "--ring", "mod:5")
        data = json.loads(out)
        assert code == 0
        assert data["verdicts"]["matches"] == "5/5"

    def test_stdin_input(self, capsys, monkeypatch, rep_file):
        import io as _io
        with open(rep_file) as f:
            payload = f.read()
        monkeypatch.setattr("sys.stdin", _io.StringIO(payload))
        code, _ = run(capsys, "validate", "--input", "-")
        assert code == 0


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "dims", "--n", "4")
        _, second = run(capsys, "dims", "--n", "4")
        assert first == second

    def test_report_round_trip(self, capsys, rep_file):
        _, out = run(capsys, "classify", "--input", rep_file)
        report = Report.from_json(json.loads(out))
        assert json.loads(report.render("json")) == json.loads(out)

    def test_max_degree_defaults_to_two_and_flag_sets_it(self, capsys, rep_file):
        _, out = run(capsys, "homology", "--input", rep_file)
        assert json.loads(out)["verdicts"]["max_degree"] == 2
        _, out = run(capsys, "homology", "--input", rep_file,
                     "--max-degree", "3")
        assert json.loads(out)["verdicts"]["max_degree"] == 3

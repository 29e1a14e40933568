"""Command-line surface: schemas, exit codes, determinism, round trips."""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from qshape import QQ, ZZ, Zmod, MeshCategory, Matrix, PresentedModule, \
    build_double_an, build_repetitive_an
from qshape.cli import MAX_RANDOM, Report, build_parser, main
from qshape.exactalg import smith
from qshape.fixtures import counter_morphism
from qshape.io import (SchemaError, dumps, parse_category, parse_morphism,
                       parse_representation, representation_json)
from qshape.homology import homology_report
from qshape.quiver import format_vertex, parse_vertex
from qshape.repmod import Representation, free_at

from samplers import cyclic, morphism_json

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def dense_value(tmp_path, rank):
    """(path, entries) of one value at vertex 1 of double A_2 over Z whose
    relations are a seeded dense rank x rank matrix with entries in [-9, 9]."""
    rng = random.Random(12)
    entries = [str(rng.randint(-9, 9)) for _ in range(rank * rank)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({
        "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
        "values": {"1": {"rank": rank, "relations": {
            "rows": rank, "cols": rank, "entries": entries}}}}))
    return path, entries


def dense_rank_six(tmp_path):
    """(path, entries) of the rank-6 dense value."""
    return dense_value(tmp_path, 6)


def counting_smith(monkeypatch) -> list:
    """(rows, cols, entries) of every _smith call on a nonempty matrix."""
    calls = []
    original = smith._smith

    def counting(entries, rows, cols, *args, **kwargs):
        if rows and cols:
            calls.append((rows, cols, tuple(entries)))
        return original(entries, rows, cols, *args, **kwargs)
    monkeypatch.setattr(smith, "_smith", counting)
    return calls


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

    @pytest.mark.parametrize("window", ["junk", [1], [0, "1"], [True, 2]])
    def test_double_window_is_checked(self, capsys, tmp_path, window):
        # the double flavor reads no window, but used to accept any
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"category": {"flavor": "double_an", "n": 2,
                                              "window": window},
                                 "values": {}}))
        code, out = run(capsys, "validate", "--input", str(f))
        assert code == 1
        assert json.loads(out) == {
            "error": "/category/window: window must be [i_min, i_max]",
            "path": "/category/window"}

    def test_double_category_without_window(self):
        assert parse_category({"flavor": "double_an", "n": 2}).n == 2
        assert parse_category({"flavor": "double_an", "n": 2,
                               "window": None}).n == 2

    def test_bad_ring_path(self):
        with pytest.raises(SchemaError) as err:
            parse_category({"flavor": "double_an", "n": 2, "ring": {"mod": 6}})
        assert "/ring" in str(err.value)

    def test_representation_round_trip(self):
        C = MeshCategory(build_double_an(2), Zmod(4))
        X = free_at(C, 1, cyclic(Zmod(4), 2))
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

    @pytest.mark.parametrize("ring, entry, path", [
        ({"mod": 9}, "long int", "/"),
        ("Z", "long str", "/values/1/relations"),
        ("Q", '"1e10000000"', "/values/1/relations"),
        ("Q", '"1E5"', "/values/1/relations"),
        ("Q", '"2/3e4"', "/values/1/relations"),
    ], ids=["JSON integer past the digit limit", "Z string past the limit",
            "Q exponent 1e10000000", "Q exponent 1E5", "Q exponent in p/q"])
    def test_unbounded_entries_are_refused_quickly(self, capsys, tmp_path,
                                                   ring, entry, path):
        # json.loads raised a plain ValueError on a 5,000-digit integer, which
        # made every --input command print a traceback; Fraction("1e10000000")
        # builds 10**(10**7), 9.9 s of CPU for a 153-byte file
        if entry.startswith("long"):
            limit = sys.get_int_max_str_digits()
            if not limit:
                pytest.skip("this interpreter has no integer digit limit")
            digits = "7" * (limit + 1)
            entry = digits if entry == "long int" else f'"{digits}"'
        f = tmp_path / "rep.json"
        f.write_text(
            '{"category": {"flavor": "double_an", "n": 2, "ring": %s}, '
            '"values": {"1": {"rank": 1, "relations": {"rows": 1, "cols": 1, '
            '"entries": [%s]}}}}' % (json.dumps(ring), entry))
        start = time.process_time()
        code, out = run(capsys, "validate", "--input", str(f))
        assert time.process_time() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    def test_deeply_nested_json_is_refused_quickly(self, capsys, tmp_path):
        # json.loads raises RecursionError, not ValueError, on deep nesting:
        # this file printed a traceback and nothing on stdout
        f = tmp_path / "rep.json"
        f.write_text("[" * 200_000 + "]" * 200_000)
        start = time.process_time()
        code, out = run(capsys, "validate", "--input", str(f))
        assert time.process_time() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == "/"

    def test_q_entries_without_exponent_are_read(self, capsys, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Q"},
            "values": {"1": {"rank": 2, "relations": {
                "rows": 2, "cols": 1, "entries": ["-3/4", "1.5"]}}}}))
        code, out = run(capsys, "validate", "--input", str(f))
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True

    @pytest.mark.parametrize("argv, path", [
        (["--n", "16"], "--n"),
        (["--n", "12", "--window", "-64", "64"], "--window"),
        (["--n", "12", "--window", "-26", "26"], "--window"),
    ], ids=["--n 16", "--n 12 window (-64, 64)", "--n 12 window (-26, 26)"])
    def test_oversized_repetitive_build_is_refused(self, capsys, argv, path):
        # vertices x n**2 above MAX_BUILD: --n 16 took 7.0 s of CPU and printed
        # 13 MB, --n 12 on (-64, 64) 6.3 s and 11.7 MB; (-26, 26) is 91,584
        start = time.process_time()
        code, out = run(capsys, "build", "--flavor", "repetitive_an", *argv)
        assert time.process_time() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    @pytest.mark.parametrize("argv, path", [
        (["serre-check", "--n", "32"], "--n"),
        (["oracle", "--n", "16", "--window", "-64", "64"], "--window"),
        (["dims", "--n", "32"], "--n"),
    ], ids=["serre-check --n 32", "oracle --n 16 window (-64, 64)",
            "dims --n 32"])
    def test_oversized_repetitive_scan_is_refused(self, capsys, argv, path):
        # vertices x n**2 above MAX_SCAN or MAX_DIMS: serre-check --n 32 took
        # 24.9 s of CPU and 246 MB, dims --n 32 8.3 s, 299 MB and printed
        # 18 MB; oracle --n 16 on (-64, 64) is 528,384 (--n 16 is 266,240)
        start = time.process_time()
        code, out = run(capsys, argv[0], "--flavor", "repetitive_an", *argv[1:])
        assert time.process_time() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    @pytest.mark.parametrize("argv, category, path", [
        (["build", "--flavor", "repetitive_an", "--n", "2", "--window",
          "-100000", "100000"], None, "--window"),
        (["dims", "--flavor", "repetitive_an", "--n", "2", "--window", "-64",
          "65"], None, "--window"),
        (None, {"flavor": "repetitive_an", "n": 2, "ring": "Z",
                "window": [-100000, 100000]}, "/category/window"),
        (None, {"flavor": "double_an", "n": 2, "ring": "Z",
                "window": [-10000, 10000]}, "/category/window"),
    ], ids=["--window 200001 columns", "--window 130 columns",
            "JSON window 200001 columns", "JSON double window 20001 columns"])
    def test_window_wider_than_the_cap_is_refused(self, capsys, tmp_path,
                                                  argv, category, path):
        # validate on the window [-10000, 10000] took 2.3 s, building every
        # vertex and arrow of it, and the cost grows with the width
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

    def test_window_at_the_cap_is_accepted(self, capsys):
        code, out = run(capsys, "dims", "--flavor", "repetitive_an", "--n", "2",
                        "--window", "-64", "64")
        assert code == 0
        assert json.loads(out)["verdicts"]["ok"] is True

    @pytest.mark.parametrize("argv, path", [
        (["dims", "--n", "1"], "--n"),
        (["oracle", "--n", "-4"], "--n"),
        (["build", "--flavor", "repetitive_an", "--n", "2", "--window", "5",
          "-5"], "--window"),
        (["build", "--flavor", "repetitive_an", "--n", "1"], "--n"),
        (["build", "--n", "2", "--window", "5", "-5"], "--window"),
    ], ids=["dims --n 1", "oracle --n -4", "window 5 -5", "repetitive --n 1",
            "double window 5 -5"])
    def test_bad_category_flag_is_exit_one_with_path(self, capsys, argv, path):
        # each printed an error without a path
        code, out = run(capsys, *argv)
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == path

    @pytest.mark.parametrize("flavor, n, window, field", [
        ("double_an", 1, None, "n"),
        ("double_an", 33, None, "n"),
        ("repetitive_an", 1, [0, 1], "n"),
        ("repetitive_an", -4, [0, 1], "n"),
        ("repetitive_an", 2, [5, -5], "window"),
        ("repetitive_an", 40, [5, -5], "n"),
        ("double_an", 2, [5, -5], "window"),
        ("double_an", 1, [5, -5], "n"),
    ])
    def test_flags_and_json_are_refused_alike(self, capsys, tmp_path,
                                              flavor, n, window, field):
        # one constructor checks both: the same field and the same message,
        # at --field for a flag and at /category/field in a file; a
        # repetitive n below 2 used to blame /category/window
        argv = ["dims", "--flavor", flavor, "--n", str(n)]
        category = {"flavor": flavor, "n": n, "ring": "Z"}
        if window is not None:
            argv += ["--window", *map(str, window)]
            category["window"] = window
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({"category": category, "values": {}}))
        _, flag_out = run(capsys, *argv)
        _, file_out = run(capsys, "validate", "--input", str(f))
        by_flag, by_file = json.loads(flag_out), json.loads(file_out)
        assert by_flag["path"] == f"--{field}"
        assert by_file["path"] == f"/category/{field}"
        assert by_flag["error"].split(": ", 1)[1] == \
            by_file["error"].split(": ", 1)[1]

    def test_component_outside_the_quiver_is_refused(self, capsys, tmp_path):
        # a 0x0 component at 9@99 passed weq with exit 0
        doc = json.loads((FIXTURES / "counter.json").read_text())
        doc["components"]["9@99"] = {"rows": 0, "cols": 0, "entries": []}
        f = tmp_path / "phi.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, "weq", "--input", str(f))
        assert code == 1
        assert json.loads(out) == {
            "error": "/components/9@99: vertex outside the quiver",
            "path": "/components/9@99"}

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

    @pytest.mark.parametrize("value", ["-1", "65"])
    def test_oracle_max_len_out_of_range_is_refused(self, capsys, value):
        # -1 printed "ok": true after checking no degree at all, and there
        # was no upper bound
        start = time.perf_counter()
        code, out = run(capsys, "oracle", "--n", "3", "--max-len", value)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == "--max-len"

    @pytest.mark.parametrize("command,value", [
        ("homology", "65"), ("homology", "1000000000"), ("weq", "65")])
    def test_max_degree_above_the_cap_is_refused(self, capsys, rep_file,
                                                 command, value):
        # there was no upper bound, and the cost grows linearly: degree 400
        # took 0.3 s on double A_3, and degree 64 took 5 s on double A_32
        path = rep_file if command == "homology" else str(FIXTURES / "counter.json")
        start = time.perf_counter()
        code, out = run(capsys, command, "--input", path, "--max-degree", value)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out) == {"error": "--max-degree: must be at most 64",
                                   "path": "--max-degree"}

    @pytest.mark.parametrize("command", ["homology", "weq"])
    def test_max_degree_at_the_cap_is_accepted(self, capsys, rep_file, command):
        path = rep_file if command == "homology" else str(FIXTURES / "counter.json")
        start = time.perf_counter()
        code, out = run(capsys, command, "--input", path, "--max-degree", "64")
        assert time.perf_counter() - start < 5.0
        report = json.loads(out)
        assert code == 0
        if command == "homology":
            assert report["verdicts"]["max_degree"] == 64
        else:
            degrees = {int(k.rsplit(" ", 1)[1])
                       for k in report["tables"]["isomorphisms"]}
            assert degrees == set(range(1, 65))

    @pytest.mark.parametrize("value,path", [
        ({"rank": 10000}, "/values/1/rank"),
        ({"rank": 129}, "/values/1/rank"),
        ({"rank": 1, "relations": {"rows": 1, "cols": 129,
                                   "entries": ["0"] * 129}},
         "/values/1/relations"),
    ], ids=["rank 10000", "rank 129", "relations 1x129"])
    def test_rank_above_the_cap_is_refused(self, capsys, tmp_path, value, path):
        # one free value of rank 10,000 made validate run 87 s and peak at
        # 3.1 GB: the Smith form of its g x 0 relations built a g x g U
        f = tmp_path / "rep.json"
        f.write_text(json.dumps({
            "category": {"flavor": "double_an", "n": 2, "ring": "Z"},
            "values": {"1": value}}))
        start = time.perf_counter()
        code, out = run(capsys, "validate", "--input", str(f))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out)["path"] == path

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
        ("counter_X.json", "1@-9"), (None, "7"), (None, "")],
        ids=["not a vertex", "two @", "double id on repetitive",
             "outside the window", "resolution leaves the window",
             "outside double A_3", "empty"])
    def test_bad_vertex_is_exit_one_with_path(self, capsys, rep_file,
                                              fixture, vertex):
        # the first three ended in a traceback, the next three printed an
        # error without a path, and an empty one reported every vertex.
        # 1@-8, whose resolution leaves the window (-8, 10), is answered
        # now; 1@-9, one column past the window, is still refused as input
        path = rep_file if fixture is None else str(FIXTURES / fixture)
        code, out = run(capsys, "homology", "--input", path, "--vertex", vertex)
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == "--vertex"

    @pytest.mark.parametrize("vertex", ["1@-5", "2@-4", "2@6"])
    def test_refusal_past_level_one_keeps_the_kernel_text(self, capsys, vertex):
        # these were refused from level four on, which is copied from the
        # resolution at sigma(q); now they are answered, as on a window
        # wide enough for every resolution
        path = FIXTURES / "counter_X.json"
        code, out = run(capsys, "homology", "--input", str(path),
                        "--vertex", vertex, "--max-degree", "3")
        assert code == 0
        X = parse_representation(json.loads(path.read_text()))
        W = MeshCategory(build_repetitive_an(X.category.n, (-60, 60)), X.ring)
        want = homology_report(Representation(W, X.values, X.arrow_maps),
                               [parse_vertex(vertex)], 3)
        assert json.loads(out)["tables"] == want

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

    def test_oracle_max_len_zero_checks_degree_zero_only(self, capsys,
                                                         monkeypatch):
        # 0 used to fall back to the default path length 2n
        degrees = set()
        oracle = MeshCategory.hom_basis_oracle

        def recording(self, p, max_len=None):
            tables = oracle(self, p, max_len)
            degrees.update(l for table in tables.values() for l in table)
            return tables
        monkeypatch.setattr(MeshCategory, "hom_basis_oracle", recording)
        code, out = run(capsys, "oracle", "--n", "3", "--max-len", "0")
        assert code == 0
        assert json.loads(out)["verdicts"] == {"ok": True, "max_len": 0}
        assert degrees == {0}

    def test_oracle_mismatch_witnesses(self, capsys, monkeypatch):
        # a broken oracle that adds a rank, loses one, and finds a hom
        # outside hom_targets(p) is reported at each, whether its tables
        # hold the zero ranks or not
        oracle = MeshCategory.hom_basis_oracle

        def broken(self, p, max_len=None):
            tables = oracle(self, p, max_len)
            if p == (1, 0):
                tables[(2, 0)][1] += 1
                tables[(1, 0)][0] = 0
                tables.setdefault((1, 2), {})[3] = 1
            return tables
        monkeypatch.setattr(MeshCategory, "hom_basis_oracle", broken)
        code, out = run(capsys, "oracle", "--flavor", "repetitive_an",
                        "--n", "2", "--window", "-3", "3", "--max-len", "4")
        assert code == 2
        assert json.loads(out) == {
            "command": "oracle", "tables": {},
            "verdicts": {"ok": False, "max_len": 4},
            "witnesses": {"1@0->2@0@1": {"oracle": 2, "closed": 1},
                          "1@0->1@0@0": {"oracle": 0, "closed": 1},
                          "1@0->1@2@3": {"oracle": 1, "closed": 0}}}

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "32"],
        ["oracle", "--flavor", "repetitive_an", "--n", "5"],
    ], ids=["n=32", "repetitive n=5"])
    def test_oracle_within_budget(self, capsys, argv):
        # path enumeration grew about tenfold per step in n: the repetitive
        # case took 16 s and n = 32 did not finish
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True

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

    @pytest.mark.parametrize("argv", [
        ["serre-check", "--flavor", "repetitive_an", "--n", "16"],
        ["build", "--flavor", "repetitive_an", "--n", "12"],
        ["build", "--flavor", "repetitive_an", "--n", "8", "--window", "-64",
         "64"],
        ["dims", "--flavor", "repetitive_an", "--n", "24"],
        ["oracle", "--flavor", "repetitive_an", "--n", "16"],
    ], ids=["serre-check n=16", "build n=12", "build n=8 window (-64, 64)",
            "dims n=24", "oracle n=16"])
    def test_repetitive_scans_within_budget(self, capsys, argv):
        # these scans used to ask hom_basis about every vertex pair of the
        # default window (1,040 to 2,328 vertices) and cache each answer; on
        # a 2-vCPU Intel Xeon they took 26, 18 and 15 s, now 2 to 4 s.  CPU
        # time, because wall time read up to 5.6 s on a busy host
        start = time.process_time()
        code, out = run(capsys, *argv)
        assert time.process_time() - start < 5.0
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True

    def test_validate_dense_integer_relations_within_budget(self, capsys, tmp_path):
        # one rank-12 value on double A_2 over Z whose relations are a seeded
        # dense 12x12 with entries in [-9, 9]: the normal form and the mesh
        # check at vertex 1 used to build both Smith transforms, and the
        # zero mesh total went through a full solve (~18 s of CPU on a
        # 2-vCPU Intel Xeon), then ~3 s for the normal form alone; now no
        # elimination at all, ~0.01 s
        path, _ = dense_value(tmp_path, 12)
        start = time.process_time()
        code, out = run(capsys, "validate", "--input", str(path))
        assert time.process_time() - start < 10.0
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True

    def test_validate_dense_value_eliminates_nothing(self, capsys, tmp_path,
                                                    monkeypatch):
        # the rank-12 file above: every arrow and mesh total is zero, so
        # validation needs no normal form, and building X takes none (the
        # value's took 2.4 s of CPU when X's support was read at build time)
        path, _ = dense_value(tmp_path, 12)
        calls = counting_smith(monkeypatch)
        code, out = run(capsys, "validate", "--input", str(path))
        assert code == 0 and json.loads(out)["verdicts"]["ok"] is True
        assert calls == []

    def test_classify_eliminates_a_dense_value_at_most_twice(self, capsys,
                                                             tmp_path, monkeypatch):
        # one rank-6 value on double A_2 over Z with seeded dense relations in
        # [-9, 9]: its normal form, read for the support, is the one
        # elimination (test_dense_value_is_eliminated_once).  H_0 at vertex
        # 1, and mesh homology at vertex 2, whose value has no generators,
        # are the value's pruned model, which inherits that normal form.
        # With the values as drawn the same 6x6 was eliminated three times
        path, entries = dense_rank_six(tmp_path)
        calls = counting_smith(monkeypatch)
        code, out = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["witnesses"]["nonvanishing_mesh_homology"] == \
            [["2", "Z/1239011"]]
        assert calls[0] == (6, 6, tuple(int(x) for x in entries))
        assert len(calls) <= 2

    @pytest.mark.parametrize("command", ["classify", "homology"])
    def test_dense_value_is_eliminated_once(self, capsys, tmp_path, monkeypatch,
                                            command):
        # the rank-6 file above: one normal form is the only elimination.
        # classify reads the support, so it is the value's own; homology
        # reads none, so it is that of H_0 at vertex 1, the value's pruned
        # 5x5, when the report describes it.  A complex whose middle term,
        # X(2), has no generators is 0 with no elimination, whatever its
        # third term
        path, entries = dense_rank_six(tmp_path)
        relations = Matrix(ZZ, 6, 6, [int(x) for x in entries])
        if command == "homology":
            relations = PresentedModule(ZZ, 6, relations).pruned()[0].relations
        calls = counting_smith(monkeypatch)
        code, _ = run(capsys, command, "--input", str(path))
        assert code == 0
        assert calls == [(relations.rows, relations.cols, relations.entries)]
        assert (relations.rows, relations.cols) == \
            {"classify": (6, 6), "homology": (5, 5)}[command]

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
        # the interior vertices whose resolutions left the window, 1@-8
        # among them, were listed as "skipped"; now each one is answered,
        # and so is every vertex of the window's last column
        path = (FIXTURES / "counter_X.json").as_posix()
        code, out = run(capsys, "homology", "--input", path)
        assert code == 0
        tables = json.loads(out)["tables"]
        assert "skipped" not in tables
        X = parse_representation(json.loads(Path(path).read_text()))
        listed = {format_vertex(q) for q in X.category.vertices}
        assert set(tables["mesh"]) == listed
        assert {k.split(" at ")[1] for k in tables["H_"]} == listed
        assert "1@-8" in listed
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

    @pytest.mark.parametrize("value", ["0", "-3", str(MAX_RANDOM + 1)])
    def test_demo_chain_complex_random_out_of_range_is_refused(self, capsys, value):
        # -3 exited 2 as a failed verification ("matches": "0/-3"), and
        # there was no upper bound
        code, out = run(capsys, "demo", "chain-complex", "--random", value)
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"error", "path"}
        assert report["path"] == "--random"

    def test_demo_chain_complex_one_draw_is_accepted(self, capsys):
        code, out = run(capsys, "demo", "chain-complex", "--random", "1")
        assert code == 0 and json.loads(out)["verdicts"]["matches"] == "1/1"

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


class TestParserBuiltOnce:
    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse ends a bad flag here
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, rep_file):
        calls = [("dims", "--n", "3"),
                 ("homology", "--input", rep_file, "--vertex", "2"),
                 ("dims", "--n", "3", "--no-such-flag"),
                 ("dims", "--n", "3")]
        warm = [self.outcome(capsys, argv) for argv in calls]
        assert build_parser() is build_parser()
        assert [code for code, _, _ in warm] == [0, 0, 1, 0]
        assert warm[0] == warm[3]
        for argv, got in zip(calls, warm):
            build_parser.cache_clear()
            assert self.outcome(capsys, argv) == got, argv

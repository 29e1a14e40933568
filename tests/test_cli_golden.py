"""Golden stdout of the homological commands of ``qshape``.

``tests/data/cli_golden.json`` pins the exit code and the exact stdout of
``validate``, ``classify``, ``homology`` and ``weq`` and of both demos.
Inputs are the shipped fixtures, the fixture morphism rebuilt over every
ring, and seeded ``random_representation`` draws (with ``3·1_X`` as the
morphism for ``weq``) on double A_2..A_4 and on repetitive A_2 (-4, 4)
and A_3 (-3, 3), over Z, Q, Z/3 and Z/9.  Each case stores its input
file, so the table does not depend on the samplers.  The table was
recorded while mesh homology and the corner functors still had routes of
their own beside the stalk complexes, so it checks that reading them off
the stalk complexes prints what those routes printed.  Rebuild it with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json

only for a change that is meant to alter the output.
"""

import contextlib
import io
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from qshape import MeshCategory, Matrix, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.cli import main
from qshape.fixtures import counter_morphism
from qshape.io import representation_json
from qshape.quiver import format_vertex
from qshape.repmod import RepMorphism, random_representation

from samplers import morphism_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
RINGS = {"Z": ZZ, "Q": QQ, "mod:3": Zmod(3), "mod:9": Zmod(9)}
DRAWS = 2


def categories(ring):
    cats = {f"double A_{n}": MeshCategory(build_double_an(n), ring)
            for n in (2, 3, 4)}
    cats["repetitive A_2 (-4, 4)"] = MeshCategory(build_repetitive_an(2, (-4, 4)), ring)
    cats["repetitive A_3 (-3, 3)"] = MeshCategory(build_repetitive_an(3, (-3, 3)), ring)
    return cats


def scaled_identity(X, c) -> RepMorphism:
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators).scale(c)
                              for v, m in X.values.items()})


def object_cases(label, data, vertices) -> dict:
    """Cases on one representation file: validate, classify, and homology
    on both sides and on one side, over every vertex and at the given ones."""
    cases = {f"{label} validate": (["validate"], data),
             f"{label} classify": (["classify"], data),
             f"{label} homology": (["homology", "--max-degree", "3"], data)}
    for v in vertices:
        cases[f"{label} homology at {v}"] = (
            ["homology", "--max-degree", "3", "--vertex", v], data)
        for side, degree in (("cn", "1"), ("co", "0")):
            cases[f"{label} homology --side {side} at {v}"] = (
                ["homology", "--side", side, "--max-degree", degree,
                 "--vertex", v], data)
    return cases


def build_cases() -> dict:
    """{case: (argv without --input, input data or None)}."""
    cases = {}
    for name in ("counter_X", "counter"):
        data = json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
        if name == "counter":
            for degree in ("2", "3"):
                cases[f"fixture counter weq {degree}"] = (
                    ["weq", "--max-degree", degree], data)
        else:
            cases |= object_cases("fixture counter_X", data, ["2@0", "1@-1"])
            cases["fixture counter_X classify table"] = (
                ["classify", "--format", "table"], data)
    for ring_name, ring in RINGS.items():
        X, _, phi = counter_morphism(ring)
        cases |= object_cases(f"counter X {ring_name}", representation_json(X),
                              ["2@0"])
        cases[f"counter phi {ring_name} weq"] = (["weq"], morphism_json(phi))
        for what in ("counterexample", "chain-complex"):
            cases[f"demo {what} {ring_name}"] = (
                ["demo", what, "--ring", ring_name, "--random", "12",
                 "--seed", "5"], None)
        for cat_name, C in categories(ring).items():
            rng = random.Random(f"cli_golden:{ring_name}:{cat_name}")
            interior = C.quiver.interior_vertices()
            for draw in range(DRAWS):
                X = random_representation(C, rng)
                label = f"{ring_name} {cat_name} draw {draw}"
                picks = [format_vertex(rng.choice(interior)),
                         format_vertex(C.vertices[0])]
                cases |= object_cases(label, representation_json(X), picks)
                cases[f"{label} weq 3"] = (
                    ["weq", "--max-degree", "3"],
                    morphism_json(scaled_identity(X, 3)))
    return cases


def run(argv, data, tmp: Path) -> list:
    """[exit code, stdout] of one qshape call, the input written to tmp."""
    if data is not None:
        tmp.write_text(json.dumps(data))
        argv = [*argv, "--input", str(tmp)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


@cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_records_every_case_it_builds():
    # the cases below run only what the file records, so a case added to
    # build_cases() and never recorded would go untested; equal argv and
    # input also show that re-recording the file changed outputs only
    built = {case: {"argv": argv, "input": json.loads(json.dumps(data))}
             for case, (argv, data) in build_cases().items()}
    recorded = {case: {"argv": entry["argv"], "input": entry["input"]}
                for case, entry in golden().items()}
    assert built == recorded


@pytest.mark.parametrize("case", sorted(golden()) if GOLDEN.exists() else [])
def test_stdout_matches_the_golden_text(case, tmp_path):
    entry = golden()[case]
    assert run(entry["argv"], entry["input"], tmp_path / "input.json") \
        == entry["result"], case


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d) / "input.json"
        table = {case: {"argv": argv, "input": data,
                        "result": run(argv, data, tmp)}
                 for case, (argv, data) in build_cases().items()}
    lines = [f" {json.dumps(case)}: {json.dumps(table[case], sort_keys=True)}"
             for case in sorted(table)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")

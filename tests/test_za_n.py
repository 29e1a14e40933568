"""Answers on ZA_n: a representation on a repetitive window is the one on
ZA_n that is zero off it, so every answer is the one read on a window
wide enough to hold all the homology.

A narrow window used to refuse vertices whose stalk resolutions left it,
and its probes stopped at its edge, so verdicts could miss homology just
outside it.  These tests draw on narrow windows and compare with the same
values carried to the window (-60, 60), where nothing reaches the edge.
"""

import json
import random

import pytest

from qshape import (Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod,
                    build_repetitive_an)
from qshape.cli import main
from qshape.homology import (SIDE_CN, SIDE_CO, classify_object,
                             derived_homology, homology_report,
                             is_weak_equivalence, zero_test)
from qshape.io import dumps, representation_json
from qshape.repmod import (Representation, RepMorphism, free_at,
                           random_representation, stalk_rep,
                           validate_representation)

from samplers import morphism_json

RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
SHAPES = ((2, (-3, 3)), (3, (-4, 4)), (2, (-6, 6)), (4, (-6, 6)))
WIDE = (-60, 60)
SEEDS = range(4)


def draw(n, window, ring, seed):
    """X from seed on the window, and the same values on WIDE."""
    C = MeshCategory(build_repetitive_an(n, window), ring)
    X = random_representation(C, random.Random(seed), summands=3)
    W = MeshCategory(build_repetitive_an(n, WIDE), ring)
    return X, Representation(W, X.values, X.arrow_maps)


def tripled(X):
    """3 · 1_X."""
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators).scale(3)
                              for v, m in X.values.items()})


def answers(X, near):
    """classify, weq(3 · 1_X), and H_0..H_2 / H^0..H^2 at the vertices
    near, as normal forms."""
    out = {"classify": classify_object(X).describe(),
           "weq": is_weak_equivalence(tripled(X), 2)}
    for q in near:
        for side in (SIDE_CN, SIDE_CO):
            H = derived_homology(X, q, side, 2)
            out[(side, q)] = [H[i].normal_form() for i in range(3)]
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_narrow_windows_answer_as_the_wide_one(ring):
    # every vertex within 3n columns of the support, both sides; the
    # window used to refuse most of them near its edge
    compared = off_window = 0
    for n, window in SHAPES:
        for seed in SEEDS:
            X, Y = draw(n, window, ring, seed)
            cols = [v[1] for v in X.support]
            near = [(row, col) for col in range(min(cols) - 3 * n, max(cols) + 3 * n + 1)
                    for row in range(1, n + 1)]
            assert answers(X, near) == answers(Y, near), (n, window, seed)
            compared += 1
            off_window += sum(not X.category.quiver.has_vertex(q) for q in near)
    assert compared == len(SHAPES) * len(SEEDS)
    assert off_window > 100


def run(capsys, tmp_path, command, doc):
    f = tmp_path / "input.json"
    f.write_text(dumps(doc))
    code = main([command, "--input", str(f)])
    return code, json.loads(capsys.readouterr().out)


def test_classify_sees_homology_below_the_window(capsys, tmp_path):
    # seed 7 on repetitive A_2 (-3, 3) over Z: mesh homology Z at 1@-4,
    # one column below the window; classify said is_exact: true
    X, Y = draw(2, (-3, 3), ZZ, 7)
    code, report = run(capsys, tmp_path, "classify", representation_json(X))
    assert code == 0
    assert report["verdicts"]["is_exact"] is False
    assert report["verdicts"]["is_projective"] is False
    assert classify_object(Y).is_exact is False
    assert ["1@-4", "Z"] in report["witnesses"]["nonvanishing_mesh_homology"]


def test_weq_sees_homology_below_the_window(capsys, tmp_path):
    # 3 · 1_X for seed 7 on repetitive A_2 (-6, 6) over Z: H_1 at 1@-7 and
    # H_2 at 2@-7 are not isomorphisms; weq said is_weak_equivalence: true
    X, Y = draw(2, (-6, 6), ZZ, 7)
    code, report = run(capsys, tmp_path, "weq", morphism_json(tripled(X)))
    assert code == 0
    assert report["verdicts"]["is_weak_equivalence"] is False
    table = report["tables"]["isomorphisms"]
    assert table["1@-7 degree 1"] is False and table["2@-7 degree 2"] is False
    assert is_weak_equivalence(tripled(Y))["iso_table"][("1@-7", 1)] is False


def test_a_value_in_the_last_column_validates(capsys, tmp_path):
    # the last column's meshes reach column 4, off the window, where X is
    # zero; this file used to exit 2 with support_ok: false
    doc = {"category": {"flavor": "repetitive_an", "n": 2, "ring": "Z",
                        "window": [-3, 3]},
           "values": {"1@3": {"rank": 1}}}
    code, report = run(capsys, tmp_path, "validate", doc)
    assert (code, report["verdicts"]["ok"]) == (0, True)
    code, report = run(capsys, tmp_path, "classify", doc)
    assert code == 0


def test_homology_lists_the_last_column(capsys, tmp_path):
    # homology without --vertex lists every vertex of the window; it listed
    # only the interior ones, and missed H_0 = H^0 = Z at 1@3 and the mesh
    # homology Z at 2@3
    doc = {"category": {"flavor": "repetitive_an", "n": 2, "ring": "Z",
                        "window": [-3, 3]},
           "values": {"1@3": {"rank": 1}}}
    code, report = run(capsys, tmp_path, "homology", doc)
    assert code == 0
    tables = report["tables"]
    assert len(tables["mesh"]) == 14
    assert {t: {k: v for k, v in table.items() if v != "0"}
            for t, table in tables.items()} == {
        "mesh": {"2@3": "Z"}, "H^": {"0 at 1@3": "Z"},
        "H_": {"0 at 1@3": "Z", "1 at 2@3": "Z", "2 at 1@2": "Z"}}


def last_column_answers(X, probes):
    return (classify_object(X).describe(), zero_test(X),
            homology_report(X, probes, 3))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_last_column_values_answer_as_one_column_wider(ring):
    """free_at and stalk_rep at every vertex of the last column of (-3, 3)
    validate, and answer as the same values on (-3, 4), where that column
    is interior: probes from 3(n-1) columns below the support to one
    column above it, degrees 0-3."""
    modules = [PresentedModule.free(ring, 1)]
    if ring == ZZ:
        modules.append(PresentedModule(ZZ, 1, Matrix(ZZ, 1, 1, [3])))
    cases = 0
    for n in (2, 3, 4):
        C = MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
        W = MeshCategory(build_repetitive_an(n, (-3, 4)), ring)
        for q in ((row, 3) for row in range(1, n + 1)):
            assert not C.is_interior(q) and W.is_interior(q)
            for make in (free_at, stalk_rep):
                for M in modules:
                    X = make(C, q, M)
                    Y = Representation(W, X.values, X.arrow_maps)
                    assert validate_representation(X).ok
                    assert validate_representation(Y).ok
                    cols = [v[1] for v in X.support]
                    probes = [(row, col)
                              for col in range(min(cols) - 3 * (n - 1), max(cols) + 2)
                              for row in range(1, n + 1)]
                    assert last_column_answers(X, probes) == \
                        last_column_answers(Y, probes), (n, q, make, M)
                    cases += 1
    assert cases == 9 * 2 * len(modules)

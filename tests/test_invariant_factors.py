"""Yes/no questions read invariant factors, with no Smith transform.

``invariant_factors(M)`` is the nonzero diagonal of the Smith form with
a unit read as 1: one 1 per pivot over a field, ``_smith`` with neither
transform over Z and Z/p^k.  ``PresentedModule.vanishes`` compares the
normal form of ``[relations | vectors]`` with the module's own, since
the module maps onto that quotient and a surjection between modules of
one normal form is injective.  Both are checked here against the
transform-building routines they replaced, on seeded matrices over Z, Q,
F_3, Z/4 and Z/9, and the readers are shown to call neither
``solve_matrix`` nor ``smith_normal_form``, in the library and through
``qshape validate``.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from qshape import MeshCategory, build_double_an
from qshape.cli import main
from qshape.exactalg import (Matrix, PresentedModule, QQ, ZZ, Zmod, field_rank,
                             invariant_factors, smith_normal_form, solve_matrix)
from qshape.exactalg import smith
from qshape.io import dumps, representation_json
from qshape.repmod import random_representation

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
DRAWS = 120


def draw_entry(rng, ring):
    if ring.modulus:
        return rng.randrange(ring.modulus)
    if ring.is_field:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randint(-6, 6)


def draw_matrix(rng, ring, rows, cols, density=1.0):
    return Matrix(ring, rows, cols, [draw_entry(rng, ring) if rng.random() < density
                                     else 0 for _ in range(rows * cols)])


def cases(ring, seed):
    """(relations, vectors): seeded shapes 0-5 x 0-5 with 0-3 vectors, each
    either a random matrix or a combination of the relations, and a
    module with no generators and relations with no columns among them."""
    rng = random.Random(f"{seed} {ring!r}")
    yield Matrix.zeros(ring, 0, 2), Matrix.zeros(ring, 0, 3)
    yield Matrix.zeros(ring, 3, 0), draw_matrix(rng, ring, 3, 2)
    yield Matrix.zeros(ring, 3, 0), Matrix.zeros(ring, 3, 2)
    for _ in range(DRAWS):
        g, r, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
        rel = draw_matrix(rng, ring, g, r, rng.choice((0.3, 1.0)))
        if rng.random() < 0.5:
            vectors = rel * draw_matrix(rng, ring, r, k)
        else:
            vectors = draw_matrix(rng, ring, g, k, rng.choice((0.3, 1.0)))
        yield rel, vectors


def forbid(monkeypatch, *functions):
    """Make each function raise under every name a qshape module holds it."""
    for f in functions:
        def refused(*args, _name=f.__name__, **kwargs):
            raise AssertionError(f"{_name} was called")
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "qshape" or name.startswith("qshape.")):
                for attr, value in list(vars(module).items()):
                    if value is f:
                        monkeypatch.setattr(module, attr, refused)


def counting_smith(monkeypatch) -> list:
    calls = []
    original = smith._smith

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(smith, "_smith", counting)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_vanishes_agrees_with_solving(ring):
    outcomes = set()
    for rel, vectors in cases(ring, "vanishes"):
        module = PresentedModule(ring, rel.rows, rel)
        expected = solve_matrix(rel, vectors) is not None
        assert module.vanishes(vectors) == expected, (rel, vectors)
        if not vectors.is_zero:
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_invariant_factors_are_the_nonzero_diagonal(ring):
    for M, _ in cases(ring, "invariant factors"):
        factors = invariant_factors(M)
        if ring.is_field:
            assert factors == [1] * field_rank(M), M
        if ring != QQ:  # Smith forms are for Z and Z/p^k
            S, _, _ = smith_normal_form(M)
            diagonal = [S[i, i] for i in range(min(M.rows, M.cols))]
            assert factors == [d for d in diagonal if d], M


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_vanishes_builds_no_transform(ring, monkeypatch):
    forbid(monkeypatch, solve_matrix, smith_normal_form)
    calls = counting_smith(monkeypatch)
    outcomes = set()
    for rel, vectors in cases(ring, "no transform"):
        outcomes.add(PresentedModule(ring, rel.rows, rel).vanishes(vectors))
    assert outcomes == {True, False}
    assert all(kwargs == {"u": False, "v": False} for kwargs in calls)
    assert bool(calls) == (not ring.is_field)


def test_validate_with_relations_builds_no_transform(capsys, tmp_path, monkeypatch):
    # a cokernel of a map between sums of representables over Z: every
    # value has relations, and every arrow carries them into the next
    C = MeshCategory(build_double_an(4), ZZ)
    X = random_representation(C, random.Random(4), summands=3)
    assert all(value.relations.cols for value in X.values.values())
    path = tmp_path / "rep.json"
    path.write_text(dumps(representation_json(X)))
    forbid(monkeypatch, solve_matrix, smith_normal_form)
    calls = counting_smith(monkeypatch)
    code = main(["validate", "--input", str(path)])
    assert code == 0 and json.loads(capsys.readouterr().out)["verdicts"]["ok"]
    assert calls and all(kwargs == {"u": False, "v": False} for kwargs in calls)

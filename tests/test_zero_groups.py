"""Zero groups read off the closed-form level vertices, before any
resolution is built.

homology._zero_group decides that the group at a route key (v, side, j)
is 0 when no summand vertex of level j carries a generator on X's pruned
model, reading those vertices in closed form (homology._level_vertices).
These tests check the closed form against resolve_stalk's terms, then run
is_weak_equivalence and classify_object on seeded draws over every ring
kind and both flavors against the same calls with the rule switched off,
and bound what weak equivalence builds on the counterexample.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape import homology
from qshape.fixtures import counter_morphism
from qshape.homology import (SIDE_CN, SIDE_CO, _level_vertices,
                             classify_object, homology_probe_vertices,
                             is_weak_equivalence, resolve_stalk)
from qshape.repmod import (RepMorphism, Representation, kernel_of_morphism,
                           random_representation)

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
SIDES = (SIDE_CN, SIDE_CO)


def test_closed_form_level_vertices_are_the_resolutions():
    # every vertex of double A_2..A_6, and of repetitive A_2..A_4 from
    # 3(n - 1) columns below the window to as many above it
    cats = ([MeshCategory(build_double_an(n), QQ) for n in range(2, 7)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), QQ)
               for n in range(2, 5)])
    compared = past = 0
    for C in cats:
        reach = 3 * (C.n - 1)
        for v in homology_probe_vertices(C, C.vertices, reach, reach):
            past += not C.quiver.has_vertex(v)
            for side in SIDES:
                terms = resolve_stalk(C, v, side, 3).terms
                for j in range(4):
                    assert set(_level_vertices(C, v, side, j)) == set(terms[j]), \
                        (C.quiver, v, side, j)
                    compared += 1
    assert past > 0
    assert compared == 8 * sum(len(homology_probe_vertices(
        C, C.vertices, 3 * (C.n - 1), 3 * (C.n - 1))) for C in cats)


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
               for n in (2, 3)])


def fresh(X) -> Representation:
    """The same values and arrow maps, with nothing kept."""
    return Representation(X.category, X.values, X.arrow_maps)


def scaled(X, c) -> RepMorphism:
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators).scale(c)
                              for v, m in X.values.items()})


def morphisms(X):
    """2·1_X, the zero endomorphism, the inclusion of the kernel of 3·1_X,
    and the map into X from the zero object, whose groups all vanish."""
    K, incl = kernel_of_morphism(scaled(X, 3))
    zero = Representation(X.category, {}, {})
    return [scaled(X, 2), RepMorphism(X, X, {}), RepMorphism(K, X, incl),
            RepMorphism(zero, X, {})]


def draws(ring):
    """Three seeded draws per category, then the counterexample's X."""
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"zero groups:{ring!r}:{k}")
        for _ in range(3):
            yield random_representation(C, rng)
    yield counter_morphism(ring)[0]


def decisions(X):
    out = [classify_object(X).describe()]
    for phi in morphisms(X):
        for depth in (2, 3):
            out.append(is_weak_equivalence(phi, depth))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_zero_rule_matches_the_complexes(ring, monkeypatch):
    fired = {True: 0, False: 0}
    original = homology._zero_group

    def counting(X, route):
        group = original(X, route)
        fired[group is not None] += 1
        return group

    verdicts = set()
    mismatches = []
    for X in draws(ring):
        with monkeypatch.context() as m:
            m.setattr(homology, "_zero_group", counting)
            got = decisions(fresh(X))
        with monkeypatch.context() as m:
            m.setattr(homology, "_zero_group", lambda X, route: None)
            want = decisions(fresh(X))
        verdicts.update(r["is_weak_equivalence"] for r in got[1:])
        if got != want:
            mismatches.append((X.category.quiver, X.values))
    assert not mismatches
    # both empty and live keys, and both verdicts, on every ring
    assert fired[True] and fired[False]
    assert verdicts == {True, False}


def test_weak_equivalence_builds_only_live_complexes(monkeypatch):
    # depth 64 on the counterexample: 12 middle_homology calls, and at
    # most 18 complexes and 9 resolutions (1,824 and 522 when every probe
    # built the complex of its route vertex)
    complexes, calls = [], []
    build, middle = homology._complex_from_resolution, homology.middle_homology

    def counting_build(res, X, levels):
        complexes.append(res.vertex)
        return build(res, X, levels)

    def counting_middle(f, g):
        calls.append(g)
        return middle(f, g)
    monkeypatch.setattr(homology, "_complex_from_resolution", counting_build)
    monkeypatch.setattr(homology, "middle_homology", counting_middle)
    X, Y, phi = counter_morphism(QQ)
    assert not is_weak_equivalence(phi, 64)["is_weak_equivalence"]
    assert len(calls) == 12
    assert len(complexes) <= 18
    assert len(X.category._resolution_cache) <= 9

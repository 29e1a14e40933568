"""Weak equivalence read through the periodicity of the stalk resolutions.

Levels 4 and up of the side-cn stalk resolution at q are the resolution
at σ(q) (Ω³S_q ≅ S_σ(q)), so H_i(φ) at q is H_{i-3}(φ) at σ(q) for
i >= 4, and depth 3 decides every degree.  Checked on c·1_X (c = 2, 3)
for seeded ``random_representation`` draws over Z, Q, F_3 and Z/9 on
double A_2..A_4 and on repetitive A_2 (-4, 4) and A_3 (-3, 3): the
depth-6 table repeats its degrees 1..3 three degrees up, one Serre step
along, and the depth-3 and depth-6 verdicts agree.  On repetitive A_2,
where representations are chain complexes, weak equivalence at depth 3
is quasi-isomorphism: c·1_X is one exactly when c acts invertibly on
every homology group of the complex.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.exactalg import ModuleMap
from qshape.homology import SIDE_CN, _cn_probes, _sigma, is_weak_equivalence
from qshape.quiver import format_vertex
from qshape.repmod import (RepMorphism, complex_to_rep, random_complex,
                           random_representation)

RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
DRAWS = 2
COMPLEXES = 50


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4)]
            + [MeshCategory(build_repetitive_an(2, (-4, 4)), ring),
               MeshCategory(build_repetitive_an(3, (-3, 3)), ring)])


def scaled(X, c) -> RepMorphism:
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators).scale(c)
                              for v, m in X.values.items()})


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_degrees_past_three_repeat_one_serre_step_along(ring):
    compared = not_iso = 0
    mismatches = []
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"periodicity:{ring!r}:{k}")
        for draw in range(DRAWS):
            X = random_representation(C, rng)
            for c in (2, 3):
                phi = scaled(X, c)
                deep = is_weak_equivalence(phi, 6)
                table = deep["iso_table"]
                for q in _cn_probes(X, X, 6):
                    for i in range(4, 7):
                        step = format_vertex(_sigma(C, q, SIDE_CN, 1))
                        there = table.get((step, i - 3))
                        if there is None:
                            continue
                        here = table[(format_vertex(q), i)]
                        compared += 1
                        not_iso += not here
                        if here != there:
                            mismatches.append((k, draw, c, format_vertex(q), i))
                assert deep["is_weak_equivalence"] == \
                    is_weak_equivalence(phi, 3)["is_weak_equivalence"]
    assert not mismatches
    # over Q both scalars are units, so every entry is an isomorphism
    assert compared and bool(not_iso) == (ring != QQ)


def acts_invertibly(c, H) -> bool:
    return ModuleMap(H, H, Matrix.identity(H.ring, H.generators).scale(c)
                     ).is_isomorphism()


@pytest.mark.parametrize("ring", (ZZ, Zmod(9)), ids=repr)
def test_weak_equivalence_of_complexes_is_quasi_isomorphism(ring):
    C = MeshCategory(build_repetitive_an(2, (-10, 10)), ring)
    rng = random.Random(f"quasi-isomorphism:{ring!r}")
    verdicts = []
    for _ in range(COMPLEXES):
        cx = random_complex(ring, rng)
        c = rng.choice((1, -1, 2, 3))
        quasi_iso = all(acts_invertibly(c, cx.homology(k)) for k in cx.degrees())
        weq = is_weak_equivalence(scaled(complex_to_rep(C, cx), c), 3)
        assert weq["is_weak_equivalence"] == quasi_iso, (c, cx)
        verdicts.append(quasi_iso)
    assert any(verdicts) and not all(verdicts)

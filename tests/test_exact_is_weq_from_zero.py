"""Exactness and weak equivalence read the same functors.

X is trivial exactly when 0 -> X is a weak equivalence, so
``classify_object(X).homology_vanishes`` (mesh homology, H_1 at every
probe) must equal ``is_weak_equivalence(0 -> X, 3)`` (H_1..H_3, which
decide every degree by periodicity).  Each verdict is read on its own
copy of X, so neither reads a group the other kept.

The objects are seeded ``random_representation`` draws and the free,
cofree and stalk representations of R (of R/(p) over Z/p^k) at interior
vertices, over every ring kind, on double A_2..A_4 and on repetitive
A_2 and A_3 on (-3, 3).  This pins the agreement; which of the two
verdicts is theorem-backed over Z/p^k is a separate question.
"""

import random

import pytest

from qshape import QQ, ZZ, Zmod, Matrix, MeshCategory, PresentedModule, \
    build_double_an, build_repetitive_an
from qshape.homology import classify_object, is_weak_equivalence
from qshape.repmod import (Representation, cofree_at, free_at,
                           random_representation, stalk_rep)

from samplers import zero_morphism

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
QUIVERS = {"double A_2": lambda: build_double_an(2),
           "double A_3": lambda: build_double_an(3),
           "double A_4": lambda: build_double_an(4),
           "repetitive A_2": lambda: build_repetitive_an(2, (-3, 3)),
           "repetitive A_3": lambda: build_repetitive_an(3, (-3, 3))}
DRAWS = 15
VERTICES = 4


def builders(C):
    """(label, function building a fresh copy of the object) per object."""
    ring = C.ring
    out = [(f"draw {k}", lambda k=k: random_representation(
        C, random.Random(f"exact-weq:{ring!r}:{C.quiver.spec_json()}:{k}")))
        for k in range(DRAWS)]
    value = (PresentedModule(ring, 1, Matrix(ring, 1, 1, [ring.prime]))
             if ring.is_modular and not ring.is_field
             else PresentedModule.free(ring, 1))
    verts = C.quiver.interior_vertices()
    step = max(1, len(verts) // VERTICES)
    for q in verts[::step][:VERTICES]:
        for make in (free_at, cofree_at, stalk_rep):
            out.append((f"{make.__name__} {q}",
                        lambda make=make, q=q: make(C, q, value)))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("quiver", QUIVERS)
def test_exactness_is_weak_equivalence_from_zero(ring, quiver):
    C = MeshCategory(QUIVERS[quiver](), ring)
    zero = Representation(C, {}, {})
    verdicts = set()
    for label, build in builders(C):
        exact = classify_object(build()).homology_vanishes
        weq = is_weak_equivalence(zero_morphism(zero, build()), 3)
        assert exact == weq["is_weak_equivalence"], label
        verdicts.add(exact)
    assert verdicts == {True, False}

"""Side co's complexes of degrees 1-3 are side cn's at a twin vertex.

Both sides are segments of one periodic resolution (Ω³S_q ≅ S_σ(q)),
and with side co's -1 on its second level-1 arrow the segments agree
entry by entry: degree 1 at v is side cn's degree 1 at μ(v), and
degrees 2 and 3 are side cn's degrees 3 and 2 at σ(μ(v)), the kept key
that homology._route gives.
For seeded draws over every ring kind, at every probe, these tests
compare each side-co complex of degree 1-3 with its twin's, everything
middle_homology reads, and the summands of its terms, and check that
both sides read one kept group.
"""

import random

import pytest

from qshape import MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.homology import (SIDE_CN, SIDE_CO, _complex_from_resolution,
                             _route, derived_homology_data,
                             homology_probe_vertices, resolve_stalk)
from qshape.repmod import random_representation

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
# (complexes compared, of which some term has generators) per ring
CASES = {"ZZ": (1638, 571), "QQ": (1647, 538), "Zmod(3)": (1323, 431),
         "Zmod(4)": (1596, 540), "Zmod(9)": (1551, 526)}


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
               for n in (2, 3, 4)])


def probes(X):
    """Every vertex on the double flavor; on ZA_n, from 3(n - 1) columns
    below the support to 3 above it, past the window on both sides."""
    C = X.category
    return homology_probe_vertices(C, X.support, 3 * (C.n - 1), 3)


def complex_content(X, key):
    """(f, g, rel_B, rel_C) of the complex at a key (v, side, j), everything
    middle_homology reads, then the summand vertices of its three terms,
    which the induced maps read."""
    v, side, j = key
    res = resolve_stalk(X.category, v, side, j + 1)
    eng = res._engine
    _, maps = _complex_from_resolution(res, X, j + 2)
    f, g = eng.ends(maps[j], maps[j + 1])
    a, c = eng.ends(res.terms[j - 1], res.terms[j + 1])
    return (f.matrix, g.matrix, f.target.relations, g.target.relations,
            a, res.terms[j], c)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_side_co_complexes_are_their_twins(ring):
    compared = with_generators = 0
    mismatches = []
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"twin:{ring!r}:{k}")
        for X in (random_representation(C, rng) for _ in range(4)):
            for q in probes(X):
                for j in (1, 2, 3):
                    twin = _route(C, q, SIDE_CO, j)[1]
                    w, side, i = twin
                    assert side == SIDE_CN and i == (1 if j == 1 else 5 - j)
                    content = complex_content(X, (q, SIDE_CO, j))
                    compared += 1
                    with_generators += any(m.rows or m.cols for m in content[:4])
                    if content != complex_content(X, twin):
                        mismatches.append((C.quiver, q, j))
                    co = derived_homology_data(X, q, SIDE_CO, (j,))[j]
                    assert derived_homology_data(X, w, SIDE_CN, (i,))[i] is co
            assert all(side == SIDE_CN or j == 0 for _, side, j in X._homology)
    assert not mismatches
    assert (compared, with_generators) == CASES[repr(ring)]

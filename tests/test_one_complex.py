"""Corner functors and mesh homology read off the stalk complexes, against
the routes they replaced (kept in oracles.py).

At each vertex q, the kernel corner K_q = H^0 and the cokernel corner
C_q = H_0 are compared with the first power of the radical filtration
read off every radical basis element at q; mesh homology, H_1 on side cn,
with the middle homology of the mesh complex; and ``mesh_homology_map``
with the map a morphism induces on the mesh complexes, by its
isomorphism verdict and the normal forms of its kernel and cokernel.
Inputs are seeded ``random_representation`` draws over Z, Q, F_3 and Z/9
on double A_2..A_4 and on repetitive A_2 (-5, 5) and A_3 (-4, 4), at every
interior vertex of the window and at every vertex of ZA_n where
``classify_object`` reads mesh homology; the morphisms are c·1_X for
c = 1, 2, 3 and the inclusion of the kernel of 3·1_X.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.exactalg import middle_homology
from qshape.homology import (CLASSIFY_SPREAD, corner_functors,
                             homology_probe_vertices, mesh_homology,
                             mesh_homology_map)
from qshape.quiver import format_vertex, vertex_key
from qshape.repmod import RepMorphism, kernel_of_morphism, random_representation

from oracles import (mesh_complex, mesh_homology_map_by_mesh_complex,
                     radical_filtration_all_degrees)

RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
DRAWS = 5
# per ring: vertices compared, of which with nonzero mesh homology, and
# induced maps on mesh homology that are not isomorphisms
CASES = {"ZZ": (292, 16, 48), "QQ": (287, 10, 10), "Zmod(3)": (304, 12, 12),
         "Zmod(9)": (290, 9, 18)}


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4)]
            + [MeshCategory(build_repetitive_an(2, (-5, 5)), ring),
               MeshCategory(build_repetitive_an(3, (-4, 4)), ring)])


def vertices(X):
    """The interior vertices of the window and the probes of classify."""
    C = X.category
    probes = homology_probe_vertices(C, X.support, CLASSIFY_SPREAD,
                                     CLASSIFY_SPREAD)
    return sorted(set(C.quiver.interior_vertices()) | set(probes),
                  key=vertex_key)


def morphisms(X):
    """c·1_X for c = 1, 2, 3, and the inclusion of the kernel of 3·1_X."""
    scaled = [RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators).scale(c)
                                 for v, m in X.values.items()})
              for c in (1, 2, 3)]
    K, incl = kernel_of_morphism(scaled[-1])
    return scaled + [RepMorphism(K, X, incl)]


def map_shape(f):
    """Isomorphism verdict and the normal forms of kernel and cokernel."""
    return (f.is_isomorphism(), f.kernel()[0].normal_form(),
            f.cokernel().normal_form())


def by_stalk_complexes(X, q, phis):
    corner = corner_functors(X, q)
    return (corner.K.normal_form(), corner.C.normal_form(),
            mesh_homology(X, q).normal_form(),
            [map_shape(mesh_homology_map(phi, q)) for phi in phis])


def by_replaced_routes(X, q, phis):
    K, _, C = radical_filtration_all_degrees(X, q, 1)
    return (K.normal_form(), C.normal_form(),
            middle_homology(*mesh_complex(X, q)).module.normal_form(),
            [map_shape(mesh_homology_map_by_mesh_complex(phi, q))
             for phi in phis])


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_degrees_zero_and_one_match_the_replaced_routes(ring):
    cases = nonzero = not_iso = 0
    mismatches = []
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"one_complex:{ring!r}:{k}")
        for draw in range(DRAWS):
            X = random_representation(C, rng)
            phis = morphisms(X)
            for q in vertices(X):
                got = by_stalk_complexes(X, q, phis)
                want = by_replaced_routes(X, q, phis)
                cases += 1
                nonzero += not want[2].is_zero
                not_iso += sum(not iso for iso, _, _ in want[3])
                if got != want:
                    mismatches.append((k, draw, format_vertex(q)))
    assert not mismatches
    assert (cases, nonzero, not_iso) == CASES[repr(ring)]

"""Every per-vertex group read off the stalk complexes, against the routes
they replaced (kept in oracles.py) and against the full complex.

At each vertex q, the kernel corner K_q = H^0 and the cokernel corner
C_q = H_0 are compared with the first power of the radical filtration
read off every radical basis element at q; mesh homology, H_1 on side cn,
with the middle homology of the mesh complex; and ``mesh_homology_map``
with the map a morphism induces on the mesh complexes, by its
isomorphism verdict and the normal forms of its kernel and cokernel.
``derived_homology_data`` asked for some degrees gives what it gives for
degrees 0..3 restricted to them, degree 0 is the kernel or cokernel of
the level-1 map, and ``derived_homology_map`` gives the matrices of
``_induced`` on the groups of degrees 0..3 read at once.
``classify_object`` probes only where a mesh meets the support, and
answers as it did on a band of two columns either side of it.
Inputs are seeded ``random_representation`` draws over Z, Q, F_3 and Z/9
on double A_2..A_4 and on repetitive A_2 (-5, 5) and A_3 (-4, 4), at every
interior vertex of the window and at every vertex of ZA_n within that
band; the morphisms are c·1_X for c = 1, 2, 3 and the inclusion of the
kernel of 3·1_X.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape import homology
from qshape.exactalg import middle_homology
from qshape.homology import (SIDE_CN, SIDE_CO, _complex_from_resolution,
                             _induced, _route, classify_object, corner_functors,
                             derived_homology_data, derived_homology_map,
                             homology_probe_vertices, mesh_homology,
                             mesh_homology_map, resolve_stalk)
from qshape.quiver import REPETITIVE_AN, format_vertex, vertex_key
from qshape.repmod import RepMorphism, kernel_of_morphism, random_representation

from oracles import (mesh_complex, mesh_homology_map_by_mesh_complex,
                     radical_filtration_all_degrees)

RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
DRAWS = 5
# columns below and above the support that the vertex set reaches: the
# band classify_object probed before it probed only where meshes meet
# the support
BAND = (2, 2)
# per ring: vertices compared, of which with nonzero mesh homology, and
# induced maps on mesh homology that are not isomorphisms
CASES = {"ZZ": (292, 16, 48), "QQ": (287, 10, 10), "Zmod(3)": (304, 12, 12),
         "Zmod(9)": (290, 9, 18)}


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4)]
            + [MeshCategory(build_repetitive_an(2, (-5, 5)), ring),
               MeshCategory(build_repetitive_an(3, (-4, 4)), ring)])


def draws(ring):
    """(category index, draw index, X) for every seeded draw."""
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"one_complex:{ring!r}:{k}")
        for draw in range(DRAWS):
            yield k, draw, random_representation(C, rng)


def vertices(X):
    """The interior vertices of the window and the vertices of ZA_n within
    BAND columns of the support."""
    C = X.category
    probes = homology_probe_vertices(C, X.support, *BAND)
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
    for k, draw, X in draws(ring):
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


DEGREES = range(4)
SUBSETS = ((0,), (1,), (2, 3), (1, 3))


def group(d):
    return d.module.normal_form(), d.cycle_gens


def degree_zero_by_level_one(X, q, side):
    """H^0 as the kernel (side co), H_0 as the cokernel (side cn) of the
    level-1 map of the stalk complex."""
    res = resolve_stalk(X.category, q, side, 1)
    d1 = _complex_from_resolution(res, X, 2)[1][1]
    return (d1.kernel()[0] if side == SIDE_CO else d1.cokernel()).normal_form()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_listed_degrees_match_the_full_complex(ring):
    cases = nonzero = 0
    mismatches = []
    for k, draw, X in draws(ring):
        phis = morphisms(X)
        for q in vertices(X):
            for side in (SIDE_CO, SIDE_CN):
                full = derived_homology_data(X, q, side, DEGREES)
                got = [{i: group(d) for i, d in
                        derived_homology_data(X, q, side, S).items()}
                       for S in SUBSETS]
                want = [{i: group(full[i]) for i in S} for S in SUBSETS]
                got.append(full[0].module.normal_form())
                want.append(degree_zero_by_level_one(X, q, side))
                for phi in phis:
                    hx = derived_homology_data(phi.source, q, side, DEGREES)
                    hy = derived_homology_data(phi.target, q, side, DEGREES)
                    got.append([derived_homology_map(phi, q, side, i).matrix
                                for i in DEGREES])
                    want.append([_induced(phi, _route(X.category, q, side, i)[0],
                                          hx[i], hy[i]).matrix for i in DEGREES])
                cases += 1
                nonzero += any(not full[i].module.is_zero for i in DEGREES)
                if got != want:
                    mismatches.append((k, draw, format_vertex(q), side))
    assert not mismatches
    assert nonzero and cases == 2 * CASES[repr(ring)][0]


def repetitive_draws(ring):
    return [X for k, _, X in draws(ring)
            if X.category.flavor == REPETITIVE_AN and X.support]


def old_band_classify(X, monkeypatch):
    """classify_object probing the band of BAND columns around the support."""
    probes = homology.homology_probe_vertices
    with monkeypatch.context() as m:
        m.setattr(homology, "homology_probe_vertices",
                  lambda C, support, below, above: probes(C, support, *BAND))
        return classify_object(X)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_classify_probes_where_meshes_meet_the_support(ring, monkeypatch):
    outside = []
    witnessed = 0
    for X in repetitive_draws(ring):
        lo = min(c for _, c in X.support)
        hi = max(c for _, c in X.support)
        for q in homology_probe_vertices(X.category, X.support, *BAND):
            if not mesh_homology(X, q).is_zero:
                witnessed += 1
                if not lo - 1 <= q[1] <= hi:
                    outside.append((format_vertex(q), lo, hi))
        assert classify_object(X).describe() == \
            old_band_classify(X, monkeypatch).describe()
    assert not outside
    assert witnessed

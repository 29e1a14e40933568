"""The cold construction path builds no scaffolding, and its fast paths
agree with the routes they skip.

* ``cofree_at`` writes each arrow matrix in its transposed layout, with
  no kept right multiplication, no transpose and no block layout
  (``Matrix.blocks``).
* A relation-free direct sum of presented modules lays out no relation
  matrix; a mixed one still lays its relations out block by block.
* A boundary entry of several terms, which only a kernel-vector cover
  writes, acts and is evaluated as the sum of its terms.
* ``derived_homology_map`` builds nothing where both ends are zero at the
  route key, and its maps agree with the mesh-complex oracle.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape import homology
from qshape.fixtures import counter_morphism
from qshape.homology import _cn_probes, mesh_homology_map
from qshape.repmod import RepMorphism, cofree_at, random_representation

from oracles import mesh_homology_map_by_mesh_complex

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(n, (-4, 4)), ring)
               for n in (2, 3)])


def counting(monkeypatch, owner, name, calls, static=False):
    """Replace owner.name by a wrapper that appends its arguments to calls."""
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_cofree_builds_no_scaffolding(ring, monkeypatch):
    transposes, layouts = [], []
    counting(monkeypatch, Matrix, "transpose", transposes)
    counting(monkeypatch, Matrix, "blocks", layouts, static=True)
    # the values and arrows equal cofree_at_every_vertex's
    # (test_repmod.py::TestAgainstLongRoutes)
    one = PresentedModule.free(ring, 1)
    for C in categories(ring):
        for q in C.vertices:
            assert cofree_at(C, q, one).arrow_maps
        assert not C._right_mult_cache
    assert not transposes and not layouts


def laid_out(ring, summands):
    """The relation matrices of the summands laid out block by block."""
    rel = [m.relations for m in summands]
    return Matrix.blocks(ring, {(k, k): m for k, m in enumerate(rel)},
                         [m.rows for m in rel], [m.cols for m in rel])


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_relation_free_sums_lay_out_nothing(ring, monkeypatch):
    rng = random.Random(f"sums:{ring!r}")
    free = [PresentedModule.free(ring, g) for g in (0, 1, 2, 3)]
    torsion = PresentedModule(ring, 1, Matrix(ring, 1, 1, [3]))
    layouts = []
    counting(monkeypatch, Matrix, "blocks", layouts, static=True)
    for count in range(4):
        for _ in range(5):
            first, *others = [rng.choice(free) for _ in range(count + 1)]
            got = first.direct_sum(*others)
            assert not layouts
            rel = laid_out(ring, (first, *others))
            assert got.generators == rel.rows
            assert got.relations == rel
            layouts.clear()
            # a mixed sum still lays out its relations block by block
            mixed = [*others, torsion]
            rng.shuffle(mixed)
            got = first.direct_sum(*mixed)
            assert len(layouts) == 1
            want = laid_out(ring, (first, *mixed))
            assert got.generators == want.rows
            assert got.relations == want
            layouts.clear()


@pytest.mark.parametrize("ring", (ZZ, Zmod(9)), ids=repr)
def test_entries_of_several_terms_are_summed(ring):
    sums = 0
    for k, C in enumerate(categories(ring)[1:4]):  # double A_3..A_5
        X = random_representation(C, random.Random(k))
        for side in (homology.SIDE_CO, homology.SIDE_CN):
            eng = homology._Side(C, side)
            for p in C.vertices:
                for q in C.vertices:
                    basis = C.hom_basis(p, q)
                    if len(basis) < 2:
                        continue
                    entry = tuple((ring.element(c + 2), e)
                                  for c, e in enumerate(basis))
                    terms = [(term,) for term in entry]
                    for s in C.vertices:
                        want = eng.act_matrix(terms[0], s)
                        for term in terms[1:]:
                            want = want + eng.act_matrix(term, s)
                        assert eng.act_matrix(entry, s) == want
                    want = eng.x_value_block(X, terms[0])
                    for term in terms[1:]:
                        want = want + eng.x_value_block(X, term)
                    assert eng.x_value_block(X, entry) == want
                    sums += 1
    assert sums


def counter_morphisms(ring):
    """The counterexample's φ: X -> Y, and the zero endomorphisms of X and
    Y, whose maps on nonzero groups are not isomorphisms."""
    X, Y, phi = counter_morphism(ring)
    return [phi, RepMorphism(X, X, {}), RepMorphism(Y, Y, {})]


@pytest.mark.parametrize("ring", (ZZ, QQ, Zmod(3), Zmod(9)), ids=repr)
def test_induced_maps_read_zero_groups_first(ring, monkeypatch):
    complexes, maps = [], []
    counting(monkeypatch, homology, "_complex_from_resolution", complexes)
    counting(monkeypatch, homology, "_induced", maps)
    X, Y, phi = counter_morphism(ring)
    probes = _cn_probes(X, Y, 2)
    assert len(probes) == 24
    for q in probes:
        mesh_homology_map(phi, q)
    # 48 complexes, 24 induced maps and 24 resolutions when every probe
    # built its route vertex's; 3 probes are live on either end
    assert len(complexes) <= 6
    assert len(maps) <= 3
    assert len(X.category._resolution_cache) <= 3
    monkeypatch.undo()
    verdicts = set()
    for f in counter_morphisms(ring):
        for q in _cn_probes(f.source, f.target, 2):
            got = mesh_homology_map(f, q)
            want = mesh_homology_map_by_mesh_complex(f, q)
            assert got.is_isomorphism() == want.is_isomorphism(), q
            assert got.source.normal_form() == want.source.normal_form()
            assert got.target.normal_form() == want.target.normal_form()
            verdicts.add(got.is_isomorphism())
    assert verdicts == {True, False}


def test_zero_map_between_kept_zero_groups():
    X, Y, phi = counter_morphism(QQ)
    q = _cn_probes(X, Y, 2)[0]
    f = mesh_homology_map(phi, q)
    route = homology._route(X.category, q, homology.SIDE_CN, 1)[0]
    assert f.source is homology._zero_group(X, route).module
    assert f.target is homology._zero_group(Y, route).module
    assert (f.matrix.rows, f.matrix.cols) == (0, 0)
    assert f.is_isomorphism()

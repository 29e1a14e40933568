"""H^0 read off side cn's kept cycles, and stalk complexes kept in place.

Side co's level-1 boundary at v, X(v) -> ⊕ X(r), is side cn's level-2
boundary at w = μ(v), so H^0 at v has the cycle generators of side cn's
H_2 at w and is their span modulo X(v)'s relations alone
(homology._kernel_from_cycles).  For seeded draws over every ring kind,
at every probe, these tests compare that H^0, asked for after H_2 at w
or before it, with middle_homology on the side-co complex at v of a
fresh copy of X: the same normal form, and cycle generators of the same
column span.

Each (vertex, side) complex is kept on X's pruned model and extended in
place, so each level is built once per representation, and a report to
degree 3 eliminates no [g | rel_C] twice.
"""

import random
from collections import Counter

import pytest

from qshape import MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape import homology
from qshape.exactalg import Matrix, ModuleMap, middle_homology
from qshape.exactalg import modules
from qshape.homology import (SIDE_CN, SIDE_CO, StalkResolution, _mu,
                             _complex_from_resolution, corner_functors,
                             derived_homology, derived_homology_data,
                             homology_probe_vertices, homology_report,
                             mesh_homology, resolve_stalk)
from qshape.repmod import Representation, random_representation

from test_fast_paths import spans_equal

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
# (H^0 compared, of which nonzero, read off kept cycles) per ring
CASES = {"ZZ": (499, 60, 248), "QQ": (471, 37, 240),
         "Zmod(3)": (496, 39, 239), "Zmod(4)": (545, 51, 276),
         "Zmod(9)": (502, 45, 260)}


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
               for n in (2, 3, 4)])


def probes(X):
    """Every vertex on the double flavor; on ZA_n, from 3(n - 1) columns
    below the support to 3 above it, past the window on both sides."""
    C = X.category
    return homology_probe_vertices(C, X.support, 3 * (C.n - 1), 3)


def fresh(X) -> Representation:
    return Representation(X.category, X.values, X.arrow_maps)


def side_co_kernel(X, v):
    """H^0 at v from the side-co complex at v, 0 -> X(v) -> ⊕ X(r)."""
    res = resolve_stalk(X.category, v, SIDE_CO, 1)
    mods, maps = _complex_from_resolution(res, X, 2)
    if not mods[0].generators:
        return mods[0], Matrix.identity(X.ring, 0)
    h = middle_homology(maps[0], maps[1])
    return h.module, h.cycle_gens


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_kernel_from_cycles_is_the_side_co_kernel(ring):
    compared = nonzero = from_cycles = 0
    routes = Counter()
    mismatches = []
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"kernel from cycles:{ring!r}:{k}")
        for X in (random_representation(C, rng) for _ in range(4)):
            for v in probes(X):
                w = _mu(C, v, SIDE_CO)
                cn_first = rng.random() < 0.5
                if cn_first:
                    derived_homology_data(X, w, SIDE_CN, (2,))
                got = derived_homology_data(X, v, SIDE_CO, (0,))[0]
                if not cn_first:
                    derived_homology_data(X, w, SIDE_CN, (2,))
                # no side-co complex at v where H_2 at w was kept first
                assert cn_first != ((v, SIDE_CO) in X.pruned()[0]._complexes)
                from_cycles += cn_first
                twin = homology._kernel_from_cycles(X, v)
                mods = _complex_from_resolution(
                    resolve_stalk(C, w, SIDE_CN, 3), X, 4)[0]
                if mods[1].generators and mods[2].generators:
                    # the route _kernel_from_cycles takes: relations of the
                    # level-1 target, or of X(v) alone, or none
                    routes[mods[1].relations.cols > 0,
                           mods[2].relations.cols > 0] += 1
                want, incl = side_co_kernel(fresh(X), v)
                compared += 1
                nonzero += not want.is_zero
                for h in (got, twin):
                    if (h.module.normal_form() != want.normal_form()
                            or not spans_equal(h.cycle_gens, incl)):
                        mismatches.append((C.quiver, v, cn_first))
    assert not mismatches
    assert (compared, nonzero, from_cycles) == CASES[repr(ring)]
    # every route is taken where the pruned draws keep relations; over a
    # field none is left, and these draws over Z/9 keep none either
    assert routes[False, False]
    if repr(ring) in ("ZZ", "Zmod(4)"):
        assert routes[True, False] and routes[True, True] and routes[False, True]


def warm_queries(X, max_degree):
    """Every reader at every vertex of the window, then a report."""
    for q in X.category.vertices:
        mesh_homology(X, q)
        derived_homology(X, q, SIDE_CN, max_degree)
        derived_homology(X, q, SIDE_CO, max_degree)
        corner_functors(X, q)
    homology_report(X, max_degree=max_degree)


@pytest.mark.parametrize("ring", (ZZ, Zmod(9)), ids=repr)
def test_each_level_is_built_once_per_representation(ring, monkeypatch):
    built = Counter()      # (vertex, side) -> boundaries built
    asked = {}             # (vertex, side) -> levels first asked for
    current = []
    original = homology._complex_from_resolution

    def tracking(res, X, levels):
        key = (res.vertex, res.side)
        asked.setdefault(key, levels)
        current.append(key)
        try:
            return original(res, X, levels)
        finally:
            current.pop()

    class CountingMap(ModuleMap):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built[current[-1]] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(homology, "_complex_from_resolution", tracking)
    monkeypatch.setattr(homology, "ModuleMap", CountingMap)
    extended = 0
    for C in (MeshCategory(build_double_an(4), ring),
              MeshCategory(build_repetitive_an(3, (-3, 3)), ring)):
        X = random_representation(C, random.Random(f"levels once:{ring!r}"))
        kept = X.pruned()[0]._complexes
        for max_degree in (1, 3, 7):
            warm_queries(X, max_degree)
        assert set(built) == set(kept)
        for key, (res, mods, maps, _) in kept.items():
            # level 0's map is the zero map, built by ModuleMap.zero
            assert built[key] == len(mods) - 1 == len(maps) - 1
            extended += asked[key] < len(mods)
        built.clear()
        asked.clear()
    assert extended

    # another resolution object at the same key builds its complex afresh
    v, side = next(iter(kept))
    res = resolve_stalk(X.category, v, side, 3)
    before = kept[v, side]
    copy = StalkResolution(res.side, res.vertex, list(res.terms),
                           list(res.boundaries), res._engine)
    mods, maps = tracking(copy, X, 3)
    assert kept[v, side][0] is copy
    assert all(maps[i] is not before[2][i] for i in range(3))
    assert [m.generators for m in mods] == [m.generators for m in before[1][:3]]
    assert [maps[i].matrix for i in range(3)] == [before[2][i].matrix for i in range(3)]
    _, again = tracking(res, X, 2)
    assert kept[v, side][0] is res and again[1] is not maps[1]


def test_report_eliminates_no_boundary_twice(monkeypatch):
    # H^0 at v and side cn's H_2 at w = μ(v) share g: X(v) -> ⊕ X(r),
    # which both eliminated with rel_C before H^0 was read off the kept
    # cycles; every such [g | rel_C] now goes to kernel_basis once
    kernels = Counter()
    plain = modules.kernel_basis

    def kernel(M, *args, **kwargs):
        kernels[M] += 1
        return plain(M, *args, **kwargs)
    monkeypatch.setattr(modules, "kernel_basis", kernel)
    C = MeshCategory(build_double_an(6), ZZ)
    X = random_representation(C, random.Random("no boundary twice"))
    homology_report(X, max_degree=3)
    monkeypatch.undo()
    eliminated = 0
    for v in C.vertices:
        res = resolve_stalk(C, _mu(C, v, SIDE_CO), SIDE_CN, 3)
        g = _complex_from_resolution(res, X, 3)[1][2]
        if g.source.generators and g.target.generators:
            eliminated += 1
            assert kernels[Matrix.hstack([g.matrix, g.target.relations])] == 1, v
    assert eliminated == 6

"""The homology groups kept on a representation, and the periodicity read.

derived_homology_data keeps each group on X, keyed (vertex, side, i) for
i <= 3, and reads a degree i >= 4 at q as degree i - 3 at σ(q).  These
tests query one warm X in a seeded shuffled order through every reader
and compare each group, degrees 0..7 on both sides, with middle_homology
on the paired complex of a fresh copy of X built to degree 7, where no
degree is folded.  They also count middle_homology calls: each group is
computed once, and repeating a query computes nothing.  Side co's
degrees 1-3 are kept under their side-cn twin keys: each shared group is
checked against the fresh complexes of all the keys that read it.  Weak
equivalence reads its maps and verdicts at the same keys: its tables
and maps are compared with those of the unfolded complex, and it counts
one isomorphism test per key.  The closed form of σ^k that the keys are
read at is compared with k steps of the Serre functor.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape import homology
from qshape.exactalg import ModuleMap, induced_on_homology, middle_homology
from qshape.fixtures import counter_morphism
from qshape.homology import (SIDE_CN, SIDE_CO, _cn_probes,
                             _transported, corner_functors, derived_homology,
                             derived_homology_data, derived_homology_map,
                             homology_probe_vertices, homology_report,
                             is_weak_equivalence, mesh_homology,
                             resolve_stalk)
from qshape.quiver import format_vertex, vertex_at
from qshape.repmod import Representation, random_representation

from test_fast_paths import categories, draws, paired_complex
from test_weq_periodicity import categories as weq_categories, scaled

RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
SIDES = (SIDE_CN, SIDE_CO)
DEPTH = 7


def fresh(X) -> Representation:
    """The same values and arrow maps, with nothing kept."""
    return Representation(X.category, X.values, X.arrow_maps)


def fresh_groups(X, q, side, max_degree):
    """middle_homology of every degree of one complex to max_degree + 1,
    as the groups were computed before any was kept."""
    eng, maps = paired_complex(fresh(X), q, side, max_degree)
    return [middle_homology(*eng.ends(maps[i], maps[i + 1]))
            for i in range(max_degree + 1)]


def assert_same_group(got, want):
    assert got.cycle_gens == want.cycle_gens
    assert got.module.generators == want.module.generators
    assert got.module.relations == want.module.relations
    assert got.module.normal_form() == want.module.normal_form()


def shuffled_queries(X, rng):
    """Every reader at every vertex, called in a seeded order; the answers
    keyed ("report",), ("mesh", q), ("corners", q) or (side, q)."""
    C = X.category
    queries = [("report", lambda: homology_report(X, C.vertices, DEPTH))]
    for q in C.vertices:
        queries.append(("mesh", q, lambda q=q: mesh_homology(X, q)))
        queries.append(("corners", q, lambda q=q: corner_functors(X, q)))
        for side in SIDES:
            queries.append((side, q, lambda q=q, side=side:
                            derived_homology(X, q, side, DEPTH)))
    rng.shuffle(queries)
    return {query[:-1]: query[-1]() for query in queries}


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_kept_and_folded_groups_equal_the_unfolded_complex(ring):
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"memo:{ring!r}:{k}")
        for X in draws(C, 400 + k):
            answers = shuffled_queries(X, rng)
            # only degrees up to 3 are kept; 4..7 were read at σ(q)
            assert X._homology and max(j for _, _, j in X._homology) <= 3
            report = answers[("report",)]
            for q in C.vertices:
                label = format_vertex(q)
                for side, key in ((SIDE_CN, "H_"), (SIDE_CO, "H^")):
                    want = fresh_groups(X, q, side, DEPTH)
                    got = derived_homology_data(X, q, side, range(DEPTH + 1))
                    read = answers[(side, q)]
                    for i in range(DEPTH + 1):
                        assert_same_group(got[i], want[i])
                        assert read[i] is got[i].module
                        assert report[key][f"{i} at {label}"] == \
                            want[i].module.describe()
                cn = derived_homology_data(X, q, SIDE_CN, (0, 1))
                assert answers[("mesh", q)] is cn[1].module
                assert report["mesh"][label] == cn[1].module.describe()
                corners = answers[("corners", q)]
                assert corners.C is cn[0].module
                assert corners.K is derived_homology_data(
                    X, q, SIDE_CO, (0,))[0].module


def sharing_categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
               for n in (2, 3)])


def fold_complex(X, key):
    """(f, g, rel_B, rel_C) of the complex at a fold key (v, side, j), built
    on a fresh copy of X: everything middle_homology reads."""
    v, side, j = key
    eng, maps = paired_complex(fresh(X), v, side, j)
    f, g = eng.ends(maps[j], maps[j + 1])
    return f.matrix, g.matrix, f.target.relations, g.target.relations


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_shared_groups_are_those_of_equal_complexes(ring):
    # the route keys that read one group are a side-co key of degree 1-3
    # and its side-cn twin, whose complexes have equal matrices and
    # relations; each group is still the one of its own unfolded complex
    for k, C in enumerate(sharing_categories(ring)):
        for X in draws(C, 700 + k):
            readers = {}
            for q in homology_probe_vertices(C, X.support, C.n - 1, 1):
                for side in SIDES:
                    got = derived_homology_data(X, q, side, range(DEPTH + 1))
                    want = fresh_groups(X, q, side, DEPTH)
                    keys = {i: homology._route(C, q, side, i)[0]
                            for i in range(DEPTH + 1)}
                    for i in range(DEPTH + 1):
                        assert_same_group(got[i], want[i])
                        readers.setdefault(id(got[i]), set()).add(keys[i])
            assert len(readers) == len(X._homology)
            co_with_cn = 0
            for keys in readers.values():
                twin, = {homology._route(C, *key)[1] for key in keys}
                assert twin in X._homology
                assert all(fold_complex(X, key) == fold_complex(X, twin)
                           for key in keys)
                co_with_cn += len({side for _, side, _ in keys}) == 2
            assert co_with_cn


def unfolded_maps(phi, max_degree):
    """H_i(φ) for i = 1..max_degree at every probe, each read from one
    complex at its probe on fresh copies of both ends: none at σ(q) and
    none kept."""
    X, Y = phi.source, phi.target
    maps = {}
    for q in _cn_probes(X, Y, max_degree):
        gx = fresh_groups(X, q, SIDE_CN, max_degree)
        gy = fresh_groups(Y, q, SIDE_CN, max_degree)
        res = resolve_stalk(X.category, q, SIDE_CN, max_degree + 1)
        for i in range(1, max_degree + 1):
            block = Matrix.block_diag(X.ring, [_transported(phi, r)
                                               for r in res.terms[i]])
            maps[(q, i)] = induced_on_homology(gx[i], gy[i], block)
    return maps


def unfolded_iso_table(phi, max_degree):
    """The weak-equivalence table of φ read from unfolded_maps."""
    return {(format_vertex(q), i): f.is_isomorphism()
            for (q, i), f in unfolded_maps(phi, max_degree).items()}


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_weak_equivalence_of_scalars_on_repetitive_a2(ring):
    C = MeshCategory(build_repetitive_an(2, (-6, 6)), ring)
    for X in draws(C, 500):
        for c in (1, -1, 2, 3):
            want = unfolded_iso_table(scaled(X, c), 6)
            got = is_weak_equivalence(scaled(X, c), 6)
            assert got["iso_table"] == want
            assert got["is_weak_equivalence"] == all(want.values())


def weq_morphisms(ring):
    """c·1_X for c in {1, -1, 2, 3} on draws over the periodicity test's
    categories, then the counterexample morphism."""
    for k, C in enumerate(weq_categories(ring)):
        for X in draws(C, 600 + k):
            for c in (1, -1, 2, 3):
                yield scaled(X, c)
    yield counter_morphism(ring)[2]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_weak_equivalence_tables_equal_the_unfolded_complex(ring):
    for phi in weq_morphisms(ring):
        want = unfolded_maps(phi, DEPTH)
        table = {(format_vertex(q), i): f.is_isomorphism()
                 for (q, i), f in want.items()}
        got = is_weak_equivalence(phi, DEPTH)
        assert got["iso_table"] == table
        assert got["is_weak_equivalence"] == all(table.values())
        if "degree_one_route" in got:
            assert got["degree_one_route"] == all(
                iso for (_, i), iso in table.items() if i == 1)
        for (q, i), f in want.items():
            assert derived_homology_map(phi, q, SIDE_CN, i).matrix == f.matrix


def counting_middle_homology(monkeypatch):
    calls = []
    original = homology.middle_homology

    def counting(f, g):
        calls.append(g)
        return original(f, g)
    monkeypatch.setattr(homology, "middle_homology", counting)
    return calls


def counting_isomorphism_tests(monkeypatch):
    calls = []
    original = ModuleMap.is_isomorphism

    def counting(f):
        calls.append(f)
        return original(f)
    monkeypatch.setattr(ModuleMap, "is_isomorphism", counting)
    return calls


def warm_sequence(X):
    """The per-vertex reads of the benchmark's warm homology job."""
    for q in X.category.vertices:
        mesh_homology(X, q)
        derived_homology(X, q, SIDE_CN, 3)
        derived_homology(X, q, SIDE_CO, 3)
        corner_functors(X, q)


def test_warm_sequence_keeps_five_groups_per_vertex(monkeypatch):
    # H_1, then H_0, H_2, H_3, then H^0..H^3; the corners read H_0 and H^0
    # (11 calls per vertex when nothing was kept).  H^1..H^3 are kept under
    # their side-cn twin keys, so the 8 groups per vertex are 5 keys.  This
    # draw is zero: each value is R^g modulo g relations that kill it.  Its
    # pruned model has no generators, so every complex is the zero group,
    # with no call
    calls = counting_middle_homology(monkeypatch)
    C = MeshCategory(build_double_an(4), ZZ)
    X = random_representation(C, random.Random("memo counts"))
    warm_sequence(X)
    assert X.is_zero() and not X.pruned()[0].values
    assert len(X._homology) == 5 * len(C.vertices)
    assert calls == []
    kept = dict(X._homology)
    warm_sequence(X)
    assert calls == [] and X._homology == kept


def test_warm_sequence_on_a_nonzero_draw_computes_each_complex_once(monkeypatch):
    # the next draw is nonzero at every vertex, and its pruned values keep
    # one relation at vertices 1 and 2; each of its 20 keys computes its
    # group once, and the 4 H^0 are read off side cn's kept H_2 cycles
    # with no middle_homology call (20 calls before they were)
    calls = counting_middle_homology(monkeypatch)
    C = MeshCategory(build_double_an(4), ZZ)
    rng = random.Random("memo counts")
    random_representation(C, rng)
    X = random_representation(C, rng)
    warm_sequence(X)
    assert X.support == set(C.vertices)
    assert len(X._homology) == 5 * len(C.vertices)
    assert len(calls) == 16
    calls.clear()
    warm_sequence(X)
    assert calls == []


def test_deep_report_costs_no_more_than_depth_three(monkeypatch):
    # degrees past 3 are read at σ(q), and side co's degrees 1-3 at their
    # side-cn twins: 5 keys per vertex of double A_6 at any depth (780
    # calls at depth 64 when every degree was computed), each computed once;
    # H^0 is read off side cn's kept H_2 cycles, so 24 of the 30 groups
    # call middle_homology (30 before)
    calls = counting_middle_homology(monkeypatch)
    C = MeshCategory(build_double_an(6), QQ)
    X = random_representation(C, random.Random("memo report"))
    shallow_X, deep_X = fresh(X), fresh(X)
    shallow = homology_report(shallow_X, max_degree=3)
    assert len(shallow_X._homology) == 30
    assert len(calls) == 24
    calls.clear()
    deep = homology_report(deep_X, max_degree=64)
    assert len(deep_X._homology) == 30
    assert len(calls) == 24
    assert {k: v for k, v in deep["H_"].items() if int(k.split()[0]) <= 3} \
        == shallow["H_"]
    assert deep["mesh"] == shallow["mesh"]


def test_deep_weak_equivalence_costs_no_more_than_depth_three(monkeypatch):
    # every (vertex, degree <= 3) of double A_6 is a probe at depth 3, so
    # depth 64 decides nothing new (384 isomorphism tests, and resolutions
    # of 65 levels, when every degree was decided at every probe); 4 of the
    # 18 keys have groups with no generators, decided with no map built
    calls = counting_middle_homology(monkeypatch)
    isos = counting_isomorphism_tests(monkeypatch)
    counts, tables = {}, {}
    for depth in (3, 64):
        C = MeshCategory(build_double_an(6), QQ)
        X = random_representation(C, random.Random("memo report"))
        tables[depth] = is_weak_equivalence(scaled(X, 2), depth)["iso_table"]
        counts[depth] = (len(isos), len(calls))
        assert max(res.length() for res in C._resolution_cache.values()) <= 4
        isos.clear()
        calls.clear()
    assert counts[64] == counts[3] == (14, 18)
    assert {k: v for k, v in tables[64].items() if k[1] <= 3} == tables[3]


def test_weak_equivalence_decides_each_fold_key_once(monkeypatch):
    # degree i at q is degree i - 3k <= 3 at σ^k(q); on the counterexample
    # at depth 64 that leaves 1,554 keys (25,344 isomorphism tests, one per
    # probe and degree, when none was shared).  Most probes lie off the
    # support, where the middle term has no generators and the group is 0:
    # 12 of the 3,108 keys of both ends call middle_homology (30 when a
    # call was made wherever any term had generators).  A key whose
    # groups on both ends have no generators is an isomorphism with no map
    # built, which leaves 8 isomorphism tests
    calls = counting_middle_homology(monkeypatch)
    isos = counting_isomorphism_tests(monkeypatch)
    X, Y, phi = counter_morphism(QQ)
    keys = set()
    for q in _cn_probes(X, Y, 64):
        for i in range(1, 65):
            keys.add(homology._route(X.category, q, SIDE_CN, i)[0])
    result = is_weak_equivalence(phi, 64)
    live = {key for key, d in X._homology.items()
            if d.module.generators or Y._homology[key].module.generators}
    assert len(keys) == 1554
    assert len(isos) == len(live) == 8
    assert len(X._homology) == len(Y._homology) == 1554
    assert len(calls) == 12
    assert len(result["iso_table"]) == 64 * len(_cn_probes(X, Y, 64))


def serre_step(C, v, side):
    """One σ step by its definition, for the Serre functor C.serre_object
    and μ one column down (side co, τ^-1) or up (side cn, τ), τ being read
    off the mesh at the vertex (quiver.tau): S(μ v) on side co and
    S^-1(μ v) = τ^(n-1) S(μ v) on side cn, as S^2 = τ^(1-n)."""
    tau = C.quiver.tau
    row, col = C._coords(v)
    if side == SIDE_CO:
        mu = vertex_at(row, col, -1)
        assert tau(mu) == v
        return C.serre_object(mu)
    mu = tau(v)
    step = C.serre_object(mu)
    for _ in range(C.n - 1):
        step = tau(step)
    assert C.serre_object(step) == mu
    return step


def test_sigma_closed_form_equals_k_serre_steps():
    # σ^k by its closed form against k steps of its definition, on double
    # and repetitive A_2..A_6 (window (-5, 5)), both sides, every vertex,
    # k = 0..24: repetitive orbits leave the window within a few steps
    cases = 0
    for n in range(2, 7):
        for C in (MeshCategory(build_double_an(n), ZZ),
                  MeshCategory(build_repetitive_an(n, (-5, 5)), ZZ)):
            for side in SIDES:
                for q in C.vertices:
                    v = q
                    for k in range(25):
                        assert homology._sigma(C, q, side, k) == v, (C, side, q, k)
                        v = serre_step(C, v, side)
                        cases += 1
    assert cases == 12000

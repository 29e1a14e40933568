"""Corner functors, mesh homology, resolutions, and the decision procedures."""

import random
import time

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.errors import InvalidParameter
from qshape import homology
from qshape.exactalg import kernel_basis, solve
from qshape.fixtures import COUNTER_LABELS, counter_morphism
from qshape.homology import (SIDE_CN, SIDE_CO, classify_object,
                             corner_functors,
                             derived_homology,
                             derived_homology_map, is_weak_equivalence,
                             mesh_homology, mesh_homology_map,
                             resolve_stalk, zero_test)
from qshape.quiver import DOUBLE_AN, format_vertex
from qshape.repmod import (Representation, cofree_at, free_at,
                           kernel_of_morphism, random_representation,
                           stalk_rep, validate_representation)

import oracles
from oracles import (basis_indexed_resolution, column_matrix, radical_filtration,
                     radical_in, radical_out)
from samplers import (cyclic, from_invariant_factors, identity_morphism,
                      random_free_representation, random_morphism,
                      representable_rep, zero_morphism)


ALL_RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))


def double_cat(n, ring=ZZ):
    return MeshCategory(build_double_an(n), ring)


def repetitive_cats(ring):
    return [MeshCategory(build_repetitive_an(2, (-6, 6)), ring),
            MeshCategory(build_repetitive_an(3, (-8, 8)), ring)]


# a window of ZA_n wide enough for the elimination oracles, which refuse a
# resolution whose support leaves their window
WIDE = (-60, 60)


def wide(C):
    """The same category on the window WIDE; double A_n has no window."""
    if C.flavor == DOUBLE_AN:
        return C
    return MeshCategory(build_repetitive_an(C.n, WIDE), C.ring)


def where_nonzero(C, res):
    """The vertices of ZA_n where a level of res can be nonzero: each
    summand's support lies within n columns of it."""
    if C.flavor == DOUBLE_AN:
        return C.vertices
    cols = [r[1] for level in res.terms for r in level]
    return [(row, col) for col in range(min(cols) - C.n, max(cols) + C.n + 1)
            for row in range(1, C.n + 1)]


def assert_exact(C, q, res, vertices=None):
    ring = C.ring
    for s in C.vertices if vertices is None else vertices:
        d1 = res.level_matrix(1, s)
        coker = PresentedModule(ring, d1.rows, d1).normal_form()
        want = PresentedModule.free(ring, 1 if s == q else 0).normal_form()
        assert coker == want, (q, s)
        for i in range(1, res.length()):
            ei = res.level_matrix(i, s)
            en = res.level_matrix(i + 1, s)
            assert (ei * en).is_zero
            K = kernel_basis(ei)
            for j in range(K.cols):
                assert solve(en, column_matrix(K, j)) is not None


class TestCorners:
    def test_corner_of_free_is_identity_or_zero(self):
        C = double_cat(3)
        M = from_invariant_factors(ZZ, [2, 0])
        for p in C.vertices:
            F = free_at(C, p, M)
            for q in C.vertices:
                corner = corner_functors(F, q)
                if q == p:
                    assert corner.C.normal_form() == M.normal_form()
                else:
                    assert corner.C.is_zero

    def test_corner_of_cofree_is_identity_or_zero(self):
        C = double_cat(3)
        M = cyclic(ZZ, 6)
        for p in C.vertices:
            G = cofree_at(C, p, M)
            for q in C.vertices:
                corner = corner_functors(G, q)
                if q == p:
                    assert corner.K.normal_form() == M.normal_form()
                else:
                    assert corner.K.is_zero

    def test_stalk_corners(self):
        C = double_cat(2)
        M = from_invariant_factors(ZZ, [4])
        S = stalk_rep(C, 2, M)
        corner = corner_functors(S, 2)
        assert corner.K.normal_form() == M.normal_form()
        assert corner.C.normal_form() == M.normal_form()

    def test_free_on_a2(self):
        C = double_cat(2)
        F1 = free_at(C, 1, PresentedModule.free(ZZ, 1))
        assert corner_functors(F1, 1).K.is_zero
        assert corner_functors(F1, 2).K.describe() == "Z"

    def test_filtration_chain(self):
        C = double_cat(3)
        X = free_at(C, 2, PresentedModule.free(ZZ, 1))
        for q in C.vertices:
            k0, _, c0 = radical_filtration(X, q, 0)
            assert k0.is_zero and c0.is_zero
            k1, _, _ = radical_filtration(X, q, 1)
            assert k1.normal_form() == corner_functors(X, q).K.normal_form()
            kN, _, _ = radical_filtration(X, q, C.nilpotency_index())
            assert kN.normal_form() == X.value(q).normal_form()

    def test_filtration_monotone(self):
        # ranks of the kernel chain K^0 <= K^1 <= ... are nondecreasing
        C = double_cat(3, Zmod(3))
        rng = random.Random(4)
        X = random_free_representation(C, rng)
        for q in C.vertices:
            prev = -1
            for power in range(C.nilpotency_index() + 1):
                k, _, _ = radical_filtration(X, q, power)
                rank = k.normal_form().free_rank
                assert rank >= prev
                prev = rank


class TestMeshHomology:
    def test_zero_representation(self):
        C = double_cat(3)
        Z = stalk_rep(C, 1, PresentedModule.free(ZZ, 0))
        for q in C.vertices:
            assert mesh_homology(Z, q).is_zero

    def test_normality_double(self):
        for n in (2, 3, 4, 5):
            C = double_cat(n)
            for p in C.vertices:
                R = representable_rep(C, p)
                for q in C.vertices:
                    assert mesh_homology(R, q).is_zero

    def test_normality_repetitive(self):
        for n in (2, 3, 4):
            C = MeshCategory(build_repetitive_an(n, (-2 * n, 2 * n)), ZZ)
            probes = [v for v in C.vertices if abs(v[1]) <= n // 2]
            for p in probes:
                R = representable_rep(C, p)
                for q in C.quiver.interior_vertices():
                    assert mesh_homology(R, q).is_zero, (n, p, q)

    def test_boundary_vertex_refused(self):
        # the mesh at 1@2, on the edge of the window (0, 2), used to raise
        # BoundaryVertex; every mesh of ZA_n now reads X as zero off the
        # window, as the same X does on a window that holds the mesh
        C = MeshCategory(build_repetitive_an(2, (0, 2)), ZZ)
        W = wide(C)
        for p in C.vertices:
            X = stalk_rep(C, p, PresentedModule.free(ZZ, 1))
            Y = Representation(W, X.values, X.arrow_maps)
            for q in W.quiver.band(0, -3, 5):
                assert mesh_homology(X, q).normal_form() == \
                    mesh_homology(Y, q).normal_form(), (p, q)
        X = stalk_rep(C, (1, 2), PresentedModule.free(ZZ, 1))
        assert mesh_homology(X, (1, 2)).is_zero
        assert mesh_homology(X, (2, 2)).describe() == "Z"


class TestResolutions:
    def test_heads_are_basis_indexed(self):
        C = double_cat(2)
        res = resolve_stalk(C, 1, SIDE_CO, 2)
        assert res.terms[0] == [1]
        assert res.terms[1] == [2]  # one radical basis element out of 1
        res_cn = resolve_stalk(C, 1, SIDE_CN, 2)
        assert res_cn.terms[1] == [2]

    def test_head_counts_match_radical_basis(self):
        for n in (3, 4):
            C = double_cat(n)
            for q in C.vertices:
                res = basis_indexed_resolution(C, q, SIDE_CO, 1)
                assert len(res.terms[1]) == len(radical_out(C, q))
                res = basis_indexed_resolution(C, q, SIDE_CN, 1)
                assert len(res.terms[1]) == len(radical_in(C, q))

    def test_head_has_one_summand_per_arrow(self):
        # the arrows at q are read off a window that holds all of them
        for ring in ALL_RINGS:
            cats = [double_cat(n, ring) for n in (2, 3, 5)] + repetitive_cats(ring)
            for C in cats:
                quiver = wide(C).quiver
                for q in C.vertices:
                    heads = {SIDE_CO: [a.target for a in quiver.arrows_out_of(q)],
                             SIDE_CN: [a.source for a in quiver.arrows_into(q)]}
                    for side, want in heads.items():
                        res = resolve_stalk(C, q, side, 1)
                        assert sorted(res.terms[1], key=format_vertex) == \
                            sorted(want, key=format_vertex)

    def test_periodic_level_sizes(self):
        # the double A_n mesh category is the preprojective algebra of A_n,
        # whose minimal resolutions of simples have period [1, 2, 1] inside
        # and [1, 1, 1] at the ends (Brenner-Butler-King 2002)
        for ring in ALL_RINGS:
            for n in (3, 4, 5, 6):
                C = double_cat(n, ring)
                for q in C.vertices:
                    want = [1] * 7 if q in (1, n) else [1, 2, 1, 1, 2, 1, 1]
                    for side in (SIDE_CN, SIDE_CO):
                        res = resolve_stalk(C, q, side, 6)
                        assert [len(t) for t in res.terms] == want, (ring, n, q)

    def test_corner_cover_skips_columns_spanned_by_earlier_picks(self):
        # no kernel met by the stalk resolutions of these mesh categories
        # has a corner of rank two, so the rule is shown on a hand-made
        # kernel at one spot with no neighbours
        C = double_cat(3, QQ)
        eng = homology._Side(C, SIDE_CO)
        K = Matrix.from_rows(QQ, [[1, 2, 0], [0, 0, 1]])
        chosen = oracles._corner_cover(eng, [2], [2], {2: K})
        assert chosen == [(2, K.col(0)), (2, K.col(2))]

    def test_vertex_outside_the_window_is_refused_on_both_sides(self):
        # both were refused (side co once resolved 1@100 from the window's
        # truncated data); the rules read coordinates only, so the
        # resolution at a vertex off the window is the one on a window
        # that holds it
        C = MeshCategory(build_repetitive_an(2, (-6, 6)), ZZ)
        for q, window in (((1, 100), (90, 110)), ((2, -100), (-110, -90))):
            D = MeshCategory(build_repetitive_an(2, window), ZZ)
            for side in (SIDE_CN, SIDE_CO):
                got, want = resolve_stalk(C, q, side, 7), resolve_stalk(D, q, side, 7)
                assert got.terms == want.terms
                assert got.boundaries == want.boundaries

    def test_cached_resolution_extends_in_place(self):
        C = double_cat(4, QQ)
        short = resolve_stalk(C, 2, SIDE_CN, 2)
        long = resolve_stalk(C, 2, SIDE_CN, 5)
        assert long is short and long.length() == 5
        assert resolve_stalk(C, 2, SIDE_CN, 3) is long
        fresh = resolve_stalk(double_cat(4, QQ), 2, SIDE_CN, 5)
        assert fresh.terms == long.terms and fresh.boundaries == long.boundaries

    def test_oracle_is_not_cached(self):
        C = double_cat(3)
        basis_indexed_resolution(C, 2, SIDE_CN, 3)
        assert C._resolution_cache == {}

    def test_translate_summand_present_at_level_two(self):
        for n in (2, 3, 4):
            C = double_cat(n)
            for q in C.vertices:
                res = resolve_stalk(C, q, SIDE_CN, 2)
                assert q in res.terms[2]  # tau is the identity here

    def test_exactness_all_levels(self):
        # length 7 crosses the joins at levels 3/4 and 6/7, where the closed
        # form switches to a copy of the resolution at sigma(q)
        for construct in (resolve_stalk, basis_indexed_resolution):
            for ring in (ZZ, Zmod(3), Zmod(4), QQ, Zmod(9)):
                for n in (2, 3):
                    C = double_cat(n, ring)
                    for q in C.vertices:
                        for side in (SIDE_CN, SIDE_CO):
                            assert_exact(C, q, construct(C, q, side, 7))
        # on ZA_n at every vertex of the windows, where the resolution
        # lives; the oracle on a window wide enough for it
        checked = 0
        for construct in (resolve_stalk, basis_indexed_resolution):
            for ring in (ZZ, Zmod(3), Zmod(4)):
                for C in repetitive_cats(ring):
                    W = wide(C) if construct is basis_indexed_resolution else C
                    for q in C.quiver.interior_vertices():
                        for side in (SIDE_CN, SIDE_CO):
                            res = construct(W, q, side, 7)
                            assert_exact(W, q, res, where_nonzero(C, res))
                            checked += 1
        assert checked == 2 * 3 * 2 * (2 * 12 + 3 * 16)


    def test_closed_form_matches_the_corner_cover(self):
        # per-level summand multisets against the elimination-built
        # resolutions the closed form replaced: every vertex of double
        # A_2..A_6, and every vertex of a seeded sample of repetitive
        # windows against the oracle on a window wide enough for it
        def outcome(construct, C, q, side, length):
            res = construct(C, q, side, length)
            # a cached resolution may be longer than asked for
            return [sorted(t, key=format_vertex) for t in res.terms[:length + 1]]

        for ring in ALL_RINGS:
            for n in range(2, 7):
                C = double_cat(n, ring)
                for q in C.vertices:
                    for side in (SIDE_CN, SIDE_CO):
                        assert outcome(resolve_stalk, C, q, side, 7) == outcome(
                            oracles.corner_cover_resolution, C, q, side, 7)
        rng = random.Random("closed-form:windows")
        shapes = [(n, window) for n in (2, 3, 4)
                  for window in ((0, 0), (-1, 1), (-3, 3), (-2 * n, 2 * n),
                                 (5, 9), (-9, 2))]
        past_the_edge = 0
        for n, window in rng.sample(shapes, 12):
            C = MeshCategory(build_repetitive_an(n, window), rng.choice(ALL_RINGS))
            W = wide(C)
            for q in rng.sample(C.vertices, min(10, len(C.vertices))):
                for side in (SIDE_CN, SIDE_CO):
                    for length in range(1, 8):
                        got = outcome(resolve_stalk, C, q, side, length)
                        assert got == outcome(oracles.corner_cover_resolution,
                                              W, q, side, length), \
                            (n, window, q, side, length)
                        past_the_edge += any(not C.quiver.has_vertex(r)
                                             for level in got for r in level)
        # resolutions that the window used to refuse are among them
        assert past_the_edge > 100

    def test_serre_end_inverts_the_serre_functor_on_side_cn(self):
        # sigma(q) = S(mu q) on side co and S^-1(mu q) on side cn
        cats = [double_cat(n) for n in (2, 3, 6)] + [
            MeshCategory(build_repetitive_an(n, (-9, 9)), ZZ) for n in (2, 3, 5)]
        for C in cats:
            for q in C.vertices:
                co_sigma, cn_sigma = (homology._sigma(C, q, side, 1)
                                      for side in (SIDE_CO, SIDE_CN))
                co_mu, cn_mu = (homology._mu(C, q, side) for side in (SIDE_CO, SIDE_CN))
                assert co_sigma == C.serre_object(co_mu)
                assert C.serre_object(cn_sigma) == cn_mu
                if C.flavor == DOUBLE_AN:
                    assert co_sigma == cn_sigma == C.n + 1 - q
                else:  # tau moves one column up
                    assert co_mu == (q[0], q[1] - 1)
                    assert cn_mu == (q[0], q[1] + 1)

    def test_closed_form_entries_are_single_terms(self):
        # levels 1-3 store one (coefficient, basis element) term per entry:
        # the arrows and the mesh arms, one of the two levels signed 1, -1
        # (level 1 on side co, level 2 on side cn) and the other 1, 1, and
        # the top-degree element with 1, each in Q(ends(a, b)) of its two
        # summands
        for ring in (ZZ, Zmod(9)):
            one, minus_one = ring.one, ring.neg(ring.one)
            checked = 0
            cats = [double_cat(n, ring) for n in (2, 3, 4, 5)] + [
                MeshCategory(build_repetitive_an(3, (-8, 8)), ring)]
            for C in cats:
                for q in C.vertices:
                    for side in (SIDE_CN, SIDE_CO):
                        res = resolve_stalk(C, q, side, 3)
                        checked += 1
                        eng = res._engine
                        arms = len(res.terms[1])
                        signs = [one, minus_one][:arms], [one] * arms
                        level1, level2 = signs if side == SIDE_CO else signs[::-1]
                        want = {1: (1, level1),
                                2: (1, level2),
                                3: (C.top_degree(), [one])}
                        for i, (degree, coeffs) in want.items():
                            table = res.boundaries[i]
                            assert all(len(table[ab]) == 1 for ab in table)
                            assert [table[ab][0][0] for ab in sorted(table)] \
                                == coeffs
                            for (a, b), ((_, e),) in table.items():
                                assert e.degree == degree
                                assert (e.source, e.target) == eng.ends(
                                    res.terms[i - 1][a], res.terms[i][b])
            assert checked > 100

    def test_copied_levels_are_not_shared(self):
        C = double_cat(4, QQ)
        res = resolve_stalk(C, 1, SIDE_CO, 7)
        src = resolve_stalk(C, 4, SIDE_CO, 4)
        for i in range(4, 8):
            assert res.terms[i] == src.terms[i - 3]
            assert res.boundaries[i] == src.boundaries[i - 3]
            assert res.terms[i] is not src.terms[i - 3]
            assert res.boundaries[i] is not src.boundaries[i - 3]

    def test_resolutions_within_budget(self):
        # built by corner covers, each of the two took ~30 s to length 4
        # on a 2-vCPU Xeon guest
        start = time.perf_counter()
        for ring in (ZZ, QQ, Zmod(9)):
            C = double_cat(32, ring)
            for q in C.vertices:
                for side in (SIDE_CN, SIDE_CO):
                    want = [1] * 8 if q in (1, 32) else [1, 2, 1, 1, 2, 1, 1, 2]
                    assert [len(t) for t in resolve_stalk(C, q, side, 7).terms] \
                        == want
        assert time.perf_counter() - start < 2.0
        start = time.perf_counter()
        C = MeshCategory(build_repetitive_an(16, (-32, 32)), ZZ)
        # every vertex resolves; 1026 of the 2080 fitted the window's margin
        fitted = sum(len(resolve_stalk(C, q, side, 7).terms) == 8
                     for q in C.vertices for side in (SIDE_CN, SIDE_CO))
        assert time.perf_counter() - start < 5.0
        assert fitted == 2080

class TestDerived:
    def test_degree_zero_identities(self):
        rng = random.Random(7)
        C = double_cat(3, Zmod(3))
        for _ in range(10):
            X = random_representation(C, rng)
            for q in C.vertices:
                corner = corner_functors(X, q)
                assert derived_homology(X, q, SIDE_CO, 1)[0].normal_form() == \
                    corner.K.normal_form()
                assert derived_homology(X, q, SIDE_CN, 1)[0].normal_form() == \
                    corner.C.normal_form()

    def test_free_and_cofree_acyclic(self):
        for ring in (ZZ, Zmod(3), Zmod(4)):
            C = double_cat(3, ring)
            M = PresentedModule.free(ring, 1)
            for p in C.vertices:
                F = free_at(C, p, M)
                G = cofree_at(C, p, M)
                for q in C.vertices:
                    h = derived_homology(F, q, SIDE_CN, 2)
                    assert h[1].is_zero and h[2].is_zero
                    h = derived_homology(G, q, SIDE_CO, 2)
                    assert h[1].is_zero and h[2].is_zero

    def test_stalk_homology_on_a2(self):
        C = double_cat(2)
        S1 = stalk_rep(C, 1, PresentedModule.free(ZZ, 1))
        assert derived_homology(S1, 2, SIDE_CN, 2)[1].describe() == "Z"

    def test_first_homology_is_mesh_homology(self):
        rng = random.Random(8)
        for n in (2, 3):
            C = double_cat(n, Zmod(3))
            for _ in range(10):
                X = random_representation(C, rng)
                for q in C.vertices:
                    assert derived_homology(X, q, SIDE_CN, 1)[1].normal_form() \
                        == mesh_homology(X, q).normal_form()

    def test_three_routes_agree_over_the_integers(self):
        rng = random.Random(15)
        for n in (2, 3):
            C = double_cat(n, ZZ)
            for _ in range(10):
                X = random_representation(C, rng)
                route_mesh = all(mesh_homology(X, q).is_zero for q in C.vertices)
                route_hi = all(derived_homology(X, q, SIDE_CN, 2)[i].is_zero
                               for q in C.vertices for i in (1, 2))
                route_hco = all(derived_homology(X, q, SIDE_CO, 2)[i].is_zero
                                for q in C.vertices for i in (1, 2))
                assert route_mesh == route_hi == route_hco
                for q in C.vertices:
                    assert derived_homology(X, q, SIDE_CN, 1)[1].normal_form() \
                        == mesh_homology(X, q).normal_form()

    def test_mesh_homology_is_next_cohomology_at_translate(self):
        # on these normal quivers mH_q agrees with H^1 at tau(q)
        rng = random.Random(9)
        C = double_cat(3, Zmod(3))
        for _ in range(6):
            X = random_representation(C, rng)
            for q in C.vertices:
                tau_q = C.quiver.tau(q)
                assert derived_homology(X, tau_q, SIDE_CO, 1)[1].normal_form() \
                    == mesh_homology(X, q).normal_form()

    def test_additive_over_direct_sums(self):
        rng = random.Random(10)
        C = double_cat(2, Zmod(3))
        X = random_representation(C, rng)
        Y = random_representation(C, rng)
        S = X.direct_sum(Y)
        for q in C.vertices:
            for side in (SIDE_CN, SIDE_CO):
                hx = derived_homology(X, q, side, 2)
                hy = derived_homology(Y, q, side, 2)
                hs = derived_homology(S, q, side, 2)
                for i in range(3):
                    assert hs[i].normal_form() == \
                        hx[i].direct_sum(hy[i]).normal_form()


    def test_minimal_and_basis_indexed_resolutions_agree(self, monkeypatch):
        # every H_i/H^i normal form through the closed-form resolution
        # equals the one through the basis-indexed oracle, at every interior
        # vertex: the oracle reads the same X on a window wide enough for it.
        # Each oracle gets a fresh copy Y, so that no group kept from
        # another oracle answers for it: H^0 read off side cn's kept cycles
        # holds for the closed-form resolutions only
        compared = 0
        for ring in ALL_RINGS:
            for C in [double_cat(3, ring)] + repetitive_cats(ring):
                rng = random.Random(f"differential:{ring!r}:{C.quiver.flavor}:{C.n}")
                W = wide(C)
                oracles = {(q, side): basis_indexed_resolution(W, q, side, 3)
                           for q in C.quiver.interior_vertices()
                           for side in (SIDE_CN, SIDE_CO)}
                for _ in range(12 if C.flavor == DOUBLE_AN else 3):
                    X = random_representation(C, rng)
                    for q, side in oracles:
                        minimal = derived_homology(X, q, side, 2)
                        Y = Representation(W, X.values, X.arrow_maps)
                        with monkeypatch.context() as m:
                            m.setattr(homology, "resolve_stalk",
                                      lambda C, v, side, length: oracles[v, side])
                            indexed = derived_homology(Y, q, side, 2)
                        for i in range(3):
                            assert minimal[i].normal_form() == \
                                indexed[i].normal_form(), (ring, C, q, side, i)
                        compared += 1
        assert compared > 1000

    def test_double_a8_to_degree_three_within_budget(self):
        # the basis-indexed resolution did not finish this in minutes
        for ring in ALL_RINGS:
            C = double_cat(8, ring)
            X = random_representation(C, random.Random(8))
            start = time.perf_counter()
            for q in C.vertices:
                hcn = derived_homology(X, q, SIDE_CN, 3)
                hco = derived_homology(X, q, SIDE_CO, 3)
                corner = corner_functors(X, q)
                assert hcn[0].isomorphic(corner.C)
                assert hco[0].isomorphic(corner.K)
                assert hcn[1].isomorphic(mesh_homology(X, q))
            assert time.perf_counter() - start < 10.0, ring

    def test_z9_draws_that_ran_for_minutes(self):
        # draws 1 and 8 of random.Random(9) on double A_4 over Z/9 ran for
        # minutes while the Smith form over Z/p^k went through Z
        C = double_cat(4, Zmod(9))
        rng = random.Random(9)
        draws = [random_representation(C, rng) for _ in range(9)]
        start = time.perf_counter()
        for X in (draws[1], draws[8]):
            for q in C.vertices:
                hcn = derived_homology(X, q, SIDE_CN, 3)
                hco = derived_homology(X, q, SIDE_CO, 3)
                corner = corner_functors(X, q)
                assert hcn[1].isomorphic(mesh_homology(X, q))
                assert hcn[0].isomorphic(corner.C)
                assert hco[0].isomorphic(corner.K)
        assert time.perf_counter() - start < 20.0

    @pytest.mark.parametrize("max_degree, sides", [
        (0, (SIDE_CN,)), (0, (SIDE_CO,)), (1, (SIDE_CO,)), (0, (SIDE_CN, SIDE_CO)),
        (2, (SIDE_CN, SIDE_CO))])
    def test_report_builds_one_side_cn_complex_per_vertex(self, max_degree, sides):
        # mesh homology is degree 1 of the side-cn complex, which also
        # gives the H_i asked for; side co adds its own complex.  Every
        # complex built is kept on X's pruned model, once per (vertex, side)
        X = random_representation(double_cat(3), random.Random(5))
        report = homology.homology_report(X, None, max_degree, sides)
        built = [side for _, side in X.pruned()[0]._complexes]
        assert len(report["mesh"]) == 3
        assert len(report["H_"]) == (3 * (max_degree + 1) if SIDE_CN in sides else 0)
        assert built.count(SIDE_CN) == 3
        assert built.count(SIDE_CO) == (3 if SIDE_CO in sides else 0)
        for q in X.category.vertices:
            assert report["mesh"][format_vertex(q)] == mesh_homology(X, q).describe()


class TestClassification:
    def test_free_projective_all_rings(self):
        for ring in (ZZ, Zmod(3), Zmod(4)):
            for n in (2, 3):
                C = double_cat(n, ring)
                for q in C.vertices:
                    v = classify_object(free_at(C, q, PresentedModule.free(ring, 1)))
                    assert v.is_projective is True
                    assert v.homology_vanishes

    def test_cofree_injective_where_the_ring_allows(self):
        for ring in (Zmod(3), Zmod(4)):
            C = double_cat(2, ring)
            for q in C.vertices:
                v = classify_object(cofree_at(C, q, PresentedModule.free(ring, 1)))
                assert v.is_injective is True

    def test_cofree_over_z_is_not_injective(self):
        # no nonzero finitely generated abelian group is divisible
        C = double_cat(2)
        v = classify_object(cofree_at(C, 1, PresentedModule.free(ZZ, 1)))
        assert v.is_injective is False and v.homology_vanishes

    def test_stalks_neither(self):
        for ring in (ZZ, Zmod(3)):
            C = double_cat(2, ring)
            v = classify_object(stalk_rep(C, 1, PresentedModule.free(ring, 1)))
            assert v.is_projective is False and v.is_injective is False

    def test_gating_over_non_hereditary_ring(self):
        C = double_cat(2, Zmod(4))
        v = classify_object(free_at(C, 1, PresentedModule.free(Zmod(4), 1)))
        assert v.is_exact == "not_theorem_backed"
        assert classify_object(
            free_at(double_cat(2), 1, PresentedModule.free(ZZ, 1))).is_exact is True

    def test_zero_criterion_three_ways(self):
        C = double_cat(2)
        Z = stalk_rep(C, 1, PresentedModule.free(ZZ, 0))
        zt = zero_test(Z)
        assert zt["is_zero"] and zt["routes_agree"]
        S = stalk_rep(C, 1, PresentedModule.free(ZZ, 1))
        zt = zero_test(S)
        assert not zt["is_zero"] and zt["routes_agree"]
        assert zt["witness"][0] == "K"
        F = free_at(C, 1, PresentedModule.free(ZZ, 1))
        zt = zero_test(F)
        assert not zt["is_zero"] and zt["routes_agree"]

    @pytest.mark.parametrize("make", [free_at, cofree_at])
    def test_classify_then_zero_test_reads_each_corner_once(self, monkeypatch, make):
        """qshape classify runs classify_object and then zero_test: mesh
        homology at the 3 vertices of double A_3, then H^0 and H_0 at the 3
        support vertices, kept on X for zero_test (15 calls when zero_test
        computed them again).  Degrees 0 and 1 of side cn and degree 0 of
        side co are their own twin keys, so each of the 9 computes its group
        once, though only 6 of their complexes are distinct."""
        X = make(double_cat(3), 2, PresentedModule.free(ZZ, 1))
        calls = []
        original = homology.middle_homology

        def counting(f, g):
            calls.append(g)
            return original(f, g)
        monkeypatch.setattr(homology, "middle_homology", counting)
        assert classify_object(X).homology_vanishes
        assert zero_test(X)["routes_agree"]
        assert len(X.support) == 3
        assert len(X._homology) == 3 + 2 * 3 == 9
        assert len(calls) == 9
        first, again = corner_functors(X, 2), corner_functors(X, 2)
        assert first.K is again.K and first.C is again.C
        assert len(calls) == 9


class TestWeakEquivalence:
    def test_identity(self):
        C = double_cat(2)
        X = free_at(C, 1, PresentedModule.free(ZZ, 1))
        r = is_weak_equivalence(identity_morphism(X))
        assert r["is_weak_equivalence"] and r["routes_agree"]

    def test_zero_into_free(self):
        C = double_cat(2)
        F = free_at(C, 1, PresentedModule.free(ZZ, 1))
        zero = stalk_rep(C, 1, PresentedModule.free(ZZ, 0))
        assert is_weak_equivalence(zero_morphism(zero, F))["is_weak_equivalence"]

    def test_zero_into_stalk_is_not(self):
        C = double_cat(2)
        S = stalk_rep(C, 1, PresentedModule.free(ZZ, 1))
        zero = stalk_rep(C, 1, PresentedModule.free(ZZ, 0))
        assert not is_weak_equivalence(zero_morphism(zero, S))["is_weak_equivalence"]

    def test_route_agreement_on_a2(self):
        rng = random.Random(21)
        C = double_cat(2, Zmod(3))
        for _ in range(30):
            X = random_free_representation(C, rng)
            Y = random_free_representation(C, rng)
            phi = random_morphism(X, Y, rng)
            r = is_weak_equivalence(phi)
            assert r["routes_agree"]


    def test_depth_below_one_is_refused(self):
        _, _, phi = counter_morphism(QQ)
        for depth in (0, -3):
            with pytest.raises(InvalidParameter):
                is_weak_equivalence(phi, depth)

    def test_derived_data_computed_once_per_probe(self, monkeypatch):
        # once per end at each probe where a middle term on either end has
        # generators: 4 of the 24 probes (once per end at every probe, 48
        # calls, before empty middle terms were read off the closed form)
        _, _, phi = counter_morphism(QQ)
        calls = []
        original = homology.derived_homology_data

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(homology, "derived_homology_data", counting)
        result = is_weak_equivalence(phi, 2)
        probes = homology._cn_probes(phi.source, phi.target, 2)

        def live(q):
            res = resolve_stalk(phi.source.category, q, SIDE_CN, 2)
            return any(Z.pruned()[0].value(r).generators
                       for Z in (phi.source, phi.target)
                       for i in (1, 2) for r in res.terms[i])
        assert len(calls) == 8
        assert sorted(calls) == sorted(2 * [q for q in probes if live(q)])
        for q in probes:
            for i in (1, 2):
                f = derived_homology_map(phi, q, SIDE_CN, i)
                assert result["iso_table"][(format_vertex(q), i)] == \
                    f.is_isomorphism()

    def test_middle_homology_only_for_the_degrees_read(self, monkeypatch):
        """One group kept per degree asked for and per end, each on a
        fresh counterexample: degrees 1 and 2 of source and target at each
        probe of weq, degree 1 of each end for mesh_homology_map, and mesh
        homology at the 9 probes of classify, whose support spans two
        columns.  On the objects weq has read, the groups are kept: its
        probes reach below the support, so they cover both later calls.
        Most probes lie off the support, where the middle term has no
        generators and the group is 0 with no call: 8 of the 96 keys of
        weq call middle_homology, none at the first probe, and 3 of the 9
        of classify (19 and 6 when a call was made wherever any term had
        generators)."""
        calls = []
        original = homology.middle_homology

        def counting(f, g):
            calls.append(g)
            return original(f, g)
        monkeypatch.setattr(homology, "middle_homology", counting)

        def count(call):
            calls.clear()
            call()
            return len(calls)
        X, Y, phi = counter_morphism(QQ)
        probes = homology._cn_probes(phi.source, phi.target, 2)
        assert count(lambda: is_weak_equivalence(phi, 2)) == 8
        assert len(X._homology) + len(Y._homology) == 4 * len(probes) == 96
        _, _, fresh = counter_morphism(QQ)
        assert count(lambda: mesh_homology_map(fresh, probes[0])) == 0
        assert len(fresh.source._homology) == len(fresh.target._homology) == 1
        fresh_X, _, _ = counter_morphism(QQ)
        assert count(lambda: classify_object(fresh_X)) == 3
        assert len(fresh_X._homology) == 9
        assert not classify_object(fresh_X).homology_vanishes
        assert count(lambda: mesh_homology_map(phi, probes[0])) == 0
        assert count(lambda: classify_object(X)) == 0


class TestCounterExample:
    @pytest.mark.parametrize("ring", [QQ, ZZ, Zmod(5)])
    def test_full_story(self, ring):
        X, Y, phi = counter_morphism(ring)
        assert validate_representation(X).ok
        assert validate_representation(Y).ok
        v3, v4 = COUNTER_LABELS[3], COUNTER_LABELS[4]
        for q in X.category.quiver.interior_vertices():
            hx, hy = mesh_homology(X, q), mesh_homology(Y, q)
            if q == v3:
                assert hx.normal_form().free_rank == 1
                assert hy.normal_form().free_rank == 1
            else:
                assert hx.is_zero and hy.is_zero
        assert mesh_homology_map(phi, v3).is_isomorphism()
        K, _ = kernel_of_morphism(phi)
        assert mesh_homology(K, v4).normal_form().free_rank == 1
        assert is_weak_equivalence(phi)["is_weak_equivalence"] is False

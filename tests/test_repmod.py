"""Representations: validation, standard constructions, the chain bridge."""

import random
from collections import Counter

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.errors import InvalidParameter, UnsupportedFlavor, WindowTooSmall
from qshape.quiver import format_vertex, vertex_key
from qshape.repmod import (ChainComplex, Representation, RepMorphism,
                           cofree_at, complex_to_rep, degree_vertex,
                           free_at, kernel_of_morphism, random_complex,
                           random_representation, rep_to_complex,
                           representable_sum, stalk_rep,
                           ValidationReport, validate_morphism,
                           validate_representation)

from oracles import (cofree_at_every_vertex, free_at_every_vertex,
                     random_representation_by_cokernel,
                     representable_sum_by_folding, validate_morphism_by_window_scan,
                     validate_representation_by_window_scan)
from samplers import (cyclic, hom_space_basis, identity_morphism,
                      random_free_representation, random_morphism,
                      representable_rep, zero_morphism)


def double_cat(n, ring=ZZ):
    return MeshCategory(build_double_an(n), ring)


def rep_a2(ring=ZZ, window=(-6, 6)):
    return MeshCategory(build_repetitive_an(2, window), ring)


class TestValidation:
    def test_free_and_cofree_validate(self):
        for n in (2, 3, 4, 5):
            C = double_cat(n)
            for q in C.vertices:
                assert validate_representation(
                    free_at(C, q, PresentedModule.free(ZZ, 1))).ok
                assert validate_representation(
                    cofree_at(C, q, cyclic(ZZ, 4))).ok

    def test_identity_arrows_violate_mesh(self):
        C = double_cat(2)
        one = PresentedModule.free(ZZ, 1)
        X = Representation(C, {1: one, 2: one},
                           {"a1": Matrix.identity(ZZ, 1),
                            "a1*": Matrix.identity(ZZ, 1)})
        report = validate_representation(X)
        assert not report.ok
        assert {r.vertex for r in report.mesh_residuals} == {1, 2}
        assert report.mesh_residuals[0].residual.to_lists() == [[1]]

    def test_bridge_output_validates(self):
        rng = random.Random(3)
        C = rep_a2()
        for _ in range(10):
            complex_ = random_complex(ZZ, rng)
            assert validate_representation(complex_to_rep(C, complex_)).ok


class TestStandardConstructions:
    def test_free_values_and_signs_on_a2(self):
        C = double_cat(2)
        X = free_at(C, 1, PresentedModule.free(ZZ, 1))
        assert X.value(1).describe() == "Z" and X.value(2).describe() == "Z"
        assert X.arrow_matrix("a1").to_lists() == [[-1]]
        assert X.arrow_matrix("a1*").to_lists() == [[0]]

    def test_free_of_zero_module(self):
        C = double_cat(2)
        X = free_at(C, 1, PresentedModule.free(ZZ, 0))
        assert X.is_zero()

    def test_free_rank_at_vertex(self):
        C = double_cat(5)
        X = free_at(C, 2, PresentedModule.free(ZZ, 1))
        assert X.value(2).generators == 2  # d(2, 2) = 2

    def test_cofree_dual_shape(self):
        from qshape.errors import InvalidParameter
        with pytest.raises(InvalidParameter):  # ring mismatch
            cofree_at(double_cat(2), 1, PresentedModule.free(Zmod(5), 1))
        C5 = double_cat(2, Zmod(5))
        G = cofree_at(C5, 1, PresentedModule.free(Zmod(5), 1))
        assert G.value(1).generators == 1 and G.value(2).generators == 1
        a1 = G.arrow_matrix("a1").to_lists()
        a1s = G.arrow_matrix("a1*").to_lists()
        assert a1 == [[0]]
        assert a1s in ([[1]], [[4]])  # acts by +-1

    def test_cofree_rank_example(self):
        C = double_cat(5)
        G = cofree_at(C, 3, PresentedModule.free(ZZ, 1))
        assert G.value(1).generators == 1  # d(1, 3) = 1

    def test_stalk(self):
        C = double_cat(2)
        S = stalk_rep(C, 1, PresentedModule.free(ZZ, 1))
        assert S.value(1).describe() == "Z" and S.value(2).is_zero
        assert S.support == {1}

    def test_representable_ranks(self):
        C = double_cat(3)
        R = representable_rep(C, 1)
        assert [R.value(q).generators for q in C.vertices] == [1, 1, 1]
        C5 = double_cat(5)
        R5 = representable_rep(C5, 3)
        assert [R5.value(q).generators for q in C5.vertices] == [1, 2, 3, 2, 1]

    def test_repetitive_representable_support(self):
        C = rep_a2()
        R = representable_rep(C, (1, 0))
        assert R.support == {(1, 0), (2, 0)}

    def test_direct_sum_validates(self):
        C = double_cat(3)
        X = free_at(C, 1, PresentedModule.free(ZZ, 1))
        Y = cofree_at(C, 2, cyclic(ZZ, 2))
        assert validate_representation(X.direct_sum(Y)).ok


class TestMorphisms:
    def test_identity_and_zero_are_natural(self):
        C = double_cat(3)
        X = free_at(C, 2, PresentedModule.free(ZZ, 1))
        assert validate_morphism(identity_morphism(X))["ok"]
        assert validate_morphism(zero_morphism(X, X))["ok"]

    def test_kernel_of_identity_is_zero(self):
        C = double_cat(2)
        X = free_at(C, 1, PresentedModule.free(ZZ, 1))
        K, _ = kernel_of_morphism(identity_morphism(X))
        assert K.is_zero()

    def test_kernel_of_zero_map_is_everything(self):
        C = double_cat(2)
        X = free_at(C, 1, PresentedModule.free(ZZ, 1))
        zero = stalk_rep(C, 1, PresentedModule.free(ZZ, 0))
        K, _ = kernel_of_morphism(zero_morphism(X, zero))
        for q in C.vertices:
            assert K.value(q).normal_form() == X.value(q).normal_form()

    def test_random_morphisms_are_natural(self):
        rng = random.Random(11)
        C = double_cat(2, Zmod(3))
        for _ in range(25):
            X = random_free_representation(C, rng)
            Y = random_free_representation(C, rng)
            phi = random_morphism(X, Y, rng)
            assert validate_morphism(phi)["ok"]

    def test_hom_space_yoneda_fingerprint(self):
        rng = random.Random(12)
        C = double_cat(3, Zmod(3))
        for _ in range(8):
            X = random_free_representation(C, rng)
            for q in C.vertices:
                F = free_at(C, q, PresentedModule.free(Zmod(3), 1))
                basis, _ = hom_space_basis(F, X)
                assert len(basis) == X.value(q).generators


class TestBridge:
    def test_two_term_identity_complex(self):
        C = rep_a2()
        cc = ChainComplex(ZZ, {0: PresentedModule.free(ZZ, 1),
                               1: PresentedModule.free(ZZ, 1)},
                          {1: Matrix.identity(ZZ, 1)})
        X = complex_to_rep(C, cc)
        assert X.support == {(1, 0), (2, 1)}
        assert validate_representation(X).ok

    def test_zero_complex(self):
        C = rep_a2()
        X = complex_to_rep(C, ChainComplex(ZZ, {}, {}))
        assert X.is_zero()

    def test_round_trip_many(self):
        rng = random.Random(5)
        for ring in (ZZ, Zmod(5)):
            C = rep_a2(ring)
            for _ in range(25):
                cc = random_complex(ring, rng)
                assert cc.is_complex()
                back = rep_to_complex(complex_to_rep(C, cc))
                for k in set(cc.modules) | set(back.modules):
                    assert cc.module(k).normal_form() == back.module(k).normal_form()
                    assert cc.differential(k) == back.differential(k)

    def test_mesh_at_degree_k_minus_one_has_degree_k_in_its_middle(self):
        quiver = rep_a2().quiver
        for k in range(-8, 9):
            mesh = quiver.mesh_at(degree_vertex(k - 1))
            assert mesh.tau_vertex == degree_vertex(k + 1)
            assert [a.source for a in mesh.arrows] == [degree_vertex(k)]
            assert [a.target for a in mesh.paired] == [degree_vertex(k)]

    def test_degree_in_the_last_column_realizes(self):
        # degree 6 lands at 1@3, the last column of (-3, 3); on ZA_n every
        # mesh the window cuts has an end off it, where X is zero
        C = rep_a2(window=(-3, 3))
        assert degree_vertex(6) == (1, 3) and not C.quiver.is_interior((1, 3))
        one = PresentedModule.free(ZZ, 1)
        cc = ChainComplex(ZZ, {4: one, 5: one, 6: one},
                          {5: Matrix.zeros(ZZ, 1, 1),
                           6: Matrix.identity(ZZ, 1).scale(2)})
        X = complex_to_rep(C, cc)
        assert X.support == {(1, 2), (2, 3), (1, 3)}
        assert validate_representation(X).ok
        back = rep_to_complex(X)
        assert back.degrees() == cc.degrees()
        for k in range(3, 8):
            assert back.module(k).normal_form() == cc.module(k).normal_form()
            assert back.differential(k) == cc.differential(k)

    def test_window_too_small(self):
        C = rep_a2(window=(0, 1))
        cc = ChainComplex(ZZ, {k: PresentedModule.free(ZZ, 1) for k in range(7)}, {})
        with pytest.raises(WindowTooSmall):
            complex_to_rep(C, cc)

    def test_wrong_flavor_rejected(self):
        C = double_cat(2)
        with pytest.raises(UnsupportedFlavor):
            complex_to_rep(C, ChainComplex(ZZ, {}, {}))

    def test_d_squared_zero_iff_mesh(self):
        # a non-complex pushed through the vertex/arrow assignment fails the mesh check
        C = rep_a2()
        one = PresentedModule.free(ZZ, 1)
        cc = ChainComplex(ZZ, {0: one, 1: one, 2: one},
                          {1: Matrix.identity(ZZ, 1), 2: Matrix.identity(ZZ, 1)})
        assert not cc.is_complex()
        X = complex_to_rep(C, cc)
        assert not validate_representation(X).ok


class TestRandomReps:
    def test_cokernel_reps_validate(self):
        rng = random.Random(17)
        for n in (2, 3):
            C = double_cat(n, Zmod(3))
            for _ in range(10):
                assert validate_representation(random_representation(C, rng)).ok

    def test_cokernel_reps_on_repetitive_windows_validate(self):
        # the sampler draws its summands at interior vertices, so these 30
        # seeds per ring draw what they drew when the last column was
        # refused
        for n in (2, 3):
            for ring in (ZZ, QQ, Zmod(3), Zmod(9)):
                C = MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
                for s in range(30):
                    X = random_representation(C, random.Random(s))
                    assert validate_representation(X).ok, (n, ring, s)

    def test_free_sampler_all_n(self):
        rng = random.Random(18)
        for n in (2, 3, 4):
            C = double_cat(n, Zmod(3))
            for _ in range(10):
                assert validate_representation(
                    random_free_representation(C, rng)).ok

    def test_free_sampler_on_repetitive_windows(self):
        # values only at interior vertices; every draw satisfies the mesh
        # relations
        for n in (2, 3):
            for p in (2, 3, 5):
                rng = random.Random(10 * n + p)
                C = MeshCategory(build_repetitive_an(n, (-3, 3)), Zmod(p))
                draws = [random_free_representation(C, rng) for _ in range(15)]
                assert all(validate_representation(X).ok for X in draws)
                assert sum(not X.is_zero() for X in draws) >= 10


RINGS = [ZZ, QQ, Zmod(3), Zmod(9)]


def corpus(ring):
    """Double A_2..A_5 and the repetitive windows the derived goldens use."""
    cats = [double_cat(n, ring) for n in (2, 3, 4, 5)]
    return cats + [rep_a2(ring), MeshCategory(build_repetitive_an(3, (-8, 8)), ring)]


def assert_same_representation(X, Y):
    """The same values, relations included, and the same arrow matrices
    under the same names in the same order; value order is not compared."""
    assert X.category is Y.category
    assert X.values.keys() == Y.values.keys()
    for v, m in X.values.items():
        assert m.generators == Y.values[v].generators, v
        assert m.relations == Y.values[v].relations, v
    assert list(X.arrow_maps) == list(Y.arrow_maps)
    for name, M in X.arrow_maps.items():
        assert M == Y.arrow_maps[name], name


@pytest.mark.parametrize("ring", RINGS, ids=["Z", "Q", "F3", "Z9"])
class TestAgainstLongRoutes:
    """The constructions against the routes they replaced (tests/oracles.py):
    every vertex asked for its rank, binary direct sums folded, and the
    cokernel of a morphism between two sums of representables."""

    def test_free_and_cofree(self, ring):
        modules = [PresentedModule.free(ring, 0), PresentedModule.free(ring, 1),
                   PresentedModule(ring, 2, Matrix.column(ring, [2, 0]))]
        for C in corpus(ring):
            for q in C.vertices:
                for M in modules:
                    assert_same_representation(free_at(C, q, M),
                                               free_at_every_vertex(C, q, M))
                    assert_same_representation(cofree_at(C, q, M),
                                               cofree_at_every_vertex(C, q, M))

    def test_representable_sums(self, ring):
        for C in corpus(ring):
            rng = random.Random(len(C.vertices))
            lists = [[v] for v in C.vertices[::3]]
            lists += [[v, v] for v in C.vertices[1::5]]
            for _ in range(8):
                drawn = [rng.choice(C.vertices) for _ in range(rng.randint(2, 5))]
                lists.append(drawn + [drawn[0]])  # one repeat at least
            for vertices in lists:
                assert_same_representation(representable_sum(C, vertices),
                                           representable_sum_by_folding(C, vertices))

    def test_random_representations(self, ring):
        for C in corpus(ring):
            for seed in range(4):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                X = random_representation(C, rng, summands=5)
                Y = random_representation_by_cokernel(C, ref_rng, summands=5)
                assert_same_representation(X, Y)
                assert rng.random() == ref_rng.random()  # the same draws


def perturbed(M, widen):
    """The zero matrix one column wider than M, or M with 1 added to its
    first entry."""
    if widen:
        return Matrix.zeros(M.ring, M.rows, M.cols + 1)
    return M + Matrix(M.ring, M.rows, M.cols, [1] + [0] * (M.rows * M.cols - 1))


def validation_inputs(C, rng):
    """Representations and morphisms to validate on one category: seeded
    draws, each with one arrow entry perturbed and one arrow widened by a
    column; the scalar 2·1_X, with one component entry perturbed and one
    component widened; a value at the window's last vertex; and an arrow
    and a component that break a relation."""
    ring = C.ring
    one = PresentedModule.free(ring, 1)
    reps, morphisms = [], []
    for _ in range(3):
        X = random_representation(C, rng)
        reps.append(X)
        live = [name for name, M in X.arrow_maps.items() if M.rows and M.cols]
        for widen in (False, True):
            maps = dict(X.arrow_maps)
            if live:
                name = rng.choice(live)
                maps[name] = perturbed(maps[name], widen)
            reps.append(Representation(C, X.values, maps))
        comps = {v: Matrix.identity(ring, m.generators).scale(2)
                 for v, m in X.values.items()}
        morphisms.append(RepMorphism(X, X, comps))
        for widen in (False, True):
            broken = dict(comps)
            v = rng.choice(sorted(comps, key=vertex_key))
            broken[v] = perturbed(comps[v], widen)
            morphisms.append(RepMorphism(X, X, broken))
    reps += [stalk_rep(C, C.vertices[-1], one), free_at(C, C.vertices[-1], one)]
    # a relation the map does not respect: Z/3 (or 0 over a field) into R
    a = rng.choice(C.quiver.arrows)
    torsion = PresentedModule(ring, 1, Matrix(ring, 1, 1, [1 if ring.is_field else 3]))
    reps.append(Representation(C, {a.source: torsion, a.target: one},
                               {a.name: Matrix.identity(ring, 1)}))
    morphisms.append(RepMorphism(stalk_rep(C, a.source, torsion),
                                 stalk_rep(C, a.source, one),
                                 {a.source: Matrix.identity(ring, 1)}))
    return reps, morphisms


def validation_outcome(check, arg):
    """What a validation returns, or "raises" where a product of matrices
    of mismatched shapes is refused."""
    try:
        result = check(arg)
    except InvalidParameter:
        return "raises"
    return result.describe() if isinstance(result, ValidationReport) else result


def shape_reported(kind, report) -> bool:
    """Whether a validation report names a map of the wrong shape."""
    if kind == "representation":
        return bool(report["bad_arrows"])
    return any(what == "shape" for what, _ in report["failures"])


@pytest.mark.parametrize("ring", RINGS, ids=["Z", "Q", "F3", "Z9"])
def test_validation_reads_what_it_holds_as_the_window_scan(ring):
    # validate_representation reads X's arrows and the meshes at its values,
    # validate_morphism the arrows into Y's values; each reports what the
    # scan of the whole window reported (tests/oracles.py).  Where the scan
    # raised, on a widened map in a mesh or square, the check skips that
    # mesh or square and reports the map's shape
    cats = ([double_cat(n, ring) for n in (2, 3, 4)]
            + [MeshCategory(build_repetitive_an(n, window), ring)
               for n in (2, 3) for window in ((-3, 3), (-60, 60))])
    seen = Counter()
    for k, C in enumerate(cats):
        reps, morphisms = validation_inputs(C, random.Random(f"validate:{ring!r}:{k}"))
        for kind, check, oracle, args in (
                ("representation", validate_representation,
                 validate_representation_by_window_scan, reps),
                ("morphism", validate_morphism, validate_morphism_by_window_scan,
                 morphisms)):
            for arg in args:
                want = validation_outcome(oracle, arg)
                got = validation_outcome(check, arg)
                assert got != "raises", (C, kind)
                if want == "raises":
                    assert not got["ok"] and shape_reported(kind, got), (C, kind)
                    seen[kind, "reported"] += 1
                    continue
                assert got == want, (C, kind)
                seen[kind, want["ok"]] += 1
    assert all(seen[kind, ok] for kind in ("representation", "morphism")
               for ok in (True, False, "reported")), seen


@pytest.mark.parametrize("ring", RINGS, ids=["Z", "Q", "F3", "Z9"])
def test_a_misshapen_arrow_map_is_reported_by_both_validations(ring):
    # the mesh and the naturality square through an arrow map one column
    # wider, or over another ring, have no product; each validation
    # reports the map instead of raising
    C = double_cat(3, ring)
    X = random_representation(C, random.Random(f"misshapen:{ring!r}"))
    other = QQ if ring != QQ else ZZ
    comps = {v: Matrix.identity(ring, m.generators) for v, m in X.values.items()}
    for name, M in X.arrow_maps.items():
        if not (M.rows and M.cols):
            continue
        for bad in (perturbed(M, True), Matrix.zeros(other, M.rows, M.cols)):
            W = Representation(C, X.values, {**X.arrow_maps, name: bad})
            report = validate_representation(W)
            assert not report.ok and name in report.bad_arrows
            for phi in (RepMorphism(W, X, comps), RepMorphism(X, W, comps)):
                result = validate_morphism(phi)
                assert not result["ok"] and ("shape", name) in result["failures"]
    v = next(iter(comps))
    result = validate_morphism(RepMorphism(X, X, {**comps, v: Matrix.identity(
        other, X.value(v).generators)}))
    assert not result["ok"] and ("shape", format_vertex(v)) in result["failures"]

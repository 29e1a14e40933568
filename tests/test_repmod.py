"""Representations: validation, standard constructions, the chain bridge."""

import random

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.errors import UnsupportedFlavor, WindowTooSmall
from qshape.repmod import (ChainComplex, Representation, RepMorphism,
                           cofree_at, complex_to_rep,
                           free_at, hom_space_basis, identity_morphism,
                           kernel_of_morphism, random_complex,
                           random_free_representation, random_morphism,
                           random_representation, rep_to_complex,
                           representable_rep, stalk_rep,
                           validate_morphism, validate_representation,
                           zero_morphism)


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
                    cofree_at(C, q, PresentedModule.cyclic(ZZ, 4))).ok

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
        Y = cofree_at(C, 2, PresentedModule.cyclic(ZZ, 2))
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

    def test_free_sampler_all_n(self):
        rng = random.Random(18)
        for n in (2, 3, 4):
            C = double_cat(n, Zmod(3))
            for _ in range(10):
                assert validate_representation(
                    random_free_representation(C, rng)).ok

    def test_free_sampler_on_repetitive_windows(self):
        # values only at interior vertices, so every draw passes the
        # support check as well as the mesh relations
        for n in (2, 3):
            for p in (2, 3, 5):
                rng = random.Random(10 * n + p)
                C = MeshCategory(build_repetitive_an(n, (-3, 3)), Zmod(p))
                draws = [random_free_representation(C, rng) for _ in range(15)]
                assert all(validate_representation(X).ok for X in draws)
                assert sum(not X.is_zero() for X in draws) >= 10

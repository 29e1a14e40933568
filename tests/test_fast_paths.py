"""Differential tests of the derived-homology fast paths against the
routes they replaced (kept in oracles.py): seeded representations over
every ring kind, on both flavors."""

import random
from fractions import Fraction

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.errors import InvalidParameter, NotWellDefined
from qshape.exactalg import ModuleMap, middle_homology, solve_matrix
from qshape.homology import (SIDE_CN, SIDE_CO, _complex_from_resolution,
                             _Side, derived_homology, resolve_stalk)
from qshape.repmod import random_complex, random_representation

from oracles import (evaluate_from_identity, mesh_complex,
                     middle_homology_three_eliminations, radical_filtration,
                     radical_filtration_all_degrees, radical_head, radical_out)
from samplers import cyclic


RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
SIDES = (SIDE_CN, SIDE_CO)


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(2, (-6, 6)), ring),
               MeshCategory(build_repetitive_an(3, (-8, 8)), ring)])


def draws(C, seed, count=2):
    rng = random.Random(seed)
    return [random_representation(C, rng) for _ in range(count)]


def spans_equal(a: Matrix, b: Matrix) -> bool:
    """Each matrix's columns lie in the column span of the other's."""
    return solve_matrix(a, b) is not None and solve_matrix(b, a) is not None


def assert_same_middle_homology(f, g):
    try:
        want = middle_homology_three_eliminations(f, g)
    except NotWellDefined:
        with pytest.raises(NotWellDefined):
            middle_homology(f, g)
        return
    got = middle_homology(f, g)
    assert got.cycle_gens == want.cycle_gens
    assert got.module.generators == want.module.generators
    assert got.module.normal_form() == want.module.normal_form()
    assert spans_equal(got.module.relations, want.module.relations)


def paired_complex(X, q, side, max_degree):
    """The engine and the maps of the paired complex to max_degree + 1."""
    res = resolve_stalk(X.category, q, side, max_degree + 1)
    _, maps = _complex_from_resolution(res, X, max_degree + 2)
    return res._engine, maps


class TestMiddleHomology:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_derived_and_mesh_complexes_match_three_eliminations(self, ring):
        for k, C in enumerate(categories(ring)):
            for X in draws(C, 100 + k):
                for q in C.quiver.interior_vertices():
                    assert_same_middle_homology(*mesh_complex(X, q))
                    for side in SIDES:
                        eng, maps = paired_complex(X, q, side, 3)
                        for i in range(4):
                            assert_same_middle_homology(
                                *eng.ends(maps[i], maps[i + 1]))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_chain_complexes_match_three_eliminations(self, ring):
        rng = random.Random(7)
        for _ in range(20):
            cx = random_complex(ring, rng)
            for k in range(-1, max(cx.degrees()) + 2):
                f = ModuleMap(cx.module(k + 1), cx.module(k),
                              cx.differential(k + 1), check=False)
                g = ModuleMap(cx.module(k), cx.module(k - 1),
                              cx.differential(k), check=False)
                assert_same_middle_homology(f, g)

    def test_nonzero_composite_is_refused(self):
        # B = Z, C = Z: g·f = 2 is not zero in C
        A, B, C = (PresentedModule.free(ZZ, 1) for _ in range(3))
        f = ModuleMap(A, B, Matrix(ZZ, 1, 1, [1]))
        g = ModuleMap(B, C, Matrix(ZZ, 1, 1, [2]))
        for route in (middle_homology, middle_homology_three_eliminations):
            with pytest.raises(NotWellDefined):
                route(f, g)

    def test_composite_in_the_relations_is_accepted(self):
        # C = Z/4: g·f = 4 is nonzero on generators but zero in C, so
        # H = ker(Z -> Z/4, 1 -> 2) / 2Z = 2Z / 2Z = 0
        A, B = PresentedModule.free(ZZ, 1), PresentedModule.free(ZZ, 1)
        C = cyclic(ZZ, 4)
        f = ModuleMap(A, B, Matrix(ZZ, 1, 1, [2]))
        g = ModuleMap(B, C, Matrix(ZZ, 1, 1, [2]))
        assert not (g.matrix * f.matrix).is_zero
        got = middle_homology(f, g)
        assert got.module.is_zero
        assert_same_middle_homology(f, g)


class TestRadicalFiltration:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_degree_p_generators_match_all_of_the_radical_power(self, ring):
        for k, C in enumerate(categories(ring)):
            for X in draws(C, 200 + k):
                for q in C.vertices:
                    for power in range(C.nilpotency_index() + 1):
                        k_new, _, c_new = radical_filtration(X, q, power)
                        k_old, _, c_old = radical_filtration_all_degrees(
                            X, q, power)
                        assert k_new.normal_form() == k_old.normal_form()
                        assert c_new.normal_form() == c_old.normal_form()


class TestEvaluateMatrix:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_path_products_match_products_from_the_identity(self, ring):
        for k, C in enumerate(categories(ring)):
            X = draws(C, 300 + k, count=1)[0]
            for q in C.vertices:
                for e in radical_out(C, q, 0):
                    want = evaluate_from_identity(X, e)
                    assert X.evaluate_matrix(ring.one, e) == want
                    assert X.evaluate_matrix(7, e) == want.scale(7)
                    assert X.evaluate_matrix(Fraction(16, 1), e) == \
                        want.scale(16)

    @pytest.mark.parametrize("coeff", [1.0, True, Fraction(1, 2)],
                             ids=["1.0", "True", "1/2"])
    def test_inexact_coefficients_are_refused(self, coeff):
        C = MeshCategory(build_double_an(3), ZZ)
        X = draws(C, 3, count=1)[0]
        for q in C.vertices:
            for e in radical_out(C, q, 0):
                with pytest.raises(InvalidParameter):
                    X.evaluate_matrix(coeff, e)

    @pytest.mark.parametrize("ring, inexact",
                             [(ZZ, (0.5, 1.0, True, Fraction(1, 2))),
                              (Zmod(9), (0.5,))], ids=["ZZ", "Zmod(9)"])
    def test_kept_matrices_refuse_inexact_coefficients(self, ring, inexact):
        # X(coeff * e) is kept per (ring.element(coeff), e): a repeated or
        # equal coefficient returns the kept matrix, and a warm entry under
        # 1 lets no inexact coefficient equal to 1 through
        C = MeshCategory(build_double_an(3), ring)
        X = draws(C, 3, count=1)[0]
        for q in C.vertices:
            for e in radical_out(C, q, 0):
                first = X.evaluate_matrix(1, e)
                assert first == evaluate_from_identity(X, e)
                assert X.evaluate_matrix(1, e) is first
                assert X.evaluate_matrix(Fraction(1), e) is first
                assert X.evaluate_matrix(ring.canon(10), e) == first.scale(10)
                for coeff in inexact:
                    with pytest.raises(InvalidParameter):
                        X.evaluate_matrix(coeff, e)


class TestResolutionHead:
    def test_arrows_give_the_radical_scan_order(self):
        # the radical is scanned on a window that holds every arrow at q,
        # also at the edge of the window (-6, 6), where the head reads
        # arrows past it
        cases = 0
        for ring in (ZZ, Zmod(9)):
            cats = ([(MeshCategory(build_double_an(n), ring),) * 2
                     for n in (2, 3, 5, 8)]
                    + [(MeshCategory(build_repetitive_an(n, (-6, 6)), ring),
                        MeshCategory(build_repetitive_an(n, (-8, 8)), ring))
                       for n in (2, 3, 4)])
            for C, W in cats:
                for side in SIDES:
                    eng, wide = _Side(C, side), _Side(W, side)
                    for q in C.vertices:
                        scan = [(e, r) for e, r in radical_head(wide, q)
                                if e.degree == 1]
                        assert eng.head(q) == scan, (C, side, q)
                        cases += 1
        assert cases == 2 * 2 * (2 + 3 + 5 + 8 + 13 * (2 + 3 + 4))


class TestAssemblyLevels:
    @pytest.mark.parametrize("ring", (ZZ, Zmod(9)), ids=str)
    def test_longer_cached_resolutions_assemble_only_levels_read(self, ring):
        C = MeshCategory(build_double_an(5), ring)
        X = draws(C, 11, count=1)[0]
        short = {(q, side): derived_homology(X, q, side, 1)
                 for q in C.vertices for side in SIDES}
        for q in C.vertices:
            for side in SIDES:
                res = resolve_stalk(C, q, side, 7)
                modules, maps = _complex_from_resolution(res, X, 3)
                assert len(modules) == 3 and sorted(maps) == [0, 1, 2]
                fresh = derived_homology(X, q, side, 1)
                assert {i: m.normal_form() for i, m in fresh.items()} == \
                    {i: m.normal_form() for i, m in short[(q, side)].items()}

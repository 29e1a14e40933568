"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible under ``pytest -s``) with
its runtime; stated time budgets are asserted.  Everything is exact
arithmetic: equality of matrices and of invariant-factor normal forms,
never approximate comparison.
"""

import random
import time

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.exactalg import matrix_is_invertible, smith_normal_form
from qshape.fixtures import COUNTER_LABELS, counter_morphism
from qshape.homology import (SIDE_CN, SIDE_CO, classify_object,
                             corner_functors, derived_homology,
                             derived_homology_map, is_weak_equivalence,
                             mesh_homology, mesh_homology_map, zero_test)
from qshape.repmod import (cofree_at, complex_to_rep, free_at,
                           kernel_of_morphism, random_complex,
                           random_representation, stalk_rep,
                           validate_representation)

from oracles import (brute_force_injective, brute_force_projective, divides,
                     elements, radical_basis)
from samplers import (cyclic, from_invariant_factors, random_free_representation,
                      random_morphism, representable_rep)


def _report(number, name, t0, budget=None):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_dimension_formula():
    t0 = time.time()
    for n in range(2, 7):
        C = MeshCategory(build_double_an(n), ZZ)
        for p in C.vertices:
            for q in C.vertices:
                expected = min(p, q, n + 1 - p, n + 1 - q)
                assert C.d(p, q) == expected
                assert C.oracle_hom_rank(p, q) == expected
    _report(1, "dimension formula vs oracle, n=2..6", t0, budget=10)


def test_criterion_02_nilpotency():
    t0 = time.time()
    for n in range(2, 7):
        C = MeshCategory(build_double_an(n), ZZ)
        assert C.nilpotency_index() == n
        for p in C.vertices:
            for q in C.vertices:
                assert radical_basis(C, p, q, n) == ()
        witnesses = [1 for p in C.vertices for q in C.vertices
                     if radical_basis(C, p, q, n - 1)]
        assert witnesses, f"radical power {n - 1} vanished for n={n}"
    _report(2, "radical power n vanishes, power n-1 does not", t0)


def test_criterion_03_multiplication_matrices():
    t0 = time.time()
    for n in range(2, 7):
        C = MeshCategory(build_double_an(n), ZZ)
        for p in range(1, n + 1):
            for q in range(1, n):
                plain = C.quiver.arrow(f"a{q}")
                star = C.quiver.arrow(f"a{q}*")
                assert C.arrow_mult_matrix(p, q, False) == C.arrow_left_mult(plain, p)
                assert C.arrow_mult_matrix(p, q, True) == C.arrow_left_mult(star, p)
    _report(3, "closed multiplication forms equal oracle, n=2..6", t0, budget=30)


def test_criterion_04_serre_functor():
    t0 = time.time()
    for n in range(2, 7):
        for ring in (ZZ, Zmod(5)):
            report = MeshCategory(build_double_an(n), ring).serre_report()
            assert report["involution_on_generators"], (n, ring)
            assert report["mesh_relations_preserved"], (n, ring)
            assert report["pairings_invertible"], (n, ring)
            assert report["naturality_squares_commute"], (n, ring)
    _report(4, "Serre involution, relations, pairings, naturality", t0)


def test_criterion_05_normality():
    t0 = time.time()
    for n in range(2, 6):
        C = MeshCategory(build_double_an(n), ZZ)
        for p in C.vertices:
            R = representable_rep(C, p)
            for q in C.vertices:
                assert mesh_homology(R, q).is_zero, (n, p, q)
    for n in range(2, 5):
        C = MeshCategory(build_repetitive_an(n, (-n, n)), ZZ)  # width 2n+1
        for p in C.vertices:
            R = representable_rep(C, p)
            for q in C.quiver.interior_vertices():
                assert mesh_homology(R, q).is_zero, (n, p, q)
    _report(5, "representables have zero mesh homology", t0)


def test_criterion_06_counterexample_end_to_end():
    t0 = time.time()
    X, Y, phi = counter_morphism(QQ)
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
    _report(6, "homology-iso morphism that is no weak equivalence", t0, budget=1)


def test_criterion_07_chain_complex_bridge():
    t0 = time.time()
    for ring in (ZZ, Zmod(5)):
        rng = random.Random(7)
        C = MeshCategory(build_repetitive_an(2, (-10, 10)), ring)
        for _ in range(50):
            cc = random_complex(ring, rng)
            assert cc.is_complex()
            assert all(m.generators <= 4 for m in cc.modules.values())
            rep = complex_to_rep(C, cc)
            direct_all_zero = True
            for k in cc.degrees():
                direct = cc.homology(k).normal_form()
                if not direct.is_zero:
                    direct_all_zero = False
                vertex = (2, k // 2) if k % 2 == 0 else (1, (k - 1) // 2)
                assert mesh_homology(rep, vertex).normal_form() == direct, \
                    (ring, k)
            bridge_exact = classify_object(rep).homology_vanishes
            assert bridge_exact == direct_all_zero
    _report(7, "bridge homology equals direct chain homology, 2x50 complexes",
            t0, budget=30)


def test_criterion_08_projective_injective_predicates():
    t0 = time.time()
    rings = (ZZ, Zmod(3), Zmod(4))
    for ring in rings:
        for n in (2, 3, 4):
            C = MeshCategory(build_double_an(n), ring)
            one = PresentedModule.free(ring, 1)
            for q in C.vertices:
                vf = classify_object(free_at(C, q, one))
                assert vf.is_projective is True, (ring, n, q)
                vg = classify_object(cofree_at(C, q, one))
                if ring.kind == "Z":
                    # no nonzero finitely generated module over the integers
                    # is injective, so the cofree object cannot be either
                    assert vg.is_injective is False, (n, q)
                    assert vg.homology_vanishes
                else:
                    assert vg.is_injective is True, (ring, n, q)
                vs = classify_object(stalk_rep(C, q, one))
                assert vs.is_projective is False and vs.is_injective is False
    _report(8, "free objects projective, cofree injective, stalks neither", t0)


def test_criterion_09_three_route_consistency():
    t0 = time.time()
    rng = random.Random(9)
    F3 = Zmod(3)
    exact_seen = nonexact_seen = 0
    for n, count in ((2, 80), (3, 70), (4, 50)):
        C = MeshCategory(build_double_an(n), F3)
        for _ in range(count):
            X = random_representation(C, rng)
            mesh = {q: mesh_homology(X, q) for q in C.vertices}
            hcn = {q: derived_homology(X, q, SIDE_CN, 3) for q in C.vertices}
            hco = {q: derived_homology(X, q, SIDE_CO, 3) for q in C.vertices}
            route_mesh = all(h.is_zero for h in mesh.values())
            route_hi = all(hcn[q][i].is_zero
                           for q in C.vertices for i in (1, 2, 3))
            route_hco = all(hco[q][i].is_zero
                            for q in C.vertices for i in (1, 2, 3))
            assert route_mesh == route_hi == route_hco, (n, route_mesh,
                                                         route_hi, route_hco)
            for q in C.vertices:
                assert hcn[q][1].normal_form() == mesh[q].normal_form(), (n, q)
            exact_seen += route_mesh
            nonexact_seen += not route_mesh
    assert exact_seen and nonexact_seen  # both outcomes exercised
    _report(9, f"three exactness routes agree on 200 objects "
               f"({exact_seen} exact / {nonexact_seen} not)", t0, budget=60)


def test_criterion_10_degree_one_route_agreement():
    t0 = time.time()
    rng = random.Random(10)
    C = MeshCategory(build_double_an(2), Zmod(3))
    assert C.nilpotency_index() == 2
    for _ in range(100):
        X = random_free_representation(C, rng)
        Y = random_free_representation(C, rng)
        phi = random_morphism(X, Y, rng)
        result = is_weak_equivalence(phi)
        assert result["routes_agree"], result
    _report(10, "degree-one route decides when the radical squares to zero", t0)


def test_criterion_11_corner_identities():
    t0 = time.time()
    modules = {
        ZZ: [PresentedModule.free(ZZ, 1),
             from_invariant_factors(ZZ, [2, 0])],
        Zmod(3): [PresentedModule.free(Zmod(3), 2)],
        Zmod(4): [PresentedModule.free(Zmod(4), 1),
                  cyclic(Zmod(4), 2)],
    }
    fixtures = []
    for ring, mods in modules.items():
        C = MeshCategory(build_double_an(3), ring)
        for M in mods:
            for p in C.vertices:
                F = free_at(C, p, M)
                G = cofree_at(C, p, M)
                fixtures += [F, G]
                for q in C.vertices:
                    corner = corner_functors(F, q)
                    if q == p:
                        assert corner.C.normal_form() == M.normal_form()
                    else:
                        assert corner.C.is_zero
                    hf = derived_homology(F, q, SIDE_CN, 2)
                    assert hf[1].is_zero and hf[2].is_zero
                    hg = derived_homology(G, q, SIDE_CO, 2)
                    assert hg[1].is_zero and hg[2].is_zero
            fixtures.append(stalk_rep(C, 2, M))
            fixtures.append(stalk_rep(C, 1, PresentedModule.free(ring, 0)))
    for X in fixtures:
        assert zero_test(X)["routes_agree"]
    _report(11, "corner identities, acyclicity, zero criterion", t0)


def test_criterion_12_exact_linear_algebra_oracles():
    t0 = time.time()
    rng = random.Random(12)
    cases = [(ZZ, 200), (Zmod(4), 150), (Zmod(9), 150)]
    for ring, count in cases:
        for _ in range(count):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            M = Matrix(ring, rows, cols,
                       [ring.canon(rng.randint(-5, 5)) for _ in range(rows * cols)])
            S, U, V = smith_normal_form(M)
            assert U * M * V == S
            assert matrix_is_invertible(U) and matrix_is_invertible(V)
            diag = [S[i, i] for i in range(min(rows, cols))]
            for a, b in zip(diag, diag[1:]):
                assert divides(ring, a, b)
            for i in range(S.rows):
                for j in range(S.cols):
                    if i != j:
                        assert S[i, j] == ring.zero
    small = []
    for m in (2, 3):
        ring = Zmod(m)
        small += [from_invariant_factors(ring, fs)
                  for fs in ([], [0], [0, 0])]
    ring = Zmod(4)
    small += [from_invariant_factors(ring, fs)
              for fs in ([], [2], [0], [2, 2], [2, 0], [2, 2, 2])]
    for module in small:
        if len(elements(module)) > 8:
            continue
        assert module.is_projective() == brute_force_projective(module)
        assert module.is_injective() == brute_force_injective(module)
    _report(12, "Smith identities x500 and exhaustive module predicates", t0)

"""Mesh categories: graded bases, composition, closed forms, Serre data."""

import itertools
from fractions import Fraction

import pytest

from qshape import (Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an,
                    build_repetitive_an)
from qshape.errors import EndpointMismatch, InvalidParameter, UnsupportedFlavor
from qshape.meshcat import BasisElement

from oracles import graded_dim, radical_basis, radical_in, radical_out
from path_oracle import (all_pairs_support, path_graded_dims,
                         scanned_nilpotency_index)


def double_cat(n, ring=ZZ):
    return MeshCategory(build_double_an(n), ring)


def rep_cat(n, window=None, ring=ZZ):
    if window is None:
        window = (-2 * n, 2 * n)
    return MeshCategory(build_repetitive_an(n, window), ring)


class TestHomBasis:
    def test_a5_pair_2_3(self):
        basis = double_cat(5).hom_basis(2, 3)
        assert [b.degree for b in basis] == [1, 3]

    def test_identity_always_present(self):
        for n in (2, 3, 4):
            C = double_cat(n)
            for q in C.vertices:
                assert C.hom_basis(q, q)[0].degree == 0

    def test_repetitive_rank_at_most_one(self):
        C = rep_cat(3)
        assert [b.degree for b in C.hom_basis((1, 0), (3, 0))] == [2]
        assert C.hom_basis((1, 0), (1, -1)) == ()

    def test_dimension_formula_and_oracle(self):
        for n in range(2, 7):
            C = double_cat(n)
            for p in C.vertices:
                for q in C.vertices:
                    d = min(p, q, n + 1 - p, n + 1 - q)
                    assert C.d(p, q) == d
                    assert C.oracle_hom_rank(p, q) == d

    def test_graded_dim_examples(self):
        assert graded_dim(double_cat(5), 2, 2, 2) == 1
        assert graded_dim(double_cat(3), 1, 1, 2) == 0
        assert graded_dim(double_cat(3), 1, 3, 2) == 1

    def test_odd_distance_even_degree_vanishes(self):
        C = double_cat(4)
        for p, q in itertools.product(C.vertices, repeat=2):
            if (p - q) % 2:
                for l in range(0, 8, 2):
                    assert graded_dim(C, p, q, l) == 0

    def test_oracle_agrees_per_degree(self):
        for n in (2, 3, 4):
            C = double_cat(n)
            for p, q in itertools.product(C.vertices, repeat=2):
                table = C.hom_basis_oracle(p)[q]
                for l, rank in table.items():
                    assert rank == graded_dim(C, p, q, l), (n, p, q, l)

    def test_repetitive_oracle_agrees(self):
        # every degree up to max_len: the table holds the nonzero ranks
        C = rep_cat(3, (-4, 4))
        probes = [(1, 0), (2, 0), (3, 0), (1, -1), (2, 1), (3, -1)]
        for p, q in itertools.product(probes, repeat=2):
            table = C.hom_basis_oracle(p, 6).get(q, {})
            closed = {l: graded_dim(C, p, q, l) for l in range(7)}
            assert table == {l: r for l, r in closed.items() if r}, (p, q)

    @pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(3), Zmod(4), Zmod(9)],
                             ids=["Z", "Q", "F3", "Z4", "Z9"])
    def test_oracle_matches_path_enumeration(self, ring):
        # whole tables against the brute force: the oracle holds exactly
        # its nonzero ranks, at vertices of the quiver
        cats = [double_cat(n, ring) for n in (2, 3, 4, 5)]
        cats += [rep_cat(n, (-4, 4), ring) for n in (2, 3)]
        for C in cats:
            for p in C.vertices:
                tables = C.hom_basis_oracle(p)
                assert set(tables) <= set(C.vertices)
                for q in C.vertices:
                    brute = path_graded_dims(C, p, q)
                    assert tables.get(q, {}) == {l: r for l, r in brute.items()
                                                 if r}, (C, p, q)

    def test_oracle_tables_hold_no_zero_rank(self):
        cats = [double_cat(n) for n in (2, 3, 6)]
        cats += [rep_cat(n, (-4, 4)) for n in (2, 3, 4)]
        for C in cats:
            for max_len in (0, 1, None):
                for p in C.vertices:
                    tables = C.hom_basis_oracle(p, max_len)
                    assert all(table and all(table.values())
                               for table in tables.values()), (C, p, max_len)

    def test_degree_symmetry(self):
        # Q^l(p,q) nonzero iff Q^(n-1-l)(q, Sigma p) nonzero
        for n in (2, 3, 4, 5, 6):
            C = double_cat(n)
            for p, q in itertools.product(C.vertices, repeat=2):
                for l in range(n):
                    lhs = graded_dim(C, p, q, l) != 0
                    rhs = graded_dim(C, q, C.serre_object(p), n - 1 - l) != 0
                    assert lhs == rhs


class TestComposition:
    def test_identity_neutral(self):
        C = double_cat(4)
        for p, q in itertools.product(C.vertices, repeat=2):
            idp = BasisElement(p, p, 0)
            for f in C.hom_basis(p, q):
                assert C.compose_basis(f, idp) == (1, f)
                assert C.compose_basis(BasisElement(q, q, 0), f) == (1, f)

    def test_mesh_relation_kills_boundary_loop(self):
        C = double_cat(3)
        a1 = BasisElement(1, 2, 1)
        a1s = BasisElement(2, 1, 1)
        assert C.compose_basis(a1s, a1) is None  # degree-2 piece of Q(1,1) is 0

    def test_signed_composition_of_arrows(self):
        C = double_cat(3)
        c1, e1 = C.arrow_elt(C.quiver.arrow("a1"))
        c2, e2 = C.arrow_elt(C.quiver.arrow("a2"))
        coeff, elt = C.compose_basis(e2, e1)
        total = C.ring.mul(coeff, C.ring.mul(c1, c2))
        assert total == -1 and elt == BasisElement(1, 3, 2)

    def test_endpoint_mismatch(self):
        C = double_cat(3)
        with pytest.raises(EndpointMismatch):
            C.compose_basis(BasisElement(1, 2, 1), BasisElement(1, 2, 1))

    def test_associativity_exhaustive(self):
        for n in (2, 3, 4, 5):
            C = double_cat(n)
            verts = C.vertices

            def value(res):  # normalize (coeff, elt) | None
                return None if res is None else res

            for p, q, r, s in itertools.product(verts, repeat=4):
                for f in C.hom_basis(p, q):
                    for g in C.hom_basis(q, r):
                        for h in C.hom_basis(r, s):
                            gf = C.compose_basis(g, f)
                            hg = C.compose_basis(h, g)
                            left = None if gf is None else C.compose_basis(h, gf[1])
                            right = None if hg is None else C.compose_basis(hg[1], f)
                            assert value(left) == value(right)

    def test_compose_vectors(self):
        C = double_cat(5)
        f = Matrix.column(C.ring, [1, 0])   # e^1 in Q(2,3)
        # e^1 + e^3 in Q(3,4), degrees [1,3], acting by composition
        g = [C.left_mult_matrix(C.ring.one, b, 2) for b in C.hom_basis(3, 4)]
        out = (g[0] + g[1]) * f
        # e^1*e^1 -> e^2, e^3*e^1 -> e^4; basis of Q(2,4) has degrees [2,4]
        assert list(out.entries) == [1, 1]


def category(case):
    """case = (n, window): repetitive A_n on the window, or double A_n for
    window None."""
    n, window = case
    return double_cat(n) if window is None else rep_cat(n, window)


def case_id(case):
    n, window = case
    return f"double A_{n}" if window is None else f"repetitive A_{n} {window}"


# double A_2..A_6, and repetitive A_2..A_5 on windows of every shape: one
# column, narrow, wide, the default, and away from column 0
SUPPORT_CASES = [(n, None) for n in range(2, 7)] + [
    (n, window) for n in (2, 3, 4, 5)
    for window in ((0, 0), (-1, 1), (-3, 3), (-2 * n, 2 * n), (5, 9))]


class TestSupportRule:
    @pytest.mark.parametrize("case", SUPPORT_CASES, ids=case_id)
    def test_bands_match_the_all_pairs_filter(self, case):
        C = category(case)
        targets, sources = all_pairs_support(C)
        for v in C.vertices:
            assert C.hom_targets(v) == targets[v], v
            assert C.hom_sources(v) == sources[v], v

    @pytest.mark.parametrize("case", SUPPORT_CASES, ids=case_id)
    def test_nilpotency_index_is_n(self, case):
        C = category(case)
        assert C.nilpotency_index() == C.n == scanned_nilpotency_index(C)

    def test_radicals_read_the_bands(self):
        for C in (double_cat(4), rep_cat(3, (-3, 3))):
            for v in C.vertices:
                assert radical_out(C, v) == tuple(
                    b for q in C.vertices for b in radical_basis(C, v, q, 1))
                assert radical_in(C, v, 2) == tuple(
                    b for p in C.vertices for b in radical_basis(C, p, v, 2))

    # (checked_pairings, checked_squares) recorded while serre_report still
    # visited every vertex pair and every arrow
    SERRE_COUNTS = {
        (2, None): (4, 8), (3, None): (9, 32), (4, None): (16, 88),
        (5, None): (25, 192), (6, None): (36, 368), (7, None): (49, 640),
        (8, None): (64, 1040), (9, None): (81, 1600),
        (2, (0, 0)): (2, 1), (2, (-1, 1)): (10, 9), (2, (-3, 3)): (26, 25),
        (2, (-4, 4)): (34, 33), (2, (5, 9)): (18, 17),
        (3, (0, 0)): (3, 2), (3, (-1, 1)): (20, 28), (3, (-3, 3)): (60, 92),
        (3, (-6, 6)): (120, 188), (3, (5, 9)): (40, 60),
        (4, (0, 0)): (4, 3), (4, (-1, 1)): (30, 50), (4, (-3, 3)): (110, 210),
        (4, (-8, 8)): (310, 610), (4, (5, 9)): (70, 130),
        (5, (0, 0)): (5, 4), (5, (-1, 1)): (40, 72), (5, (-3, 3)): (175, 380),
        (5, (-10, 10)): (665, 1500), (5, (5, 9)): (105, 220),
    }

    @pytest.mark.parametrize("case", list(SERRE_COUNTS), ids=case_id)
    def test_serre_report_counts_are_unchanged(self, case):
        report = category(case).serre_report()
        assert report["ok"]
        counts = (report["checked_pairings"], report["checked_squares"])
        assert counts == self.SERRE_COUNTS[case]


class TestMultMatrixCoefficients:
    def test_inexact_coefficients_are_refused(self):
        # both used to be truncated to 0 and gave the zero matrix over Z
        C = rep_cat(2, (-2, 2))
        e = C.arrow_elt(C.quiver.arrow("a1@0"))[1]
        for mult in (C.left_mult_matrix, C.right_mult_matrix):
            for coeff in (Fraction(1, 2), 0.5):
                with pytest.raises(InvalidParameter):
                    mult(coeff, e, (1, 0))
            assert mult(Fraction(3, 1), e, (1, 0)) == mult(3, e, (1, 0))
        assert C.left_mult_matrix(3, e, (1, 0)).to_lists() == [[3]]
        assert C.right_mult_matrix(-1, e, (2, 0)).to_lists() == [[-1]]

    @pytest.mark.parametrize("coeff", [1.0, True], ids=["1.0", "True"])
    def test_refusal_does_not_depend_on_the_cache(self, coeff):
        # 1.0 == 1 == True with equal hashes: once the exact call had cached
        # its matrix, the inexact value used to find it and be accepted
        C = MeshCategory(build_repetitive_an(2, (-2, 2)), ZZ)
        e = C.arrow_elt(C.quiver.arrow("a1@0"))[1]
        for mult, vertex in ((C.left_mult_matrix, (1, 0)),
                             (C.right_mult_matrix, (2, 0))):
            with pytest.raises(InvalidParameter):  # cold cache
                mult(coeff, e, vertex)
            exact = mult(1, e, vertex)
            with pytest.raises(InvalidParameter):  # warm cache
                mult(coeff, e, vertex)
            assert mult(1, e, vertex) is exact


class TestOneHomRule:
    def cats(self):
        return (double_cat(4, Zmod(9)), double_cat(5, QQ),
                rep_cat(3, (-3, 3), QQ), rep_cat(2, (-2, 2), Zmod(9)))

    def test_mult_matrices_match_compose_basis(self):
        # the builder places coeff by degree; compose_basis is the reference
        for C in self.cats():
            ring = C.ring
            coeff = ring.neg(ring.one)
            elements = [b for p in C.vertices for q in C.vertices
                        for b in C.hom_basis(p, q)]
            for g in elements:
                for v in C.vertices:
                    for M, src, tgt, comp in (
                            (C.left_mult_matrix(coeff, g, v),
                             C.hom_basis(v, g.source), C.hom_basis(v, g.target),
                             lambda f: C.compose_basis(g, f)),
                            (C.right_mult_matrix(coeff, g, v),
                             C.hom_basis(g.target, v), C.hom_basis(g.source, v),
                             lambda f: C.compose_basis(f, g))):
                        want = [[ring.zero] * len(src) for _ in tgt]
                        for j, f in enumerate(src):
                            res = comp(f)
                            if res is not None:
                                want[tgt.index(res[1])][j] = ring.mul(coeff, res[0])
                        assert M.to_lists() == want, (C, g, v)

    def test_basis_path_composes_to_the_element(self):
        for C in self.cats():
            ring = C.ring
            for p in C.vertices:
                for q in C.vertices:
                    for elt in C.hom_basis(p, q):
                        sign, arrows = C.basis_path(elt)
                        assert len(arrows) == elt.degree
                        product, current = ring.one, BasisElement(p, p, 0)
                        for a in arrows:
                            c, e = C.arrow_elt(a)
                            res = C.compose_basis(e, current)
                            assert res is not None, (elt, a)
                            product = ring.mul(product, ring.mul(c, res[0]))
                            current = res[1]
                        assert current == elt
                        assert sign == product, elt


class TestRadical:
    def test_power_zero_is_everything(self):
        C = double_cat(3)
        for p, q in itertools.product(C.vertices, repeat=2):
            assert radical_basis(C, p, q, 0) == C.hom_basis(p, q)

    def test_degree_two_part_of_end_2(self):
        C = double_cat(3)
        assert [b.degree for b in radical_basis(C, 2, 2, 1)] == [2]

    def test_power_n_vanishes(self):
        for n in (2, 3, 4, 5, 6):
            C = double_cat(n)
            for p, q in itertools.product(C.vertices, repeat=2):
                assert radical_basis(C, p, q, n) == ()

    def test_nilpotency_index(self):
        assert double_cat(2).nilpotency_index() == 2
        assert double_cat(5).nilpotency_index() == 5
        assert graded_dim(double_cat(5), 1, 5, 4) == 1  # witness for r^4 != 0
        assert rep_cat(2).nilpotency_index() == 2

    def test_radical_products_raise_degree(self):
        C = double_cat(4)
        for a, b in itertools.product((1, 2), repeat=2):
            for p, q, r in itertools.product(C.vertices, repeat=3):
                for f in radical_basis(C, p, q, a):
                    for g in radical_basis(C, q, r, b):
                        res = C.compose_basis(g, f)
                        if res is not None:
                            assert res[1].degree >= a + b

    def test_strong_retraction_property(self):
        for C in (double_cat(4), rep_cat(2, (-3, 3))):
            for q in C.vertices:
                basis = C.hom_basis(q, q)
                radical = radical_basis(C, q, q, 1)
                assert len(basis) == 1 + len(radical)  # k*id + r_q
                for f in radical:
                    for g in radical:
                        res = C.compose_basis(g, f)
                        assert res is None or res[1].degree >= 1
            for p in C.vertices:
                for q in C.vertices:
                    if p == q:
                        continue
                    for f in C.hom_basis(p, q):
                        for g in C.hom_basis(q, p):
                            res = C.compose_basis(g, f)
                            assert res is None or res[1].degree >= 1


class TestClosedForms:
    def test_matches_oracle_everywhere(self):
        for n in range(2, 7):
            C = double_cat(n)
            for p in range(1, n + 1):
                for q in range(1, n):
                    a = C.quiver.arrow(f"a{q}")
                    s = C.quiver.arrow(f"a{q}*")
                    assert C.arrow_mult_matrix(p, q, False) == C.arrow_left_mult(a, p)
                    assert C.arrow_mult_matrix(p, q, True) == C.arrow_left_mult(s, p)

    def test_shapes_and_examples(self):
        C3 = double_cat(3)
        assert C3.arrow_mult_matrix(1, 1, False).to_lists() == [[-1]]
        # low range with p > q: a zero row on top of an identity
        C5 = double_cat(5)
        T = C5.arrow_mult_matrix(3, 2, False)
        assert (T.rows, T.cols) == (3, 2)
        assert T.to_lists() == [[0, 0], [1, 0], [0, 1]]
        # high range with p <= q: identity next to a zero column
        assert C3.arrow_mult_matrix(2, 2, False).to_lists() == [[1, 0]]

    def test_repetitive_flavor_rejected(self):
        with pytest.raises(UnsupportedFlavor):
            rep_cat(2).arrow_mult_matrix(1, 1, False)


class TestSerre:
    def test_object_map(self):
        assert double_cat(5).serre_object(2) == 4
        assert rep_cat(3).serre_object((1, 0)) == (3, -1 + 1)  # (n+1-q, i+1-q)

    def test_arrow_map(self):
        C = MeshCategory(build_double_an(4), ZZ)
        coeff, image = C.serre_arrow(C.quiver.arrow("a1"))
        assert (coeff, image) == (-1, "a3*")

    def test_full_report_small(self):
        for n in (2, 3, 4, 5):
            for ring in (ZZ, Zmod(5)):
                rep = MeshCategory(build_double_an(n), ring).serre_report()
                assert rep["ok"], (n, ring, rep)

    def test_pairing_example(self):
        report = double_cat(3).serre_report()
        assert report["pairings_invertible"]
        assert report["checked_pairings"] > 0

    def test_repetitive_report(self):
        rep = rep_cat(2, (-3, 3)).serre_report()
        assert rep["ok"], rep

"""Exact linear algebra core: Smith forms, kernels, presented modules."""

import random
import time
from fractions import Fraction

import pytest

from qshape.errors import InvalidParameter, NotWellDefined, UnsupportedRing
from qshape.exactalg import (Matrix, ModuleMap, PresentedModule, QQ, ZZ, Zmod,
                             field_rank, kernel_basis, matrix_is_invertible,
                             middle_homology, smith_normal_form, solve,
                             solve_matrix)
from qshape.exactalg.smith import _smith, _snf_int

from oracles import (brute_force_injective, brute_force_projective,
                     column_matrix, divides, elements,
                     induced_map_on_subquotient, is_invertible_full,
                     kernel_basis_full, normal_form_full, rref_rank, snf_int,
                     snf_local)
from samplers import cyclic, from_invariant_factors


def snf_diag(M):
    S, U, V = smith_normal_form(M)
    assert U * M * V == S
    assert matrix_is_invertible(U) and matrix_is_invertible(V)
    diag = [S[i, i] for i in range(min(S.rows, S.cols))]
    for i in range(len(diag)):
        for j in range(S.rows):
            for k in range(S.cols):
                if j != k:
                    assert S[j, k] == M.ring.zero
    for a, b in zip(diag, diag[1:]):
        assert divides(M.ring, a, b)
    return diag


class TestRings:
    def test_prime_power_moduli(self):
        for m in (2, 3, 4, 8, 9, 25, 27):
            Zmod(m)
        for m in (1, 6, 12, 100):
            with pytest.raises(InvalidParameter):
                Zmod(m)

    def test_canonical_representatives(self):
        assert Zmod(4).canon(-1) == 3
        assert QQ.canon(Fraction(2, -4)) == Fraction(-1, 2)
        assert Zmod(9).inv(2) == 5

    def test_hereditary_flags(self):
        assert ZZ.is_hereditary and QQ.is_hereditary and Zmod(5).is_hereditary
        assert not Zmod(4).is_hereditary and not Zmod(9).is_hereditary

    @pytest.mark.parametrize("ring, x", [
        (QQ, 0.1), (ZZ, 2.7), (Zmod(9), 2.5), (ZZ, True), (QQ, False),
        (ZZ, Fraction(5, 2)), (Zmod(9), Fraction(1, 2)), (ZZ, "3"),
    ])
    def test_inexact_entries_are_refused(self, ring, x):
        # before, 2.7 was stored as 2 and 0.1 as its binary expansion
        with pytest.raises(InvalidParameter):
            Matrix(ring, 1, 1, [x])
        with pytest.raises(InvalidParameter):
            Matrix.from_rows(ring, [[1, x]])
        with pytest.raises(InvalidParameter):
            Matrix.identity(ring, 1).scale(x)

    def test_exact_entries_are_canonicalised(self):
        assert Matrix(ZZ, 1, 2, [Fraction(6, 3), -4]).entries == (2, -4)
        assert type(Matrix(ZZ, 1, 1, [Fraction(6, 3)]).entries[0]) is int
        assert Matrix(Zmod(9), 1, 2, [-1, Fraction(18, 2)]).entries == (8, 0)
        assert Matrix(QQ, 1, 2, [3, Fraction(2, 4)]).entries == \
            (Fraction(3), Fraction(1, 2))


class TestSmith:
    def test_diag_3_5(self):
        # row/column reduction oracle: gcd coupling gives diag(1, 15)
        M = Matrix.from_rows(ZZ, [[3, 0], [0, 5]])
        assert snf_diag(M) == [1, 15]

    def test_2x2_with_determinant(self):
        # |det| = 8, gcd of entries = 2, hence diag(2, 4)
        M = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
        assert snf_diag(M) == [2, 4]

    def test_zero_matrix_leaves_transforms_alone(self):
        M = Matrix.zeros(ZZ, 2, 3)
        S, U, V = smith_normal_form(M)
        assert S == M
        assert U == Matrix.identity(ZZ, 2)
        assert V == Matrix.identity(ZZ, 3)

    def test_rationals_rejected(self):
        with pytest.raises(UnsupportedRing):
            smith_normal_form(Matrix.zeros(QQ, 1, 1))

    def test_mod_prime_power_diagonal_is_p_power(self):
        M = Matrix.from_rows(Zmod(9), [[6, 3], [0, 3]])
        diag = snf_diag(M)
        for d in diag:
            assert d == 0 or d in (1, 3)

    def test_random_integer_matrices(self):
        rng = random.Random(12)
        for _ in range(200):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            M = Matrix(ZZ, r, c, [rng.randint(-5, 5) for _ in range(r * c)])
            snf_diag(M)

    def test_random_modular_matrices(self):
        rng = random.Random(13)
        for m in (4, 9, 5):
            ring = Zmod(m)
            for _ in range(100):
                r, c = rng.randint(0, 4), rng.randint(0, 4)
                M = Matrix(ring, r, c, [rng.randint(0, m - 1) for _ in range(r * c)])
                snf_diag(M)


    def test_one_by_one_invertibility_matches_elimination(self):
        # a 1x1 matrix is decided by whether its entry is a unit, with no
        # Smith form or rank; the answer must be the one they give
        for ring, values in ((ZZ, range(-3, 4)), (QQ, range(-3, 4)),
                             (Zmod(3), range(3)), (Zmod(9), range(9))):
            for x in values:
                M = Matrix(ring, 1, 1, [x])
                if ring.is_field:
                    want = field_rank(M) == 1
                else:
                    S, _, _ = smith_normal_form(M)
                    want = ring.is_unit(S[0, 0])
                assert matrix_is_invertible(M) == want, (ring, x)


class TestKernel:
    def test_row_vector(self):
        K = kernel_basis(Matrix.from_rows(ZZ, [[1, 1]]))
        assert K.cols == 1
        assert tuple(K.col(0)) in {(1, -1), (-1, 1)}

    def test_identity_has_empty_kernel(self):
        assert kernel_basis(Matrix.identity(ZZ, 3)).cols == 0
        assert kernel_basis(Matrix.identity(QQ, 2)).cols == 0

    def test_mod4_times_two(self):
        # enumerate all 4 elements: kernel of x -> 2x mod 4 is {0, 2}
        K = kernel_basis(Matrix.from_rows(Zmod(4), [[2]]))
        generated = {0}
        for j in range(K.cols):
            g = K[0, j]
            generated |= {(g * t) % 4 for t in range(4)}
        assert generated == {0, 2}

    def test_kernel_columns_annihilate_and_span(self):
        rng = random.Random(5)
        for ring, span_check in ((ZZ, False), (QQ, False), (Zmod(4), True), (Zmod(9), True)):
            for _ in range(60):
                r, c = rng.randint(1, 4), rng.randint(1, 4)
                M = Matrix(ring, r, c, [ring.canon(rng.randint(-5, 5)) for _ in range(r * c)])
                K = kernel_basis(M)
                if K.cols:
                    assert (M * K).is_zero
                if span_check:
                    # every brute-force kernel element lies in the span
                    m = ring.modulus
                    from itertools import product as iproduct
                    for x in iproduct(range(m), repeat=c):
                        xa = Matrix.column(ring, x)
                        if (M * xa).is_zero:
                            assert solve(K, xa) is not None


class TestSolve:
    def test_solve_round_trip(self):
        rng = random.Random(31)
        for ring in (ZZ, QQ, Zmod(4), Zmod(9), Zmod(5)):
            for _ in range(80):
                r, c = rng.randint(1, 4), rng.randint(1, 4)
                M = Matrix(ring, r, c, [ring.canon(rng.randint(-4, 4)) for _ in range(r * c)])
                x = Matrix.column(ring, [ring.canon(rng.randint(-4, 4)) for _ in range(c)])
                b = M * x
                sol = solve(M, b)
                assert sol is not None
                assert M * sol == b

    def test_unsolvable(self):
        M = Matrix.from_rows(ZZ, [[2]])
        assert solve(M, Matrix.column(ZZ, [1])) is None
        assert solve(M, Matrix.column(ZZ, [6])) is not None


class TestPresentedModule:
    def test_cokernel_of_two_is_z_mod_2(self):
        mod = PresentedModule(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
        nf = mod.normal_form()
        assert nf.free_rank == 0 and nf.torsion == (2,)
        assert mod.describe() == "Z/2"

    def test_cokernel_of_identity_is_zero(self):
        for ring in (ZZ, QQ, Zmod(4)):
            mod = PresentedModule(ring, 2, Matrix.identity(ring, 2))
            assert mod.is_zero

    def test_column_vector_cokernel_is_free(self):
        # relations (1, 1)^T in Z^2: Smith form (1, 0)^T leaves one free rank
        mod = PresentedModule(ZZ, 2, Matrix.from_rows(ZZ, [[1], [1]]))
        nf = mod.normal_form()
        assert nf.free_rank == 1 and not nf.torsion

    def test_cokernel_normal_form_matches_snf_diagonal(self):
        rng = random.Random(77)
        for ring in (ZZ, Zmod(4), Zmod(9)):
            for _ in range(40):
                r, c = rng.randint(0, 4), rng.randint(0, 4)
                M = Matrix(ring, r, c,
                           [ring.canon(rng.randint(-5, 5)) for _ in range(r * c)])
                S, _, _ = smith_normal_form(M)
                diag = [S[i, i] for i in range(min(r, c))]
                expected = from_invariant_factors(
                    ring, diag + [0] * (r - len(diag)))
                assert PresentedModule(ring, r, M).normal_form() == \
                    expected.normal_form()

    def test_named_predicate_functions(self):
        assert PresentedModule.free(ZZ, 2).is_projective()
        assert not PresentedModule.free(ZZ, 1).is_injective()

    def test_mod4_normal_forms(self):
        ring = Zmod(4)
        two = PresentedModule(ring, 1, Matrix.from_rows(ring, [[2]]))
        assert two.describe() == "Z/2"
        free = PresentedModule(ring, 1)
        assert free.describe() == "Z/4"
        assert not two.isomorphic(free)

    def test_projectivity(self):
        assert not cyclic(ZZ, 2).is_projective()  # torsion
        assert PresentedModule.free(ZZ, 3).is_projective()
        assert cyclic(Zmod(5), 0).is_projective()  # field
        assert not cyclic(Zmod(4), 2).is_projective()
        assert PresentedModule.free(Zmod(4), 2).is_projective()

    def test_injectivity(self):
        assert cyclic(Zmod(5), 0).is_injective()  # field
        assert not PresentedModule.free(ZZ, 1).is_injective()     # Z not divisible
        assert PresentedModule(ZZ, 1, Matrix.identity(ZZ, 1)).is_injective()
        assert PresentedModule.free(Zmod(4), 1).is_injective()     # self-injective
        assert not cyclic(Zmod(4), 2).is_injective()

    def test_verdicts_match_exhaustive_checks(self):
        # all modules with at most 8 elements over Z/2, Z/3, Z/4
        cases = []
        for m in (2, 3):
            ring = Zmod(m)
            cases += [from_invariant_factors(ring, fs)
                      for fs in ([], [0], [0, 0], [0, 0, 0][:2])]
        ring = Zmod(4)
        cases += [from_invariant_factors(ring, fs)
                  for fs in ([], [2], [0], [2, 2], [2, 0], [2, 2, 2], [0, 0][:1])]
        for mod in cases:
            if len(elements(mod)) > 8:
                continue
            assert mod.is_projective() == brute_force_projective(mod), mod
            assert mod.is_injective() == brute_force_injective(mod), mod


    def test_several_summands_equal_the_nested_binary_sums(self):
        rng = random.Random(190)
        for ring in (ZZ, QQ, Zmod(9)):
            for _ in range(20):
                summands = []
                for _ in range(rng.randint(0, 4)):
                    r, c = rng.randint(0, 3), rng.randint(0, 3)
                    summands.append(PresentedModule(ring, r, Matrix(
                        ring, r, c, [rng.randint(-4, 4) for _ in range(r * c)])))
                summands.insert(rng.randint(0, len(summands)),
                                PresentedModule.free(ring, 0))
                first, *rest = summands
                nested = first
                for m in rest:
                    nested = nested.direct_sum(m)
                once = first.direct_sum(*rest)
                assert once.generators == nested.generators
                assert once.relations == nested.relations
        M = cyclic(ZZ, 6)
        assert M.direct_sum().relations == M.relations
        with pytest.raises(InvalidParameter):
            M.direct_sum(M, PresentedModule.free(QQ, 1))


class TestModuleMap:
    def test_identity_on_z_mod_6_is_isomorphism(self):
        # Z/6 is not a prime power; emulate with Z-module Z/2 + Z/3 instead
        mod = from_invariant_factors(ZZ, [2, 3])
        assert ModuleMap.identity(mod).is_isomorphism()

    def test_times_two_on_z(self):
        z = PresentedModule.free(ZZ, 1)
        f = ModuleMap(z, z, Matrix.from_rows(ZZ, [[2]]))
        assert not f.is_isomorphism()
        assert f.cokernel().describe() == "Z/2"

    def test_injective_but_not_surjective_mod4(self):
        ring = ZZ
        z2 = cyclic(ring, 2)
        z4 = cyclic(ring, 4)
        f = ModuleMap(z2, z4, Matrix.from_rows(ring, [[2]]))  # 1 -> 2
        K, _ = f.kernel()
        assert K.is_zero
        assert f.cokernel().describe() == "Z/2"
        assert not f.is_isomorphism()

    def test_ill_defined_map_raises(self):
        z2 = cyclic(ZZ, 2)
        z = PresentedModule.free(ZZ, 1)
        with pytest.raises(NotWellDefined):
            ModuleMap(z2, z, Matrix.from_rows(ZZ, [[1]]))


class TestSubquotient:
    def test_identity_on_whole_space(self):
        big = Matrix.identity(ZZ, 2)
        whole = Matrix.identity(ZZ, 2)
        none = Matrix.zeros(ZZ, 2, 0)
        f = induced_map_on_subquotient(big, whole, none, whole, none)
        assert f.is_isomorphism()

    def test_kernel_to_kernel_iso(self):
        # map Ker(1 1) -> Ker(k -> 0) sending (x, -x) to x
        ring = QQ
        big = Matrix.from_rows(ring, [[1, 0]])  # projection to 1st coordinate
        sub_src = Matrix.from_rows(ring, [[1], [-1]])
        sub_tgt = Matrix.identity(ring, 1)
        none2 = Matrix.zeros(ring, 2, 0)
        none1 = Matrix.zeros(ring, 1, 0)
        f = induced_map_on_subquotient(big, sub_src, none2, sub_tgt, none1)
        assert f.is_isomorphism()

    def test_zero_map(self):
        big = Matrix.zeros(ZZ, 2, 2)
        whole = Matrix.identity(ZZ, 2)
        none = Matrix.zeros(ZZ, 2, 0)
        f = induced_map_on_subquotient(big, whole, none, whole, none)
        assert f.target.vanishes(f.matrix)


class TestMiddleHomology:
    def test_circle_like_complex(self):
        # Z --0--> Z^2 --0--> Z has middle homology Z^2
        a = PresentedModule.free(ZZ, 1)
        b = PresentedModule.free(ZZ, 2)
        f = ModuleMap.zero(a, b)
        g = ModuleMap.zero(b, a)
        assert middle_homology(f, g).module.describe() == "Z^2"

    def test_torsion_appears(self):
        # Z --(2)--> Z --0--> 0 has homology Z/2 in the middle
        z = PresentedModule.free(ZZ, 1)
        zero = PresentedModule.free(ZZ, 0)
        f = ModuleMap(z, z, Matrix.from_rows(ZZ, [[2]]))
        g = ModuleMap.zero(z, zero)
        assert middle_homology(f, g).module.describe() == "Z/2"

    def test_exact_in_the_middle(self):
        z = PresentedModule.free(ZZ, 1)
        f = ModuleMap(z, z, Matrix.identity(ZZ, 1))
        g = ModuleMap.zero(z, z)
        assert middle_homology(f, g).module.is_zero


# ---------------------------------------------------------------------------
# differential tests: the local Smith form and raw-value RREF
# ---------------------------------------------------------------------------

LOCAL_RINGS = (Zmod(4), Zmod(8), Zmod(9), Zmod(27))
FIELDS = (QQ, Zmod(3), Zmod(5))


def lifted_diagonal(M):
    """The Smith diagonal over Z/p^k the way it was first computed: the
    integer Smith form of the lifted entries, each entry reduced to its
    p-power part (0 from p^k on)."""
    ring = M.ring
    S, _, _ = _snf_int([int(x) for x in M.entries], M.rows, M.cols)
    out = []
    for t in range(min(M.rows, M.cols)):
        d, v = S[t][t], 0
        while d and d % ring.prime == 0:
            d //= ring.prime
            v += 1
        out.append(ring.prime ** v if d and v < ring.exponent else 0)
    return out


def random_entries(rng, ring, count):
    if ring.kind == "Q":
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(count)]
    return [rng.randrange(ring.modulus) for _ in range(count)]


def random_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols, random_entries(rng, ring, rows * cols))


def unit_triangular(rng, ring, n, lower):
    """Random entries on one side of a diagonal of ones: invertible."""
    return Matrix(ring, n, n, [1 if i == j else
                               random_entries(rng, ring, 1)[0] if (i > j) == lower
                               else 0 for i in range(n) for j in range(n)])


def column_span_size(M):
    """|im M| over Z/p^k, from the lifted diagonal."""
    m = M.ring.modulus
    size = 1
    for d in lifted_diagonal(M):
        size *= m // (d if d else m)
    return size


def kernel_size(M):
    """|ker M| over Z/p^k, from the lifted diagonal."""
    m = M.ring.modulus
    diag = lifted_diagonal(M)
    size = m ** (M.cols - len(diag))
    for d in diag:
        size *= d if d else m
    return size


def inconsistent_system(rng, ring, rows, cols):
    """(M, b) with M*x = b unsolvable: M = P*M0 for invertible P, where the
    last row of M0 lies in p times the ring (0 over Q) and b = P*e_last."""
    scale = ring.prime if ring.kind == "mod" else 0
    M0 = random_matrix(rng, ring, rows, cols)
    M0 = Matrix(ring, rows, cols, list(M0.entries[:(rows - 1) * cols]) +
                [scale * x for x in M0.row(rows - 1)])
    P = unit_triangular(rng, ring, rows, True) * \
        unit_triangular(rng, ring, rows, False)
    e_last = Matrix.column(ring, [0] * (rows - 1) + [1])
    return P * M0, P * e_last


class TestLocalSmith:
    def test_diagonal_matches_the_lifted_integer_form(self):
        rng = random.Random(2024)
        for ring in LOCAL_RINGS:
            for _ in range(40):
                r, c = rng.randint(0, 8), rng.randint(0, 8)
                M = random_matrix(rng, ring, r, c)
                assert snf_diag(M) == lifted_diagonal(M), M

    def test_diagonal_of_low_rank_products(self):
        # products through a narrow middle have zeros and p-powers in
        # their diagonal, which uniform random matrices rarely show
        rng = random.Random(77)
        for ring in LOCAL_RINGS:
            for _ in range(30):
                r, c, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 4)
                A = random_matrix(rng, ring, r, k)
                B = Matrix(ring, k, c, [ring.prime ** rng.randint(0, 1) * x
                                        for x in random_entries(rng, ring, k * c)])
                M = A * B if k else Matrix.zeros(ring, r, c)
                assert snf_diag(M) == lifted_diagonal(M), M

    def test_kernel_is_the_whole_kernel(self):
        rng = random.Random(5150)
        for ring in LOCAL_RINGS:
            for _ in range(25):
                r, c = rng.randint(1, 8), rng.randint(1, 8)
                M = random_matrix(rng, ring, r, c)
                K = kernel_basis(M)
                assert K.rows == c
                if K.cols:
                    assert (M * K).is_zero
                    # im K lies in ker M, so equal sizes make them equal
                    assert column_span_size(K) == kernel_size(M)
                else:
                    assert kernel_size(M) == 1

    @pytest.mark.parametrize("ring", LOCAL_RINGS + FIELDS, ids=repr)
    def test_solve_matrix_consistent_and_inconsistent(self, ring):
        rng = random.Random(f"solve {ring!r}")
        for _ in range(25):
            r, c, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3)
            M = random_matrix(rng, ring, r, c)
            B = M * random_matrix(rng, ring, c, k)
            X = solve_matrix(M, B)
            assert X is not None and M * X == B
            x = solve(M, column_matrix(B, 0))
            assert x is not None and M * x == column_matrix(B, 0)
            M, b = inconsistent_system(rng, ring, r, c)
            assert solve_matrix(M, b) is None
            assert solve(M, b) is None
            assert solve_matrix(M, Matrix.hstack([B, b])) is None

    @pytest.mark.parametrize("ring", FIELDS, ids=repr)
    def test_field_rank_plus_nullity(self, ring):
        rng = random.Random(f"rank {ring!r}")
        for _ in range(40):
            r, c, k = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8)
            # a product through k columns has rank at most k
            M = random_matrix(rng, ring, r, k) * random_matrix(rng, ring, k, c)
            K = kernel_basis(M)
            assert field_rank(M) + K.cols == c
            assert field_rank(M) <= min(k, r, c)
            if K.cols:
                assert (M * K).is_zero
                assert field_rank(K) == K.cols

    @pytest.mark.parametrize("ring", FIELDS, ids=repr)
    def test_field_rank_against_sympy(self, ring):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        domain = sympy.QQ if ring.kind == "Q" else sympy.GF(ring.modulus)
        rng = random.Random(f"sympy {ring!r}")
        for _ in range(30):
            r, c, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 8)
            M = random_matrix(rng, ring, r, k) * random_matrix(rng, ring, k, c) \
                if k else Matrix.zeros(ring, r, c)
            rows = [[domain(x.numerator, x.denominator) if ring.kind == "Q"
                     else domain(x) for x in M.row(i)] for i in range(r)]
            assert field_rank(M) == DomainMatrix(rows, (r, c), domain).rank()

    def test_transforms_stay_reduced_on_16x16_over_z9(self):
        # the lifted integer route grew 50,000-bit transform entries here
        rng = random.Random(16)
        ring = Zmod(9)
        start = time.perf_counter()
        for _ in range(10):
            M = random_matrix(rng, ring, 16, 16)
            S, U, V = _smith(M.entries, 16, 16, 9)
            assert all(0 <= x < 9 for rows in (S, U, V) for row in rows
                       for x in row)
            Sm, Um, Vm = smith_normal_form(M)
            assert Um * M * Vm == Sm
        assert time.perf_counter() - start < 5.0


class TestOneSmith:
    """``_smith`` gives the very (S, U, V) of the two eliminations it
    replaced: division with remainder over Z and the one-sweep local form
    over Z/p^k (both in oracles.py)."""

    MODULI = (4, 8, 9, 25, 27, 81)

    @staticmethod
    def shapes(rng, count):
        yield from ((r, c) for r in range(9) for c in range(9) if not r * c)
        for _ in range(count):
            yield rng.randint(1, 8), rng.randint(1, 8)

    @staticmethod
    def low_rank(rng, r, c, draw, m):
        """A product through k <= 3 columns, reduced mod m when m > 0."""
        k = rng.randint(0, 3)
        A, B = [draw() for _ in range(r * k)], [draw() for _ in range(k * c)]
        out = [sum(A[i * k + l] * B[l * c + j] for l in range(k))
               for i in range(r) for j in range(c)]
        return [x % m for x in out] if m else out

    def test_integers_match_division_with_remainder(self):
        rng = random.Random("one smith Z")
        draw = lambda: rng.randint(-9, 9)
        for r, c in self.shapes(rng, 150):
            for entries in ([draw() for _ in range(r * c)],
                            self.low_rank(rng, r, c, draw, 0)):
                assert _smith(entries, r, c, 0) == snf_int(entries, r, c), \
                    (r, c, entries)
                assert _snf_int(entries, r, c) == snf_int(entries, r, c)

    @pytest.mark.parametrize("m", MODULI)
    def test_prime_powers_match_the_local_form(self, m):
        rng = random.Random(f"one smith Z/{m}")
        p = Zmod(m).prime
        k = Zmod(m).exponent
        draw = lambda: rng.randrange(m)
        unit = lambda: rng.choice([u for u in range(1, m) if u % p])
        for r, c in self.shapes(rng, 60):
            for entries in ([draw() for _ in range(r * c)],
                            self.low_rank(rng, r, c, draw, m),
                            [p ** rng.randint(0, k) * unit() % m
                             for _ in range(r * c)]):
                assert _smith(entries, r, c, m) == \
                    snf_local(entries, r, c, p, m), (r, c, entries)


class TestTransformsOnDemand:
    """Each caller builds only the transforms it reads, and gets what the
    full (S, U, V) gives (oracles.py): seeded shapes 0-8 x 0-8, sparse and
    dense, over Z and Z/p^k; over the fields, forward elimination gives
    the pivot count of the reduced form."""

    @staticmethod
    def matrices(rng, ring, draw):
        for r in range(9):
            for c in range(9):
                yield Matrix(ring, r, c, [draw() for _ in range(r * c)])
                yield Matrix(ring, r, c, [draw() if rng.random() < 0.25 else 0
                                          for _ in range(r * c)])

    @pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(8), Zmod(9), Zmod(27)],
                             ids=repr)
    def test_reduced_smith_matches_the_full_form(self, ring):
        rng = random.Random(f"transforms on demand {ring!r}")
        m = ring.modulus or 0
        draw = (lambda: rng.randrange(m)) if m else (lambda: rng.randint(-9, 9))
        for M in self.matrices(rng, ring, draw):
            args = (M.entries, M.rows, M.cols, m)
            S, U, V = _smith(*args)
            assert _smith(*args, u=False) == (S, None, V), M
            assert _smith(*args, u=False, v=False) == (S, None, None), M
            assert _smith(*args, v=False) == (S, U, None), M
            assert kernel_basis(M) == kernel_basis_full(M), M
            module = PresentedModule(ring, M.rows, M)
            assert module.normal_form() == normal_form_full(module), M
            assert matrix_is_invertible(M) == is_invertible_full(M), M

    @pytest.mark.parametrize("ring", [QQ, Zmod(2), Zmod(3), Zmod(5)], ids=repr)
    def test_field_rank_is_the_pivot_count_of_the_reduced_form(self, ring):
        rng = random.Random(f"forward elimination {ring!r}")
        if ring.modulus:
            draw = lambda: rng.randrange(ring.modulus)
        else:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for M in self.matrices(rng, ring, draw):
            assert field_rank(M) == rref_rank(M), M

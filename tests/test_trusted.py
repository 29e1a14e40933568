"""The trusted Matrix constructor receives only canonical entries.

``Matrix._trusted`` stores its entries unchecked, so every matrix the
library builds through it must already hold canonical ring elements of
the canonical type (int over Z and Z/m, Fraction over Q).  These tests
wrap it with that check and run the library's computations over every
ring kind and both flavors, against ``BaseRing.canon``, the rule the
public constructor applies.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from qshape import Matrix, MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.cli import main
from qshape.errors import WindowTooSmall
from qshape.exactalg import kernel_basis, smith_normal_form, solve_matrix
from qshape.fixtures import counter_morphism
from qshape.homology import (SIDE_CN, SIDE_CO, classify_object,
                             derived_homology, is_weak_equivalence)
from qshape.repmod import random_representation

ALL_RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture()
def trusted_checked(monkeypatch):
    """Check every trusted construction; returns the list of matrices built."""
    built = []
    plain = Matrix._trusted

    def trusted(ring, rows, cols, entries):
        M = plain(ring, rows, cols, entries)
        assert len(M.entries) == rows * cols
        for x in M.entries:
            c = ring.canon(x)
            assert c == x and type(x) is type(c), (ring, x)
        built.append(M)
        return M

    monkeypatch.setattr(Matrix, "_trusted", staticmethod(trusted))
    return built


def test_kernel_generators_over_local_rings_are_reduced(trusted_checked):
    # the generators are columns of V scaled by m/d; the product leaves [0, m)
    K = kernel_basis(Matrix(Zmod(9), 2, 2, [3, 3, 3, 6]))
    assert all(0 <= x < 9 for x in K.entries)
    assert (Matrix(Zmod(9), 2, 2, [3, 3, 3, 6]) * K).is_zero


def test_elimination_outputs_are_canonical(trusted_checked):
    rng = random.Random(5)
    for ring in ALL_RINGS:
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M = Matrix(ring, r, c, [rng.randint(-6, 6) for _ in range(r * c)])
            B = M * Matrix(ring, c, 2, [rng.randint(-3, 3) for _ in range(2 * c)])
            kernel_basis(M)
            assert solve_matrix(M, B) is not None
            if not ring.is_field:
                S, U, V = smith_normal_form(M)
                assert U * M * V == S
            K = M.transpose().kron(M)
            (K - K.scale(-1)).take_rows([0])
    assert trusted_checked


def test_matrix_arithmetic_is_canonical(trusted_checked):
    # each operation does raw int/Fraction arithmetic and reduces mod m
    # once, so every one of them is checked on its own
    rng = random.Random(6)
    for ring in ALL_RINGS:
        for _ in range(10):
            A = Matrix(ring, 2, 3, [rng.randint(-9, 9) for _ in range(6)])
            B = Matrix(ring, 2, 3, [rng.randint(-9, 9) for _ in range(6)])
            c = rng.randint(-9, 9)
            results = [A + B, A - B, -A, A.scale(c), A.scale(Fraction(c)),
                       A.kron(B), A * B.transpose()]
            assert all(M.ring == ring for M in results)
    # the seven results and B.transpose() each went through the check
    assert len(trusted_checked) == len(ALL_RINGS) * 10 * 8


def test_resolutions_and_derived_homology(trusted_checked):
    computed = 0
    for ring in ALL_RINGS:
        cats = [MeshCategory(build_double_an(3), ring),
                MeshCategory(build_repetitive_an(2, (-6, 6)), ring)]
        for C in cats:
            rng = random.Random(f"trusted:{ring!r}:{C.flavor}")
            for _ in range(2):
                X = random_representation(C, rng)
                classify_object(X)
                for q in C.quiver.interior_vertices():
                    for side in (SIDE_CN, SIDE_CO):
                        try:
                            derived_homology(X, q, side, 3)
                        except WindowTooSmall:
                            continue
                        computed += 1
    assert computed > 400
    assert len(trusted_checked) > 10000


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_counterexample_weak_equivalence(trusted_checked, ring):
    _, _, phi = counter_morphism(ring)
    assert is_weak_equivalence(phi)["is_weak_equivalence"] is False
    assert trusted_checked


def test_fixture_weak_equivalence(trusted_checked, capsys):
    assert main(["weq", "--input", str(FIXTURES / "counter.json")]) == 0
    assert '"is_weak_equivalence": false' in capsys.readouterr().out
    assert trusted_checked

"""Middle homology into a target with no relations takes one elimination.

When C has no relations, ``middle_homology(f, g)`` reads the cycles and
the relations of H off one kernel of g: ``kernel_basis(g, modulo=[f |
rel_B])`` returns the coordinates of f and rel_B on the kernel
generators, read from the reduced echelon form over a field and carried
through ``_smith`` as V⁻¹·[f | rel_B] over Z and Z/p^k.  It is compared
here with the two-preimage route it replaced (``preimage_generators``
twice), which targets with relations still take: on seeded complexes
over Z, Q, F_3, Z/4, Z/8 and Z/9, with and without relations on B, the
cycle generators are the same matrix, the normal forms agree, each
route's relations vanish in the other's module, and maps induced between
two complexes get the same verdicts.
"""

import random

import pytest

from qshape.errors import NotWellDefined
from qshape.exactalg import (Matrix, ModuleMap, PresentedModule, QQ, ZZ, Zmod,
                             induced_on_homology, kernel_basis, middle_homology,
                             preimage_generators)
from qshape.exactalg import modules
from qshape.exactalg.modules import HomologyData
from qshape.exactalg.smith import _smith

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(8), Zmod(9))
DRAWS = 40


def random_matrix(ring, rng, rows, cols):
    return Matrix(ring, rows, cols, [rng.randint(-4, 4) for _ in range(rows * cols)])


def in_kernel(K, rng, cols):
    """cols small combinations of the columns of K."""
    return K * random_matrix(K.ring, rng, K.cols, cols)


def draw_complex(ring, rng, with_relations):
    """A --f--> B --g--> C with C free: f and rel_B are drawn in ker g."""
    b, c = rng.randint(1, 5), rng.randint(1, 4)
    g = random_matrix(ring, rng, c, b)
    K = kernel_basis(g)
    f = in_kernel(K, rng, rng.randint(0, 3))
    rel_B = in_kernel(K, rng, rng.randint(1, 3) if with_relations else 0)
    A = PresentedModule.free(ring, f.cols)
    B = PresentedModule(ring, b, rel_B)
    C = PresentedModule.free(ring, c)
    return ModuleMap(A, B, f, check=False), ModuleMap(B, C, g, check=False)


def two_preimages(f, g) -> HomologyData:
    """The route middle_homology takes for a target with relations."""
    B = f.target
    incl = preimage_generators(g.matrix, g.target.relations)
    rel = preimage_generators(incl, Matrix.hstack([f.matrix, B.relations]))
    return HomologyData(PresentedModule(B.ring, incl.cols, rel), incl, B)


def verdicts(phi: ModuleMap):
    return (phi.is_isomorphism(), phi.cokernel().normal_form(),
            phi.kernel()[0].normal_form())


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_one_kernel_matches_two_preimages(ring):
    rng = random.Random(f"one kernel {ring!r}")
    torsion = nonzero = 0
    for with_relations in (False, True):
        for _ in range(DRAWS):
            f, g = draw_complex(ring, rng, with_relations)
            new, old = middle_homology(f, g), two_preimages(f, g)
            assert new.cycle_gens == old.cycle_gens
            assert new.module.normal_form() == old.module.normal_form()
            assert old.module.vanishes(new.module.relations)
            assert new.module.vanishes(old.module.relations)
            # an annihilator column per torsion kernel generator (Z/p^k only)
            extra = new.module.relations.cols - f.matrix.cols - f.target.relations.cols
            assert extra == 0 or ring.modulus not in (None, 3)
            torsion += extra > 0
            nonzero += not new.module.is_zero
            # c·1_B maps (f, g) to (f | more boundaries, g)
            more = Matrix.hstack([f.matrix, in_kernel(new.cycle_gens, rng, 1)])
            f2 = ModuleMap(PresentedModule.free(ring, more.cols), f.target, more,
                           check=False)
            scale = Matrix.identity(ring, f.target.generators).scale(rng.choice((1, 2, 3)))
            assert verdicts(induced_on_homology(new, middle_homology(f2, g), scale)) == \
                verdicts(induced_on_homology(old, two_preimages(f2, g), scale))
    assert nonzero
    # how many of the 80 complexes have a kernel generator of finite order
    assert torsion == {ZZ: 0, QQ: 0, Zmod(3): 0, Zmod(4): 21, Zmod(8): 27,
                       Zmod(9): 10}[ring]


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_a_target_with_relations_takes_two_preimages(ring, monkeypatch):
    # one zero relation column on C changes no group, and keeps the
    # two-preimage route reachable
    rng = random.Random(f"two preimages {ring!r}")
    calls = []
    original = modules.preimage_generators

    def counting(big, target_relations):
        calls.append(big.cols)
        return original(big, target_relations)
    monkeypatch.setattr(modules, "preimage_generators", counting)
    for _ in range(DRAWS):
        f, g = draw_complex(ring, rng, rng.random() < 0.5)
        C = g.target
        padded = PresentedModule(ring, C.generators, Matrix.zeros(ring, C.generators, 1))
        g2 = ModuleMap(g.source, padded, g.matrix, check=False)
        before = len(calls)
        assert middle_homology(f, g2).module.normal_form() == \
            middle_homology(f, g).module.normal_form()
        assert len(calls) == before + 2
    calls.clear()
    f, g = draw_complex(ring, rng, True)
    middle_homology(f, g)
    assert calls == []


@pytest.mark.parametrize("m", [0, 4, 8, 9])
def test_smith_carries_the_inverse_of_v(m):
    rng = random.Random(f"vinv {m}")
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        entries = [rng.randint(-9, 9) for _ in range(rows * cols)]
        if m:
            entries = [x % m for x in entries]
        W = [[int(i == j) for j in range(cols)] for i in range(cols)]
        S, U, V = _smith(entries, rows, cols, m, vinv=W)
        assert (S, U, V) == _smith(entries, rows, cols, m)
        ring = Zmod(m) if m else ZZ
        product = Matrix(ring, cols, cols, [x for row in V for x in row]) * \
            Matrix(ring, cols, cols, [x for row in W for x in row])
        assert product == Matrix.identity(ring, cols)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_a_column_outside_the_kernel_is_refused(ring):
    g = Matrix.from_rows(ring, [[1, 0, 2], [0, 3, 0]])
    inside = kernel_basis(g)
    K, R = kernel_basis(g, modulo=inside)
    assert K == inside
    with pytest.raises(NotWellDefined):
        kernel_basis(g, modulo=Matrix.hstack([inside, Matrix.column(ring, [1, 0, 0])]))
    # a map g that does not kill rel_B is not a map of modules
    e1 = Matrix.column(ring, [1, 0, 0])
    B = PresentedModule(ring, 3, e1)
    C = PresentedModule.free(ring, 2)
    f = ModuleMap.zero(PresentedModule.free(ring, 0), B)
    with pytest.raises(NotWellDefined):
        middle_homology(f, ModuleMap(B, C, g, check=False))
    # g·f not 0 in C is refused on either route
    B = PresentedModule.free(ring, 3)
    f = ModuleMap(PresentedModule.free(ring, 1), B, e1)
    for C in (PresentedModule.free(ring, 2),
              PresentedModule(ring, 2, Matrix.zeros(ring, 2, 1))):
        with pytest.raises(NotWellDefined):
            middle_homology(f, ModuleMap(B, C, g))

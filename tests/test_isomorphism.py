"""Isomorphisms from normal forms, and zero groups from the middle term.

``ModuleMap.is_isomorphism`` asks whether the two ends have one normal
form and the cokernel is 0: a map of finitely generated modules onto a
module isomorphic to its source is injective (Vasconcelos 1969;
Matsumura, Commutative Ring Theory, Thm 2.4), so no kernel is built.  It
is compared here with the rule it replaced, a zero cokernel and a zero
kernel (``oracles.is_isomorphism_by_kernel``), on seeded maps over Z, Q,
F_3, Z/4 and Z/9: maps induced between middle homology groups, drawn as
in test_one_kernel.py; maps between presented modules with relations;
unimodular isomorphisms; and maps that are onto but not injective or
injective but not onto.

``middle_homology`` of a complex whose middle term has no generators is
that term, the zero group, with no elimination whatever the third term,
and ``derived_homology_data`` calls it only where the middle term has
generators.
"""

import random

import pytest

from oracles import is_isomorphism_by_kernel
from qshape import homology
from qshape.exactalg import (Matrix, ModuleMap, PresentedModule, QQ, ZZ, Zmod,
                             induced_on_homology, middle_homology,
                             preimage_generators)
from qshape.exactalg import modules, smith
from qshape.fixtures import counter_morphism
from qshape.homology import is_weak_equivalence
from samplers import cyclic
from test_one_kernel import draw_complex, in_kernel, random_matrix

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
DRAWS = 40


def agrees(phi: ModuleMap) -> bool:
    verdict = phi.is_isomorphism()
    assert verdict == is_isomorphism_by_kernel(phi)
    return verdict


def induced_maps(ring, rng):
    """Maps H(f, g) -> H(f | more, g) induced by c·1_B, as test_one_kernel.py
    draws them."""
    for with_relations in (False, True):
        for _ in range(DRAWS):
            f, g = draw_complex(ring, rng, with_relations)
            h = middle_homology(f, g)
            more = Matrix.hstack([f.matrix, in_kernel(h.cycle_gens, rng,
                                                       rng.randint(0, 1))])
            f2 = ModuleMap(PresentedModule.free(ring, more.cols), f.target, more,
                           check=False)
            scale = Matrix.identity(ring, f.target.generators).scale(rng.choice((1, 2, 3)))
            yield induced_on_homology(h, middle_homology(f2, g), scale)


def presented_maps(ring, rng):
    """M: R^a/rel_S -> R^b/rel_T, rel_S drawn in the preimage of rel_T."""
    for _ in range(DRAWS):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        M = random_matrix(ring, rng, b, a)
        rel_T = random_matrix(ring, rng, b, rng.randint(0, 2))
        pre = preimage_generators(M, rel_T)
        rel_S = in_kernel(pre, rng, rng.randint(0, 2)) if pre.cols else \
            Matrix.zeros(ring, a, 0)
        yield ModuleMap(PresentedModule(ring, a, rel_S),
                        PresentedModule(ring, b, rel_T), M)


def unimodular(ring, rng, n):
    """A product of elementary matrices: row additions and unit scalings."""
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    units = [u for u in range(1, 10) if ring.is_unit(ring.canon(u))]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        u = rng.choice(units) * rng.choice((1, -1))
        rows[i] = [u * x for x in rows[i]]
    return Matrix(ring, n, n, [ring.canon(x) for row in rows for x in row])


def unimodular_maps(ring, rng):
    """U: R^n/rel -> R^n/(U·rel), an isomorphism, and the same U onto
    R^n/[U·rel | one more column], onto and perhaps not injective."""
    for _ in range(DRAWS // 2):
        n = rng.randint(1, 4)
        U = unimodular(ring, rng, n)
        rel = random_matrix(ring, rng, n, rng.randint(0, 2))
        source = PresentedModule(ring, n, rel)
        yield ModuleMap(source, PresentedModule(ring, n, U * rel), U)
        extra = Matrix.hstack([U * rel, random_matrix(ring, rng, n, 1)])
        yield ModuleMap(source, PresentedModule(ring, n, extra), U)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_normal_forms_decide_as_the_kernel_did(ring):
    rng = random.Random(f"isomorphism {ring!r}")
    verdicts = {draw: [agrees(phi) for phi in draw(ring, rng)]
                for draw in (induced_maps, presented_maps, unimodular_maps)}
    for draw, seen in verdicts.items():
        assert any(seen) and not all(seen), draw.__name__
    assert all(verdicts[unimodular_maps][::2])  # U onto R^n/(U·rel)


def one(ring, x) -> Matrix:
    return Matrix(ring, 1, 1, [x])


@pytest.mark.parametrize("source, target, x, iso", [
    # onto, not injective
    (PresentedModule.free(Zmod(4), 1), cyclic(Zmod(4), 2), 1, False),
    (PresentedModule.free(ZZ, 1), cyclic(ZZ, 2), 1, False),
    (cyclic(ZZ, 4), cyclic(ZZ, 2), 1, False),
    # injective, not onto: by 2 on Z, by p from Z/p^(k-1) into Z/p^k
    (PresentedModule.free(ZZ, 1), PresentedModule.free(ZZ, 1), 2, False),
    (cyclic(Zmod(4), 2), PresentedModule.free(Zmod(4), 1), 2, False),
    (cyclic(Zmod(9), 3), PresentedModule.free(Zmod(9), 1), 3, False),
    (cyclic(ZZ, 3), cyclic(ZZ, 9), 3, False),
    # neither: by p on Z/p^k
    (PresentedModule.free(Zmod(9), 1), PresentedModule.free(Zmod(9), 1), 3, False),
    # by a unit
    (PresentedModule.free(ZZ, 1), PresentedModule.free(ZZ, 1), -1, True),
    (PresentedModule.free(Zmod(9), 1), PresentedModule.free(Zmod(9), 1), 2, True),
    (cyclic(ZZ, 6), cyclic(ZZ, 6), 5, True),
    (PresentedModule.free(QQ, 1), PresentedModule.free(QQ, 1), 2, True),
])
def test_edge_cases(source, target, x, iso):
    assert agrees(ModuleMap(source, target, one(source.ring, x))) == iso


def test_no_kernel_is_built(monkeypatch):
    rng = random.Random("no kernel")
    maps = [phi for ring in RINGS
            for draw in (induced_maps, presented_maps, unimodular_maps)
            for phi in draw(ring, rng)]
    verdicts = [is_isomorphism_by_kernel(phi) for phi in maps]

    def refuse(*args):
        raise AssertionError("is_isomorphism built a kernel")
    monkeypatch.setattr(modules.ModuleMap, "kernel", refuse)
    monkeypatch.setattr(modules, "middle_homology", refuse)
    assert [phi.is_isomorphism() for phi in maps] == verdicts


def counting_eliminations(monkeypatch) -> list:
    calls = []
    for name in ("_smith", "_rref"):
        original = getattr(smith, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(smith, name, counting)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_a_middle_term_with_no_generators_is_zero(ring, monkeypatch):
    # A = R^2 -> B = 0 -> C = R^3 modulo a dense relation matrix
    calls = counting_eliminations(monkeypatch)
    A = PresentedModule.free(ring, 2)
    B = PresentedModule(ring, 0, Matrix.zeros(ring, 0, 1))
    C = PresentedModule(ring, 3, Matrix(ring, 3, 2, [2, 1, 3, 4, 1, 6]))
    h = middle_homology(ModuleMap(A, B, Matrix.zeros(ring, 0, 2)),
                        ModuleMap(B, C, Matrix.zeros(ring, 3, 0)))
    assert h.module is B and h.ambient is B
    assert (h.cycle_gens.rows, h.cycle_gens.cols) == (0, 0)
    assert h.module.is_zero and h.module.describe() == "0"
    assert calls == []


def test_derived_groups_call_middle_homology_only_with_generators(monkeypatch):
    # on the counterexample, every complex weq reads off the support has a
    # middle term with no generators, and no call
    calls = []
    original = homology.middle_homology

    def counting(f, g):
        calls.append(f.target.generators)
        return original(f, g)
    monkeypatch.setattr(homology, "middle_homology", counting)
    _, _, phi = counter_morphism(QQ)
    assert is_weak_equivalence(phi, 3)["is_weak_equivalence"] is False
    assert calls and all(calls)

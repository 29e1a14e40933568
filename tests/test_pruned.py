"""Stalk complexes paired with X's pruned model, against the same complexes
paired with X's own presentation (kept in oracles.py), and
PresentedModule.pruned on its own.

The engine pairs every stalk resolution with X.pruned()[0] and transports
a morphism's components to the models of its ends (homology._transported).
The oracle route runs the same decision procedures on fresh copies of X
with the resolution paired with the values as given and the components
used as they are.  Inputs are seeded ``random_representation`` draws over
Z, Q, F_3, Z/4 and Z/9 on double A_2..A_5 and on repetitive A_2 and A_3 on
(-3, 3).  For each draw the normal forms of H_0..H_7 and H^0..H^7 are
compared at every probe, then ``classify_object``, then, for c·1_X
(c = 1, 2, 3), the inclusion of the kernel of 3·1_X and 2·1_X plus a map
into the relations of X, the weak equivalence table to depth 3 and the
shape of every induced map H_i(φ), i = 0..3 at every probe of either side:
its isomorphism verdict and the normal forms of its kernel and cokernel.
Over the five rings that is 24,432 groups, 60 classifications, 300 tables
and 61,080 induced maps.
"""

import random

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape import homology
from qshape.exactalg import middle_homology
from qshape.homology import (SIDE_CN, SIDE_CO, classify_object,
                             derived_homology, derived_homology_map,
                             homology_probe_vertices, is_weak_equivalence,
                             resolve_stalk)
from qshape.quiver import vertex_key
from qshape.repmod import (RepMorphism, Representation, kernel_of_morphism,
                           random_representation, validate_morphism)

from oracles import complex_from_own_presentation

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
SIDES = (SIDE_CN, SIDE_CO)
DEPTH = 7
WEQ_DEPTH = 3
DRAWS = 2
# per ring: (H_i/H^i groups compared, of which nonzero; induced maps
# compared, of which not isomorphisms; draws with a value that pruned)
CASES = {"ZZ": (4848, 129, 12120, 282, 5), "QQ": (5056, 120, 12640, 68, 9),
         "Zmod(3)": (4624, 155, 11560, 83, 12),
         "Zmod(4)": (5168, 157, 12920, 267, 9),
         "Zmod(9)": (4736, 131, 11840, 138, 8)}


def categories(ring):
    return ([MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)]
            + [MeshCategory(build_repetitive_an(n, (-3, 3)), ring)
               for n in (2, 3)])


def draws(ring):
    for k, C in enumerate(categories(ring)):
        rng = random.Random(f"pruned:{ring!r}:{k}")
        for _ in range(DRAWS):
            yield random_representation(C, rng)


def fresh(X) -> Representation:
    """The same values and arrow maps, with nothing kept."""
    return Representation(X.category, X.values, X.arrow_maps)


def probes(X):
    """Every vertex where some H_i or H^i, i <= DEPTH, can be nonzero: the
    resolutions of either side reach (DEPTH + 1)(n - 1) columns from q."""
    C = X.category
    reach = (DEPTH + 1) * (C.n - 1)
    return homology_probe_vertices(C, X.support, reach, reach)


def morphisms(X):
    """c·1_X for c = 1, 2, 3, the inclusion of the kernel of 3·1_X, and 2·1_X
    written with a seeded map into the relations added at every vertex,
    rel_v · T_v, which is zero on X(v): its matrices have entries in the rows
    that pruning drops."""
    ring = X.ring
    scaled = [RepMorphism(X, X, {v: Matrix.identity(ring, m.generators).scale(c)
                                 for v, m in X.values.items()})
              for c in (1, 2, 3)]
    K, incl = kernel_of_morphism(scaled[-1])
    rng = random.Random(len(X.values))
    noisy = {}
    for v, m in sorted(X.values.items(), key=lambda item: vertex_key(item[0])):
        T = Matrix(ring, m.relations.cols, m.generators,
                   [rng.randint(-2, 2) for _ in range(m.relations.cols * m.generators)])
        noisy[v] = scaled[1].component(v) + m.relations * T
    return scaled + [RepMorphism(K, X, incl), RepMorphism(X, X, noisy)]


def own_presentation_groups(X, q, side):
    """Normal forms of degrees 0..DEPTH of the complex at q paired with X's
    own presentation, every degree from one complex."""
    res = resolve_stalk(X.category, q, side, DEPTH + 1)
    eng = res._engine
    _, maps = complex_from_own_presentation(res, X, DEPTH + 2)
    return [middle_homology(*eng.ends(maps[i], maps[i + 1])).module.normal_form()
            for i in range(DEPTH + 1)]


def map_shape(f):
    return (f.is_isomorphism(), f.kernel()[0].normal_form(),
            f.cokernel().normal_form())


def decisions(X, phis):
    """classify_object, then per morphism its weak-equivalence table and
    the shape of H_i(φ) at every probe, i = 0..WEQ_DEPTH, on both sides."""
    out = [classify_object(X).describe()]
    for phi in phis:
        weq = is_weak_equivalence(phi, WEQ_DEPTH)
        out.append((weq["is_weak_equivalence"], weq["iso_table"]))
        out.append({(q, side, i): map_shape(derived_homology_map(phi, q, side, i))
                    for q in probes(X) for side in SIDES
                    for i in range(WEQ_DEPTH + 1)})
    return out


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_pruned_model_matches_the_own_presentation(ring, monkeypatch):
    groups = nonzero = maps = not_iso = pruned = 0
    mismatches = []
    for X in draws(ring):
        pruned += bool(X.pruned()[1])
        Y = fresh(X)
        for q in probes(X):
            for side in SIDES:
                got = [H.normal_form()
                       for H in derived_homology(X, q, side, DEPTH).values()]
                want = own_presentation_groups(Y, q, side)
                groups += len(want)
                nonzero += sum(not nf.is_zero for nf in want)
                if got != want:
                    mismatches.append((X.category.quiver, q, side))
        phis = morphisms(X)
        assert validate_morphism(phis[-1])["ok"]
        got = decisions(X, phis)
        with monkeypatch.context() as m:
            m.setattr(homology, "_complex_from_resolution",
                      complex_from_own_presentation)
            m.setattr(homology, "_transported", lambda phi, r: phi.component(r))
            # the zero rule reads the pruned model, which this route never builds
            m.setattr(homology, "_zero_group", lambda X, route: None)
            want = decisions(Y, morphisms(Y))
        for shapes in want[2::2]:
            maps += len(shapes)
            not_iso += sum(not iso for iso, _, _ in shapes.values())
        if got != want:
            mismatches.append((X.category.quiver, "decisions"))
    assert not mismatches
    assert (groups, nonzero, maps, not_iso, pruned) == CASES[repr(ring)]


def test_fields_keep_no_relation_in_the_model():
    for ring in (QQ, Zmod(3)):
        for X in draws(ring):
            model, _ = X.pruned()
            for m in model.values.values():
                assert not m.relations.cols
                assert m.generators == m.normal_form().free_rank


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_projections_are_a_natural_isomorphism_onto_the_model(ring):
    for X in draws(ring):
        model, prunings = X.pruned()
        assert model.pruned() == (model, {})
        assert model.support == X.support
        P = {v: prunings[v][0] if v in prunings
             else Matrix.identity(ring, m.generators)
             for v, m in X.values.items()}
        phi = RepMorphism(X, model, P)
        assert validate_morphism(phi)["ok"]
        for v in X.values:
            assert phi.component_map(v).is_isomorphism()


def test_relation_free_representations_are_their_own_model():
    for ring in RINGS:
        C = MeshCategory(build_double_an(3), ring)
        X = random_representation(C, random.Random(3))
        free = Representation(C, {v: PresentedModule.free(ring, m.generators)
                                  for v, m in X.values.items()}, X.arrow_maps)
        assert free.pruned() == (free, {})


# ---------------------------------------------------------------------------
# PresentedModule.pruned
# ---------------------------------------------------------------------------

def random_modules(ring, seed, count=150):
    """Seeded modules of 0..6 generators and 0..7 relations: dense with
    entries in [-2, 2] or [-9, 9], and sparse ones."""
    rng = random.Random(f"prune:{ring!r}:{seed}")
    for k in range(count):
        g, c = rng.randint(0, 6), rng.randint(0, 7)
        bound = (2, 9, 9)[k % 3]
        entries = [rng.randint(-bound, bound) if k % 3 != 2 or rng.random() < 0.3
                   else 0 for _ in range(g * c)]
        yield PresentedModule(ring, g, Matrix(ring, g, c, entries))


def is_unit_entry(ring, x):
    if ring.kind == "Z":
        return x in (1, -1)
    if ring.is_field:
        return x != 0
    return x % ring.prime != 0


def canonical(M: Matrix) -> bool:
    return Matrix(M.ring, M.rows, M.cols, M.entries) == M and \
        all(type(x) is type(M.ring.canon(x)) for x in M.entries)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_pruned_module_is_isomorphic_and_has_no_unit_entry(ring):
    changed = 0
    for M in random_modules(ring, 1):
        want = M.normal_form()
        P, proj, kept = M.pruned()
        changed += P is not M
        rel = M.relations
        assert P.relations.rows == P.generators == len(kept) == proj.rows
        assert proj.cols == M.generators
        assert list(kept) == sorted(set(kept))
        assert canonical(P.relations) and canonical(proj)
        # the normal form is unchanged, and not computed again
        assert PresentedModule(ring, P.generators, P.relations).normal_form() \
            == want
        assert P._normal_form is want
        # projection carries rel into the span of the pruned relations, is
        # the identity on the kept generators, and the kept generators give
        # back each generator up to the span of rel
        assert P.vanishes(proj * rel)
        assert proj.take_columns(kept) == Matrix.identity(ring, P.generators)
        back = Matrix.identity(ring, M.generators).take_columns(kept) * proj
        assert M.vanishes(Matrix.identity(ring, M.generators) - back)
        assert not any(is_unit_entry(ring, x) for x in P.relations.entries)
        if ring.is_field:
            assert P.relations.cols == 0
    assert changed > 50


def test_pruned_normal_form_is_inherited_before_it_is_computed():
    M = PresentedModule(ZZ, 2, Matrix(ZZ, 2, 2, [1, 2, 3, 4]))
    P, proj, kept = M.pruned()
    assert P._normal_form is None
    assert (P.generators, P.relations, proj, kept) == \
        (1, Matrix(ZZ, 1, 1, [-2]), Matrix(ZZ, 1, 2, [-3, 1]), (1,))
    M.normal_form()
    assert M.pruned()[0]._normal_form is M._normal_form
    assert M.pruned()[0].describe() == "Z/2"


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_modules_without_a_unit_relation_come_back_as_themselves(ring):
    free = PresentedModule.free(ring, 3)
    for M in (free, PresentedModule.free(ring, 0)):
        P, proj, kept = M.pruned()
        assert P is M
        assert proj == Matrix.identity(ring, M.generators)
        assert kept == tuple(range(M.generators))
    # zero relations are dropped, and every generator kept
    P, proj, kept = PresentedModule(ring, 2, Matrix.zeros(ring, 2, 3)).pruned()
    assert (P.generators, P.relations.cols, kept) == (2, 0, (0, 1))
    assert proj == Matrix.identity(ring, 2)
    if not ring.is_field:
        p = ring.prime or 2
        M = PresentedModule(ring, 2, Matrix(ring, 2, 2, [p, 0, p, p]))
        assert M.pruned()[0] is M

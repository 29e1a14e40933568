"""Stalk resolutions, the (co)homology functors they define, and the
decision procedures for exactness, projectivity, injectivity, and weak
equivalence.

The (co)homology functors at a vertex q are computed from projective
resolutions of the two stalk functors at q.  Side co resolves the
covariant stalk by summands Q(r, -) and derives H^i; side cn resolves
the contravariant stalk by summands Q(-, r) and derives H_i.  Each side
is the other read in Q^op, so the engine is written once: a pair (a, b)
read on side co is read as (b, a) on side cn, and _Side.ends is the only
place that decides it.  Both resolutions are periodic and given in
closed form with no elimination (resolve_stalk): the arrows at q, the
far end μ(q) of its mesh, then σ(q), after which the resolution at σ(q)
repeats.  This is Ω³S_q ≅ S_σ(q) for the mesh algebras of type A
(Brenner-Butler-King, "Periodic algebras which are almost Koszul",
2002); over a field the resolution is minimal.  The elimination-built
resolutions it replaced are kept in the test suite as oracles, which
assert exactness at every level.

Every stalk complex is paired with X's pruned model (Representation.
pruned): each value with every unit-pivot generator eliminated by a
Tietze move, once per value, and each arrow read on the generators that
remain.  The model is isomorphic to X vertex by vertex, so its complexes
have X's homology, on fewer generators and relations; over a field no
relation is left.  A morphism's components are carried to the models of
its ends by _transported.

Every per-vertex group, induced map and weak-equivalence verdict is
read at a route key from _route: levels 4 and up at q are the
resolution at σ(q), so degree i at q is degree j = i - 3k <= 3 at
v = σ^k(q).  μ and σ^k are closed forms in (row, column) (_mu, _sigma):
μ moves one column, down on side co and up on side cn, and σ twice moves
n + 1 columns the same way; on double A_n, μ is the identity and σ(r) =
n + 1 - r.  X keeps the group under a kept key: the two sides are
segments of one periodic resolution, and with the signs of resolve_stalk
side co's complexes of degrees 1-3 are side cn's, level by level; with
w = μ(v) on side co and u = σ(w):

* degree 1 at v, X(v) -> ⊕ X(r) -> X(w), is side cn's levels 2 -> 1 -> 0
  at w, as the arrows into w are those out of v;
* degrees 2 and 3 at v, levels 1 -> 2 -> 3 and 2 -> 3 -> 4, are side
  cn's levels 4 -> 3 -> 2 and 3 -> 2 -> 1 at u, whose σ(u) is w and
  whose τ(u) is side co's σ(v).

So each group is kept on X under its kept key and computed once, and a
complex whose middle term has no generators, as every one off the
support on ZA_n, is the zero group with no elimination.  That rule is
decided before any resolution: level j <= 3's summand vertices are
closed forms (q, the far ends of the arrows at q, μ(q), σ(q);
_level_vertices), so where none carries a generator on X's pruned model
_zero_group keeps the zero group with no resolution or complex built.
is_weak_equivalence and mesh_homology_data ask it first; the complexes
of derived_homology_data, whose groups are mostly live, apply the same
rule to the middle term they build.  Each complex is kept too, on X's
pruned model per (vertex, side), and extended in place, so each of its
levels is built once (_complex_from_resolution).  By the
same twin rule side co's level-1 boundary at v is side cn's level-2
boundary at w: H^0 at v has the cycles of side cn's H_2 at w, and once
that group is kept, H^0 is read off them with no second kernel
(_kernel_from_cycles).  Maps read level
j at the route vertex (_induced), so no resolution grows past level 4,
and is_weak_equivalence tests each route key once, building no map where
both groups have no generators and no complex where both middle terms
have none.  Degrees 0 and 1 are the functors of the mesh category
itself:

* the kernel corner K_q(X) is H^0 at q, the kernel of the side-co
  level-1 boundary X(q) -> ⊕ X(r) over the arrows q -> r, which is side
  cn's level-2 boundary at μ(q);
* the cokernel corner C_q(X) is H_0 at q, the cokernel of the side-cn
  level-1 boundary ⊕ X(p) -> X(q) over the arrows p -> q;
* mesh homology at q is H_1 at q: levels 2 -> 1 -> 0 of the side-cn
  complex are X(tau q) -> ⊕ X(p_i) -> X(q), the mesh complex at q.

Every answer is one on the infinite quiver ZA_n: a representation on a
window is zero off it, every rule here reads coordinates only, and the
probes of the decision procedures run past the window wherever homology
can be nonzero.  Homology groups come back as presented modules in
invariant-factor normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidMorphism, InvalidParameter
from .exactalg import (Matrix, ModuleMap, PresentedModule, middle_homology,
                       induced_on_homology)
from .exactalg.modules import HomologyData, preimage_generators
from .meshcat import MeshCategory
from .quiver import DOUBLE_AN, format_vertex, vertex_at
from .repmod import Representation, RepMorphism, validate_morphism

SIDE_CO = "co"   # covariant stalk: resolves S_[q>, derives H^i (cohomology)
SIDE_CN = "cn"   # contravariant stalk: resolves S_<q], derives H_i (homology)


# ---------------------------------------------------------------------------
# stalk resolutions
# ---------------------------------------------------------------------------

class _Side:
    """The one place the side of a resolution is decided.

    ``ends(a, b)`` orders a pair the way side co reads it, (a, b), or
    reversed, (b, a), on side cn, and ``oriented`` applies the same rule
    to a two-argument map.  Everything below has one body: a boundary entry
    between summands a and b lies in Q(ends(a, b)), and the r-summand's
    value at s has rank d(ends(r, s)).  An entry is stored as its terms
    ((coeff, basis element), ...), as the closed form writes it.
    """

    def __init__(self, C: MeshCategory, side: str):
        self.C = C
        self.side = side
        co = side == SIDE_CO

        def oriented(f):
            return f if co else (lambda a, b: f(b, a))
        self.ends = oriented(lambda a, b: (a, b))
        # value_dim(r, s): rank of the r-summand's value at the vertex s
        self.value_dim = oriented(C.d)
        # entries act on a summand's values by precomposition on side co
        # (values Q(r, s)) and by postcomposition on side cn (values Q(s, r))
        self._entry_mult = C.right_mult_matrix if co else C.left_mult_matrix
        # signs of the (at most two) entries of levels 1 and 2 (resolve_stalk)
        plain, signed = (C.ring.one,) * 2, (C.ring.one, C.ring.neg(C.ring.one))
        self.signs = {1: signed, 2: plain} if co else {1: plain, 2: signed}

    @staticmethod
    def _terms(entry, act) -> Matrix:
        """Sum of act(coeff, e) over the terms of a boundary entry, which
        always has one."""
        terms = [act(coeff, e) for coeff, e in entry]
        return sum(terms[1:], terms[0])

    def act_matrix(self, entry, s) -> Matrix:
        """Component at s of the boundary entry: summand-b coords to summand-a."""
        return self._terms(entry, lambda coeff, e: self._entry_mult(coeff, e, s))

    def head(self, q):
        """(arrow basis element, new summand vertex), one per arrow out of
        (side co) or into (side cn) q: the degree-one boundary.  The arrows
        into q are those of its mesh, and the arrows out of q are the ones
        paired with them in the mesh at tau^-1(q), one column down."""
        out = self.side == SIDE_CO
        mesh = self.C.quiver.mesh_at(_mu(self.C, q, SIDE_CO) if out else q)
        return [(e, self.ends(e.source, e.target)[1])
                for _, e in map(self.C.arrow_elt, mesh.paired if out else mesh.arrows)]

    def x_value_block(self, X: Representation, entry) -> Matrix:
        """X applied to a boundary entry in Q(ends(a, b)): X(a) -> X(b) on
        side co, X(b) -> X(a) on side cn."""
        return self._terms(entry, X.evaluate_matrix)


def _mu(C: MeshCategory, v, side: str):
    """μ(v), where the arms of the mesh at v meet: τ^-1(v), one column down,
    on side co and τ(v), one column up, on side cn (v on double A_n)."""
    row, col = C._coords(v)
    return vertex_at(row, col, -1 if side == SIDE_CO else 1)


def _sigma(C: MeshCategory, v, side: str, k: int):
    """σ^k(v), k >= 0.  σ(v), the level-3 summand, is S(μ v) on side co and
    S^-1(μ v) = τ^(n-1) S(μ v) on side cn (S^2 = τ^(1-n)), with S(r, c) =
    (n+1-r, c+1-r): one step sends (r, c) to (n+1-r, c-r) on side co and to
    (n+1-r, c+n+1-r) on side cn, and two steps move n + 1 columns, down on
    side co and up on side cn.  On double A_n, σ(r) = n + 1 - r."""
    row, col = C._coords(v)
    pairs, odd = divmod(k, 2)
    shift = pairs * (C.n + 1) + odd * (row if side == SIDE_CO else C.n + 1 - row)
    return vertex_at(C.n + 1 - row if odd else row, col,
                     -shift if side == SIDE_CO else shift)


@dataclass
class StalkResolution:
    """Levels of representable summands with boundary entry tables.

    terms[i] is the list of summand vertices of level i; boundaries[i]
    (for i >= 1) maps (a, b) to the terms ((coeff, basis element), ...)
    of the entry between summand a of level i-1 and summand b of level i.
    """
    side: str
    vertex: object
    terms: list
    boundaries: list
    _engine: _Side

    def length(self) -> int:
        return len(self.terms) - 1

    def level_matrix(self, i: int, s) -> Matrix:
        """The boundary P_i -> P_{i-1} evaluated at the vertex s."""
        eng = self._engine
        blocks = {ab: eng.act_matrix(entry, s)
                  for ab, entry in self.boundaries[i].items()}
        return Matrix.blocks(eng.C.ring, blocks,
                             [eng.value_dim(r, s) for r in self.terms[i - 1]],
                             [eng.value_dim(r, s) for r in self.terms[i]])


def _start_resolution(eng: _Side, q, head, signs=None) -> StalkResolution:
    """Levels zero and one: the vertex q and one summand per (entry, vertex)
    of head, the entries carrying ``signs`` in order, or 1 without them."""
    signs = signs or [eng.C.ring.one] * len(head)
    bd1 = {(0, b): ((sign, e),) for b, ((e, _), sign) in enumerate(zip(head, signs))}
    return StalkResolution(eng.side, q, [[q], [r for _, r in head]],
                           [None, bd1], eng)


def resolve_stalk(C: MeshCategory, q, side: str, length: int) -> StalkResolution:
    """Projective resolution of the stalk functor at q, out to the given length.

    Every level is given by a closed rule, with no elimination; μ is τ^-1
    on side co and τ on side cn (the identity on double A_n):

    * level 1: one summand per arrow out of (side co) or into (side cn) q,
      the entry being that arrow's basis element;
    * level 2: the one summand μ(q), reached from the level-1 summands
      by the arms of the mesh on their degree-one basis elements.  Every
      entry of levels 1 and 2 is +1 but one, -1: the second arrow on side
      co, the second arm on side cn (where there is one), so that side
      co's complexes are side cn's (see _route); moving it negates one
      summand.  All parallel signed paths are equal, so two arms cancel,
      and on a boundary row the single arm's composite is zero;
    * level 3: the one summand σ(q), with σ(q) = S(μ q) on side co and
      S^-1(μ q) on side cn for the Serre functor S, the entry being the
      top-degree basis element (on double A_n, σ(q) = n + 1 - q);
    * level i >= 4: a copy of level i - 3 of the resolution at σ(q), whose
      level 0 is this one's level 3.

    This is Ω³S_q ≅ S_σ(q) (see the module docstring).  μ and σ are
    closed forms in the row and column of q (_mu, _sigma): the rules read
    coordinates only, so every vertex of ZA_n has its resolution, inside
    the window or not.  Results are cached on the category, and a cached
    resolution is extended in place when a longer one is asked for.
    """
    key = (q, side)
    res = C._resolution_cache.get(key)
    if res is None:
        eng = _Side(C, side)
        res = _start_resolution(eng, q, eng.head(q), eng.signs[1])
        C._resolution_cache[key] = res
    while res.length() < length:
        terms, entries = _next_level(res)
        res.terms.append(terms)
        res.boundaries.append(entries)
    return res


def _next_level(res: StalkResolution):
    """Terms and entry table of the level after the last one, for levels
    two and up (see resolve_stalk)."""
    eng = res._engine
    C, ring = eng.C, eng.C.ring
    i = res.length() + 1
    if i >= 4:
        # level i - 3 of σ(q)'s resolution; when σ(q) = q that is this
        # resolution, which is cached before it is extended
        src = resolve_stalk(C, _sigma(C, res.vertex, res.side, 1), res.side, i - 3)
        return list(src.terms[i - 3]), dict(src.boundaries[i - 3])
    if i == 2:
        r, degree, signs = _mu(C, res.vertex, res.side), 1, eng.signs[2]
    else:
        r, degree, signs = _sigma(C, res.vertex, res.side, 1), C.top_degree(), (ring.one,)
    entries = {}
    for b, (a, sign) in enumerate(zip(res.terms[i - 1], signs)):
        e = next(x for x in C.hom_basis(*eng.ends(a, r)) if x.degree == degree)
        entries[(b, 0)] = ((sign, e),)
    return [r], entries


# ---------------------------------------------------------------------------
# derived (co)homology
# ---------------------------------------------------------------------------

def _complex_from_resolution(res: StalkResolution, X: Representation,
                             levels: int):
    """(modules, maps) of the first ``levels`` levels of the resolution
    paired with X's pruned model Y (Representation.pruned), isomorphic to X
    vertex by vertex; a longer cached resolution costs nothing beyond them.
    Level i carries ⊕_a Y(r_a), and maps[i] runs between levels
    ends(i-1, i): upward on side co (a cochain complex), downward on side
    cn (a chain complex); maps[0] is the zero map between level 0 and 0.

    The complex is kept in place on Y (Representation._complexes) per
    (vertex, side) with the resolution it pairs, and extended when more
    levels are asked for, so each level is built once per representation;
    another resolution object at the same key builds its complex afresh.
    """
    eng = res._engine
    X = X.pruned()[0]
    key = (res.vertex, res.side)
    kept = X._complexes.get(key)
    if kept is None or kept[0] is not res:
        kept = X._complexes[key] = (res, [], {}, [])
    _, modules, maps, dims = kept
    for i in range(len(modules), min(levels, len(res.terms))):
        level = [X.value(r) for r in res.terms[i]]
        dims.append([m.generators for m in level])
        # every level has a summand, and one summand is its own sum
        modules.append(level[0].direct_sum(*level[1:]) if len(level) > 1 else level[0])
        if not i:
            maps[0] = ModuleMap.zero(*eng.ends(PresentedModule.free(X.ring, 0),
                                               modules[0]))
            continue
        src, dst = eng.ends(i - 1, i)
        blocks = {}
        for (a, b), entry in res.boundaries[i].items():
            row, col = eng.ends(b, a)
            if dims[dst][row] and dims[src][col]:  # else the block is zero
                blocks[row, col] = eng.x_value_block(X, entry)
        M = Matrix.blocks(X.ring, blocks, dims[dst], dims[src])
        maps[i] = ModuleMap(modules[src], modules[dst], M, check=False)
    if len(modules) > levels:
        return modules[:levels], {i: maps[i] for i in range(levels)}
    return modules, maps


def _route(C: MeshCategory, q, side: str, i: int):
    """(route key, kept key) of degree i at q on one side.  The route key
    is (v, side, j) with v = σ^k(q) and j = i - 3k <= 3, k = max(i - 1, 0)
    // 3, as levels 4 and up are the resolution at σ(q) (resolve_stalk);
    k = 0 reads no coordinates.  X keeps the group under the route key but
    for side co's degrees 1-3: degree 1 at v is side cn's degree 1 at
    w = μ(v), and degrees 2 and 3 are side cn's 3 and 2 at σ(w) (see the
    module docstring)."""
    k = max(i - 1, 0) // 3
    v, j = (_sigma(C, q, side, k) if k else q), i - 3 * k
    if side == SIDE_CN or j == 0:
        return (v, side, j), (v, side, j)
    w = _mu(C, v, SIDE_CO)
    kept = (w, SIDE_CN, 1) if j == 1 else (_sigma(C, w, SIDE_CO, 1), SIDE_CN, 5 - j)
    return (v, side, j), kept


def _level_vertices(C: MeshCategory, v, side: str, j: int):
    """The summand vertices of level j <= 3 of the resolution at v, read in
    closed form with nothing built: v, the far ends of the arrows at v,
    μ(v) and σ(v) (resolve_stalk).  The far ends are the sources of the
    mesh's arms at v on side cn and at μ(v) on side co (_Side.head)."""
    if j == 0:
        return (v,)
    if j == 1:
        at = _mu(C, v, SIDE_CO) if side == SIDE_CO else v
        return tuple(a.source for a in C.quiver.mesh_at(at).arrows)
    return (_mu(C, v, side) if j == 2 else _sigma(C, v, side, 1),)


def _zero_group(X: Representation, route):
    """The group at a route key (v, side, j <= 3) when level j's summands
    carry no generator on X's pruned model, or None.  That complex's
    middle term has no generators, so its group is 0 whatever its ends:
    it is kept on X under its kept key, with no resolution, complex or
    elimination (_level_vertices)."""
    v, side, j = route
    C = X.category
    values = X.pruned()[0].values
    if any(r in values for r in _level_vertices(C, v, side, j)):
        return None
    kept = _route(C, v, side, j)[1]
    group = X._homology.get(kept)
    if group is None:
        zero = PresentedModule.free(X.ring, 0)
        group = X._homology[kept] = HomologyData(zero, Matrix.identity(X.ring, 0), zero)
    return group


def derived_homology_data(X: Representation, q, side: str, degrees) -> dict:
    """HomologyData per listed degree for one side at one vertex.

    Each degree is read at its _route key and kept on X under its kept
    key.  H^0 at v is read off side cn's H_2 at μ(v) when that group is
    kept (_kernel_from_cycles).  Each route vertex with degrees not kept
    gets one complex of the side asked for, to one level past the highest;
    it equals the kept key's, so the group does not depend on the route.  A
    complex whose middle term has no generators is the zero group, that
    term itself, with no middle_homology call, whatever its ends.
    """
    C, memo = X.category, X._homology
    kept, missing = {}, {}  # missing: route vertex -> {degree j: kept key}
    for i in degrees:
        (v, _, j), kept[i] = _route(C, q, side, i)
        if kept[i] in memo:
            continue
        if side == SIDE_CO and j == 0:
            h0 = _kernel_from_cycles(X, v)
            if h0 is not None:
                memo[kept[i]] = h0
                continue
        missing.setdefault(v, {})[j] = kept[i]
    for v, wanted in missing.items():
        top = max(wanted)
        res = resolve_stalk(C, v, side, top + 1)
        _, maps = _complex_from_resolution(res, X, top + 2)
        for j, key in sorted(wanted.items()):
            f, g = res._engine.ends(maps[j], maps[j + 1])
            memo[key] = middle_homology(f, g) if f.target.generators else \
                HomologyData(f.target, Matrix.identity(X.ring, 0), f.target)
    return {i: memo[key] for i, key in kept.items()}


def _kernel_from_cycles(X: Representation, v):
    """H^0 at v from side cn's H_2 at w = μ(v), kept on X, or None when it
    is not kept.

    Side co's level-1 boundary g: X(v) -> ⊕ X(r) is side cn's level-2
    boundary at w (see the module docstring), so H_2's cycle generators
    incl are H^0's, and H^0 is their span modulo rel_B alone, with B = X(v)
    and C the level-1 term, read off the complex at w.  When C is free,
    middle_homology's one elimination kernel_basis(g, modulo=[f | rel_B])
    already gave the coordinates of rel_B's columns, and over Z/p^k the
    torsion columns after them: H^0's relations are those columns, with no
    elimination.  Otherwise they are preimage_generators(incl, rel_B), the
    second of the two eliminations the side-co complex would take.  Where
    B or C has no generators, every element of B is a cycle and H^0 is B.
    """
    C = X.category
    w = _mu(C, v, SIDE_CO)
    h2 = X._homology.get((w, SIDE_CN, 2))
    if h2 is None:
        return None
    modules, _ = _complex_from_resolution(resolve_stalk(C, w, SIDE_CN, 3), X, 4)
    target, B, width = modules[1], modules[2], modules[3].generators
    incl = h2.cycle_gens
    if not (B.generators and target.generators):
        return HomologyData(B, incl, B)
    if target.relations.cols:
        rel = preimage_generators(incl, B.relations)
    else:
        rel = h2.module.relations
        rel = rel.take_columns(range(width, rel.cols))
    return HomologyData(PresentedModule(X.ring, incl.cols, rel), incl, B)


def derived_homology(X: Representation, q, side: str = SIDE_CN,
                     max_degree: int = 2) -> dict:
    """Presented modules H_i (side cn) or H^i (side co) for i <= max_degree."""
    data = derived_homology_data(X, q, side, range(max_degree + 1))
    return {i: d.module for i, d in data.items()}


def _induced(phi: RepMorphism, route, hx, hy) -> ModuleMap:
    """The map φ induces between hx and hy, the groups of its source and
    target at one route key (v, side, j): φ, carried to the pruned models,
    on level j of the resolution at v, as the degree routed there reads."""
    v, side, j = route
    terms = resolve_stalk(phi.source.category, v, side, j).terms[j]
    block = Matrix.block_diag(phi.source.ring, [_transported(phi, r) for r in terms])
    return induced_on_homology(hx, hy, block)


def _transported(phi: RepMorphism, r) -> Matrix:
    """φ's component at r between the pruned models of its ends, the
    models every stalk complex is built from: P_Y(r) · φ(r)[:, kept_X(r)]."""
    M = phi.component(r)
    source = phi.source.pruned()[1].get(r)
    target = phi.target.pruned()[1].get(r)
    if source is not None:
        M = M.take_columns(source[1])
    if target is not None:
        M = target[0] * M
    return M


def derived_homology_map(phi: RepMorphism, q, side: str, degree: int) -> ModuleMap:
    """The induced map on one derived homology group."""
    hx, hy = (derived_homology_data(Z, q, side, (degree,))[degree]
              for Z in (phi.source, phi.target))
    return _induced(phi, _route(phi.source.category, q, side, degree)[0], hx, hy)


# ---------------------------------------------------------------------------
# degrees 0 and 1: the corner functors and mesh homology
# ---------------------------------------------------------------------------

@dataclass
class CornerValues:
    K: PresentedModule
    C: PresentedModule


def corner_functors(X: Representation, q) -> CornerValues:
    """The corner functors K_q(X) = H^0 and C_q(X) = H_0 at q, the
    degree-0 groups kept on X by derived_homology_data.

    H^0 is the kernel of the side-co boundary X(q) -> ⊕ X(r) over the
    arrows q -> r: the elements of X(q) killed by every arrow out of q,
    and so by every radical morphism, as the arrows generate the radical.
    Dually H_0 is the cokernel of the side-cn boundary ⊕ X(p) -> X(q):
    X(q) modulo the images of the radical morphisms into q.
    """
    return CornerValues(derived_homology_data(X, q, SIDE_CO, (0,))[0].module,
                        derived_homology_data(X, q, SIDE_CN, (0,))[0].module)


def mesh_homology_data(X: Representation, q) -> HomologyData:
    """H_1 at q, the homology of the mesh complex at q.

    Levels 2 -> 1 -> 0 of the side-cn stalk complex are the mesh complex
    X(tau q) -> ⊕ X(p_i) -> X(q), each entry signed by its basis element
    rather than by its arrow, which negates summands: no homology changes.
    Where no X(p_i) has a generator on the pruned model the group is the
    kept zero group (_zero_group), with no resolution or complex built.
    """
    return (_zero_group(X, (q, SIDE_CN, 1))
            or derived_homology_data(X, q, SIDE_CN, (1,))[1])


def mesh_homology(X: Representation, q) -> PresentedModule:
    """Mesh homology at q: H_1 of the side-cn stalk complex."""
    return mesh_homology_data(X, q).module


def mesh_homology_map(phi: RepMorphism, q) -> ModuleMap:
    """The induced map on mesh homology at q, which is H_1(phi) at q."""
    return derived_homology_map(phi, q, SIDE_CN, 1)


# ---------------------------------------------------------------------------
# probes: where homology can live
# ---------------------------------------------------------------------------

def homology_probe_vertices(C: MeshCategory, support, below: int, above: int):
    """The vertices of ZA_n, in vertex order, from `below` columns under the
    lowest column of `support` to `above` columns over its highest, inside
    the window or not; on the double flavor, every vertex."""
    if C.flavor == DOUBLE_AN:
        return list(C.vertices)
    if not support:
        return []
    lo, hi = min(v[1] for v in support), max(v[1] for v in support)
    return [(row, col) for col in range(lo - below, hi + above + 1)
            for row in range(1, C.n + 1)]


def _cn_probes(X: Representation, Y: Representation, max_degree: int):
    """Vertices where some H_i (i <= max_degree) of X or Y can be nonzero:
    the side-cn resolution at q has level-i summands within i(n-1) columns
    above q, so probes run from that reach below the support to its top."""
    C = X.category
    return homology_probe_vertices(C, X.support | Y.support,
                                   (max_degree + 1) * (C.n - 1), 0)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------

NOT_THEOREM_BACKED = "not_theorem_backed"


@dataclass
class ClassificationVerdict:
    is_exact: object            # True | False | NOT_THEOREM_BACKED
    is_projective: object
    is_injective: object
    homology_vanishes: bool
    witnesses: dict = field(default_factory=dict)

    def describe(self):
        return {"is_exact": self.is_exact,
                "is_projective": self.is_projective,
                "is_injective": self.is_injective,
                "homology_vanishes": self.homology_vanishes,
                "witnesses": dict(self.witnesses)}


def classify_object(X: Representation) -> ClassificationVerdict:
    """Exactness via vanishing mesh homology; projectivity and injectivity
    by combining it with corner projectivity/injectivity.  A probe whose
    mesh has no generator in its middle term is read as 0 with nothing
    built (mesh_homology_data).

    The mesh-homology characterization of the exact class is only
    theorem-backed over hereditary base rings (Z, Q, Z/p); over Z/p^k
    with k >= 2 the computation is still reported but the exactness
    verdict is flagged.  The projective/injective characterizations hold
    over every supported ring.
    """
    witnesses = {}
    vanishes = True
    # the mesh at (r, c) spans columns c and c + 1, so it meets the support
    # of X only from one column below its lowest through its highest
    for q in homology_probe_vertices(X.category, X.support, 1, 0):
        H = mesh_homology(X, q)
        if not H.is_zero:
            vanishes = False
            witnesses.setdefault("nonvanishing_mesh_homology", []).append(
                (format_vertex(q), H.describe()))
    projective = vanishes
    injective = vanishes
    if vanishes:
        for q in sorted(X.support, key=format_vertex):
            corner = corner_functors(X, q)
            if not corner.C.is_projective():
                projective = False
                witnesses.setdefault("non_projective_corner", []).append(
                    (format_vertex(q), corner.C.describe()))
            if not corner.K.is_injective():
                injective = False
                witnesses.setdefault("non_injective_corner", []).append(
                    (format_vertex(q), corner.K.describe()))
    exact = vanishes if X.ring.is_hereditary else NOT_THEOREM_BACKED
    return ClassificationVerdict(exact, projective, injective, vanishes,
                                 witnesses)


def zero_test(X: Representation) -> dict:
    """X = 0 tested directly and through both corner routes; the three
    verdicts agree whenever the pseudo-radical is nilpotent."""
    direct = X.is_zero()
    k_route = True
    c_route = True
    witness = None
    for q in sorted(X.support, key=format_vertex):
        corner = corner_functors(X, q)
        if not corner.K.is_zero:
            k_route = False
            witness = witness or ("K", format_vertex(q), corner.K.describe())
        if not corner.C.is_zero:
            c_route = False
            witness = witness or ("C", format_vertex(q), corner.C.describe())
    agree = direct == k_route == c_route
    return {"is_zero": direct, "kernel_route": k_route,
            "cokernel_route": c_route, "routes_agree": agree,
            "witness": witness}


def homology_report(X: Representation, vertices=None, max_degree: int = 2,
                    sides=(SIDE_CN, SIDE_CO)) -> dict:
    """Mesh homology plus derived (co)homology per vertex, as normal forms.

    Keys: "mesh" maps vertex labels to module descriptions; "H_" and
    "H^" map "i at vertex" to descriptions for i = 0..max_degree.  Mesh
    homology is H_1 on side cn, so each vertex has one side-cn complex,
    which gives degree 1 as well as the degrees asked for up to 3; a
    degree i >= 4 is read at its _route key, kept on X like every group.

    Without ``vertices`` the report covers every vertex of the window, its
    last column included.  Every group is the one on ZA_n, where X is zero
    off the window, so a given vertex may lie anywhere in ZA_n.
    """
    degrees = range(max_degree + 1)
    cn_degrees = range(max(max_degree, 1) + 1) if SIDE_CN in sides else (1,)
    report = {"mesh": {}, "H_": {}, "H^": {}}
    for q in X.category.vertices if vertices is None else vertices:
        label = format_vertex(q)
        data = {SIDE_CN: derived_homology_data(X, q, SIDE_CN, cn_degrees)}
        if SIDE_CO in sides:
            data[SIDE_CO] = derived_homology_data(X, q, SIDE_CO, degrees)
        report["mesh"][label] = data[SIDE_CN][1].module.describe()
        for side, key in ((SIDE_CN, "H_"), (SIDE_CO, "H^")):
            if side in sides:
                for i in degrees:
                    report[key][f"{i} at {label}"] = data[side][i].module.describe()
    return report


def is_weak_equivalence(phi: RepMorphism, max_degree: int = 2) -> dict:
    """Whether H_i(phi) is an isomorphism for i = 1..max_degree at every
    vertex.  Depth 3 decides every degree, as H_i(phi) at q is
    H_{i-3}(phi) at σ(q) for i >= 4; the default depth 2 omits H_3.
    Each (probe, degree) entry reads the verdict of its _route key, tested
    once at the first probe that reaches it.  Where the middle terms of
    both ends have no generators, as at nearly every probe off the
    support, the key is read off the closed-form level vertices
    (_zero_group): both zero groups are kept and the verdict is True, with
    no resolution, complex or map built.  Where the groups of both ends
    have no generators the verdict is True with no map built.  The groups
    of source and target are kept on them, so a later mesh_homology_map
    or classify_object on either computes none of them again.  When the
    radical squares to zero, degree one alone decides, which is
    cross-checked."""
    if max_degree < 1:
        raise InvalidParameter("max_degree must be at least 1: the verdict "
                               "compares degrees 1 and up")
    check = validate_morphism(phi)
    if not check["ok"]:
        raise InvalidMorphism(str(check["failures"]))
    C, ends = phi.source.category, (phi.source, phi.target)
    decided = {}  # route key -> whether H(φ) there is an isomorphism
    table = {}
    for q in _cn_probes(phi.source, phi.target, max_degree):
        keys = {i: _route(C, q, SIDE_CN, i)[0] for i in range(1, max_degree + 1)}
        # the least degree of each key not yet decided
        least = {key: i for i, key in reversed(keys.items()) if key not in decided}
        for key in list(least):
            # each end keeps its zero group, even where the other's is live;
            # where both are zero the key is an isomorphism
            if all([_zero_group(Z, key) for Z in ends]):
                decided[key] = True
                del least[key]
        if least:
            dx, dy = (derived_homology_data(Z, q, SIDE_CN, sorted(least.values()))
                      for Z in ends)
            for key, i in least.items():
                # a map between groups with no generators is an isomorphism
                live = dx[i].module.generators or dy[i].module.generators
                decided[key] = not live or _induced(phi, key, dx[i], dy[i]).is_isomorphism()
        for i, key in keys.items():
            table[(format_vertex(q), i)] = decided[key]
    verdict = all(table.values())
    result = {"is_weak_equivalence": verdict, "iso_table": table,
              "max_degree": max_degree}
    if C.nilpotency_index() == 2:
        degree_one = all(iso for (_, i), iso in table.items() if i == 1)
        result["degree_one_route"] = degree_one
        result["routes_agree"] = (degree_one == verdict)
    return result

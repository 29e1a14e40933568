"""Representations of a mesh category by presented modules.

A representation assigns a presented module to every vertex (zero
outside a finite support) and a matrix on generators to every arrow,
subject to the mesh relations: around each mesh the signed two-step
sums vanish.  Morphisms are vertexwise matrices intertwining the arrow
actions.

The standard constructions live here:

* free_at      (corepresentable ⊗ module: value M^rank Q(q, r) at r),
* cofree_at    (module-valued dual of the representable at q),
* stalk_rep    (M at one vertex, zero arrows),
* representable_rep,
* kernel_of_morphism, direct sums,
* the bridge between bounded chain complexes and representations of
  the repetitive A_2 category.

Two solvers over a finite field, hom_space_basis and the mesh sampler
behind random_free_representation, take matrices as unknowns.  With U
flattened row-major to vec(U),

    vec(A · U · B) = (A ⊗ Bᵀ) · vec(U),

so each linear condition sum A · U · B = 0 on the unknowns is one block
row of Kronecker products, and its solutions are one kernel.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import (InvalidMorphism, InvalidParameter, UnsupportedFlavor,
                     WindowTooSmall)
from .exactalg import (Matrix, ModuleMap, PresentedModule, kernel_basis,
                       middle_homology)
from .exactalg.modules import coordinates_mod
from .exactalg.rings import INTEGERS
from .meshcat import BasisElement, MeshCategory
from .quiver import REPETITIVE_AN, format_vertex


class Representation:
    """Functor values on vertices plus arrow matrices, with finite support."""

    def __init__(self, category: MeshCategory, values: dict, arrow_maps: dict):
        self.category = category
        self.ring = category.ring
        self.values = {v: m for v, m in values.items() if m.generators > 0}
        for v in self.values:
            if not category.quiver.has_vertex(v):
                raise InvalidParameter(f"value at unknown vertex {v!r}")
        self.arrow_maps = dict(arrow_maps)
        self.support = frozenset(v for v, m in self.values.items()
                                 if not m.is_zero)
        self._zero = PresentedModule.free(self.ring, 0)

    def value(self, v) -> PresentedModule:
        return self.values.get(v, self._zero)

    def arrow_matrix(self, arrow) -> Matrix:
        if isinstance(arrow, str):
            arrow = self.category.quiver.arrow(arrow)
        M = self.arrow_maps.get(arrow.name)
        if M is None:
            return Matrix.zeros(self.ring, self.value(arrow.target).generators,
                                self.value(arrow.source).generators)
        return M

    # -- evaluation on arbitrary morphisms of the category ---------------------

    def evaluate_matrix(self, coeff, elt: BasisElement) -> Matrix:
        """Matrix of X(coeff * elt) on generators."""
        sign, arrows = self.category.basis_path(elt)
        out = Matrix.identity(self.ring, self.value(elt.source).generators)
        for arrow in arrows:
            out = self.arrow_matrix(arrow) * out
        scale = self.ring.mul(coeff, sign)
        return out.scale(scale)

    # -- constructions -----------------------------------------------------------

    def direct_sum(self, other: "Representation") -> "Representation":
        if other.category is not self.category:
            raise InvalidParameter("summands live over different categories")
        values = {}
        for v in set(self.values) | set(other.values):
            values[v] = self.value(v).direct_sum(other.value(v))
        arrows = {}
        for a in self.category.quiver.arrows:
            if a.name in self.arrow_maps or a.name in other.arrow_maps:
                arrows[a.name] = Matrix.block_diag(
                    self.ring, [self.arrow_matrix(a), other.arrow_matrix(a)])
        return Representation(self.category, values, arrows)

    def is_zero(self) -> bool:
        return not self.support


@dataclass
class MeshResidual:
    vertex: object
    residual: Matrix

    def describe(self):
        return {"vertex": format_vertex(self.vertex),
                "residual": self.residual.to_json()}


@dataclass
class ValidationReport:
    ok: bool
    mesh_residuals: list = field(default_factory=list)
    bad_arrows: list = field(default_factory=list)
    support_ok: bool = True

    def describe(self):
        return {"ok": self.ok,
                "support_ok": self.support_ok,
                "bad_arrows": list(self.bad_arrows),
                "mesh_residuals": [r.describe() for r in self.mesh_residuals]}


def validate_representation(X: Representation) -> ValidationReport:
    """Check arrow well-definedness and every in-window mesh relation.

    Returns a verdict rather than raising; residual matrices of failing
    meshes are included for diagnosis.
    """
    quiver = X.category.quiver
    report = ValidationReport(ok=True)
    for a in quiver.arrows:
        M = X.arrow_matrix(a)
        src, tgt = X.value(a.source), X.value(a.target)
        if M.rows != tgt.generators or M.cols != src.generators or (
                src.relations.cols and not tgt.vanishes(M * src.relations)):
            report.bad_arrows.append(a.name)
    for q in quiver.interior_vertices():
        mesh = quiver.mesh_at(q)
        total = Matrix.zeros(X.ring, X.value(q).generators,
                             X.value(mesh.tau_vertex).generators)
        for a, sa in zip(mesh.arrows, mesh.paired):
            total = total + X.arrow_matrix(a) * X.arrow_matrix(sa)
        if not X.value(q).vanishes(total):
            report.mesh_residuals.append(MeshResidual(q, total))
    report.support_ok = all(quiver.is_interior(v) for v in X.support)
    report.ok = (not report.mesh_residuals and not report.bad_arrows
                 and report.support_ok)
    return report


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

def _tensor_functor(C: MeshCategory, M: PresentedModule, rank,
                    action) -> Representation:
    """Value M^rank(r) at r, and the arrow a acting by action(a) ⊗ 1_M."""
    if M.ring != C.ring:
        raise InvalidParameter("module ring differs from the category ring")
    values = {}
    for r in C.vertices:
        d = rank(r)
        if d and M.generators:
            rel = Matrix.block_diag(C.ring, [M.relations] * d)
            values[r] = PresentedModule(C.ring, d * M.generators, rel)
    one = Matrix.identity(C.ring, M.generators)
    arrows = {a.name: action(a).kron(one) for a in C.quiver.arrows
              if a.source in values or a.target in values}
    return Representation(C, values, arrows)


def free_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Q(q, -) tensored with M: value M^rank Q(q, r) at r."""
    return _tensor_functor(C, M, lambda r: C.d(q, r),
                           lambda a: C.arrow_left_mult(a, q))


def cofree_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Module-valued dual of Q(-, q): value M^rank Q(p, q) at p; the arrow
    a: s -> t acts by the transpose of - ∘ a: Q(t, q) -> Q(s, q)."""
    return _tensor_functor(C, M, lambda p: C.d(p, q),
                           lambda a: C.arrow_right_mult(a, q).transpose())


def stalk_rep(C: MeshCategory, q, M: PresentedModule) -> Representation:
    return Representation(C, {q: M}, {})


def representable_rep(C: MeshCategory, p) -> Representation:
    return free_at(C, p, PresentedModule.free(C.ring, 1))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class RepMorphism:
    """Vertexwise matrices phi(v): X(v) -> Y(v) intertwining the arrows."""

    def __init__(self, source: Representation, target: Representation,
                 components: dict):
        if source.category is not target.category:
            raise InvalidParameter("morphism endpoints over different categories")
        self.source = source
        self.target = target
        self.components = dict(components)

    def component(self, v) -> Matrix:
        M = self.components.get(v)
        if M is None:
            return Matrix.zeros(self.source.ring,
                                self.target.value(v).generators,
                                self.source.value(v).generators)
        return M

    def component_map(self, v) -> ModuleMap:
        return ModuleMap(self.source.value(v), self.target.value(v),
                         self.component(v), check=False)


def validate_morphism(phi: RepMorphism) -> dict:
    """Naturality of phi against every arrow, not only path generators."""
    X, Y = phi.source, phi.target
    failures = []
    for v in set(X.values) | set(Y.values) | set(phi.components):
        comp = phi.component(v)
        if comp.rows != Y.value(v).generators or comp.cols != X.value(v).generators:
            failures.append(("shape", format_vertex(v)))
            continue
        relations = X.value(v).relations
        if relations.cols and not Y.value(v).vanishes(comp * relations):
            failures.append(("relations", format_vertex(v)))
    for a in X.category.quiver.arrows:
        diff = (phi.component(a.target) * X.arrow_matrix(a)
                - Y.arrow_matrix(a) * phi.component(a.source))
        if not Y.value(a.target).vanishes(diff):
            failures.append(("naturality", a.name))
    return {"ok": not failures, "failures": failures}


def kernel_of_morphism(phi: RepMorphism):
    """Vertexwise kernels with the induced arrow maps.

    Returns (K, inclusions) where inclusions[v] maps the generators of
    K(v) into the generators of X(v).
    """
    X = phi.source
    values, incl = {}, {}
    for v in set(X.values):
        kmod, gens = phi.component_map(v).kernel()
        if kmod.generators:
            values[v] = kmod
            incl[v] = gens
    arrows = {}
    for a in X.category.quiver.arrows:
        p, q = a.source, a.target
        if p not in values:
            continue
        pushed = X.arrow_matrix(a) * incl[p]
        if q in values:
            arrows[a.name] = coordinates_mod(incl[q], X.value(q).relations, pushed)
            closed = arrows[a.name] is not None
        else:  # the image must die in X(q)
            closed = pushed.is_zero or X.value(q).vanishes(pushed)
        if not closed:
            raise InvalidMorphism(
                f"kernel is not closed under {a.name}; phi is not natural")
    K = Representation(X.category, values, arrows)
    return K, incl


def cokernel_of_morphism(phi: RepMorphism) -> Representation:
    """Vertexwise cokernels: same generators as the target, more relations."""
    Y = phi.target
    values = {}
    for v in set(Y.values):
        rel = Matrix.hstack([phi.component(v), Y.value(v).relations])
        values[v] = PresentedModule(Y.ring, Y.value(v).generators, rel)
    return Representation(Y.category, values, dict(Y.arrow_maps))


def zero_morphism(X: Representation, Y: Representation) -> RepMorphism:
    return RepMorphism(X, Y, {})


def identity_morphism(X: Representation) -> RepMorphism:
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators)
                              for v, m in X.values.items()})


# ---------------------------------------------------------------------------
# chain complexes over the repetitive A_2 category
# ---------------------------------------------------------------------------

@dataclass
class ChainComplex:
    """Bounded complex: modules[k] with differentials d[k]: C_k -> C_{k-1}."""
    ring: object
    modules: dict
    differentials: dict

    def module(self, k) -> PresentedModule:
        return self.modules.get(k) or PresentedModule.free(self.ring, 0)

    def differential(self, k) -> Matrix:
        M = self.differentials.get(k)
        if M is None:
            return Matrix.zeros(self.ring, self.module(k - 1).generators,
                                self.module(k).generators)
        return M

    def degrees(self):
        return sorted(self.modules)

    def is_complex(self) -> bool:
        for k in list(self.modules) + [k + 1 for k in self.modules]:
            prod = self.differential(k) * self.differential(k + 1)
            if prod.rows and prod.cols and not self.module(k - 1).vanishes(prod):
                return False
        return True

    def homology(self, k) -> PresentedModule:
        f = ModuleMap(self.module(k + 1), self.module(k),
                      self.differential(k + 1), check=False)
        g = ModuleMap(self.module(k), self.module(k - 1),
                      self.differential(k), check=False)
        return middle_homology(f, g).module


def degree_vertex(k: int):
    """Chain degree k sits at (1, k//2) for even k and (2, (k+1)//2) for odd."""
    if k % 2 == 0:
        return (1, k // 2)
    return (2, (k + 1) // 2)


def vertex_degree(v) -> int:
    r, i = v
    return 2 * i if r == 1 else 2 * i - 1


def complex_to_rep(C: MeshCategory, complex_: ChainComplex) -> Representation:
    """Realize a bounded complex as a representation of repetitive A_2.

    Degree k lands at the zigzag vertex degree_vertex(k); every
    differential becomes the arrow map along the zigzag, and d^2 = 0 is
    exactly the two mesh-relation families.
    """
    if C.flavor != REPETITIVE_AN or C.n != 2:
        raise UnsupportedFlavor("the bridge needs the repetitive A_2 category")
    values, arrows = {}, {}
    degrees = complex_.degrees()
    for k in degrees:
        v = degree_vertex(k)
        if not C.quiver.has_vertex(v) or not C.quiver.is_interior(v):
            raise WindowTooSmall(
                f"degree {k} needs interior vertex {format_vertex(v)}")
        values[v] = complex_.module(k)
    for k in degrees:
        d = complex_.differential(k)
        if d.rows and d.cols:
            arrow = C.quiver.arrow_between(degree_vertex(k), degree_vertex(k - 1))
            arrows[arrow.name] = d
    return Representation(C, values, arrows)


def rep_to_complex(X: Representation) -> ChainComplex:
    C = X.category
    if C.flavor != REPETITIVE_AN or C.n != 2:
        raise UnsupportedFlavor("the bridge needs the repetitive A_2 category")
    modules = {vertex_degree(v): m for v, m in X.values.items()}
    diffs = {}
    for k in modules:
        arrow = C.quiver.arrow_between(degree_vertex(k), degree_vertex(k - 1))
        if arrow is not None:
            M = X.arrow_matrix(arrow)
            if M.rows and M.cols:
                diffs[k] = M
    return ChainComplex(X.ring, modules, diffs)


# ---------------------------------------------------------------------------
# seeded random data for property suites
# ---------------------------------------------------------------------------

def random_complex(ring, rng, max_length=6, max_rank=4, bound=3) -> ChainComplex:
    """Seeded random bounded complex with exact d^2 = 0.

    The first differential is drawn uniformly with entries in
    [-bound, bound]; each later one is drawn from the kernel lattice of
    its predecessor with small coefficients, retrying so entries stay
    within the bound (falling back to a zero column when they will not).
    """
    length = rng.randint(1, max_length)
    ranks = [rng.randint(0, max_rank) for _ in range(length + 1)]
    modules = {k: PresentedModule.free(ring, r) for k, r in enumerate(ranks)}
    diffs = {}
    prev = None
    for k in range(1, length + 1):
        rows, cols = ranks[k - 1], ranks[k]
        if rows == 0 or cols == 0:
            prev = Matrix.zeros(ring, rows, cols)
            continue
        if prev is None or prev.cols == 0:
            d = Matrix(ring, rows, cols, [rng.randint(-bound, bound)
                                          for _ in range(rows * cols)])
        else:
            K = kernel_basis(prev)
            cols_out = []
            for _ in range(cols):
                chosen = Matrix.zeros(ring, rows, 1)
                for _ in range(24):
                    if K.cols == 0:
                        break
                    cand = K * Matrix.column(
                        ring, [rng.randint(-1, 1) for _ in range(K.cols)])
                    if ring.kind != INTEGERS or all(abs(x) <= bound for x in cand.entries):
                        chosen = cand
                        break
                cols_out.append(chosen)
            d = Matrix.hstack(cols_out)
        diffs[k] = d
        prev = d
    return ChainComplex(ring, modules, diffs)


def random_representation(C: MeshCategory, rng, summands=3):
    """Random finitely presented representation.

    Built as the cokernel of a random morphism between sums of
    representables, which is automatically mesh-valid and covers both
    exact and non-exact objects.
    """
    verts = list(C.vertices)
    sources = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    targets = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    P = representable_sum(C, targets)
    Pprime = representable_sum(C, sources)
    # one coefficient c per basis element e of Q(tv, sv); at v the block
    # of summands (tv, sv) is the sum of the c * (- ∘ e): Q(sv, v) -> Q(tv, v)
    coeffs = [[[(e, C.ring.canon(rng.randint(-2, 2)))
                for e in C.hom_basis(tv, sv)] for sv in sources]
              for tv in targets]

    def block(tv, sv, terms, v):
        return sum((C.right_mult_matrix(C.ring.one, e, v).scale(c)
                    for e, c in terms if c),
                   Matrix.zeros(C.ring, C.d(tv, v), C.d(sv, v)))

    comps = {v: Matrix.vstack([
        Matrix.hstack([block(tv, sv, terms, v) for sv, terms in zip(sources, row)])
        for tv, row in zip(targets, coeffs)])
        for v in set(P.values) | set(Pprime.values)}
    return cokernel_of_morphism(RepMorphism(Pprime, P, comps))


def representable_sum(C: MeshCategory, vertices) -> Representation:
    return reduce(Representation.direct_sum,
                  (representable_rep(C, v) for v in vertices))


def random_free_representation(C: MeshCategory, rng, max_dim=3) -> Representation:
    """Random mesh-valid representation with free values over a finite field.

    Each interior vertex gets a dimension in [0, max_dim], every other
    vertex of a repetitive window 0, since only interior vertices may
    carry values.  The rising arrows a_q get uniform random matrices.
    Each arm of a mesh composes one rising and one falling arrow, so the
    mesh relations are linear in the falling arrows a_q*; those are a
    uniform random point of the solution space.
    """
    ring = C.ring
    if not (ring.is_field and ring.is_modular):
        raise InvalidParameter("the sampler needs a finite field")
    quiver = C.quiver
    dims = {v: rng.randint(0, max_dim) if quiver.is_interior(v) else 0
            for v in C.vertices}
    rising = {a: Matrix(ring, dims[a.target], dims[a.source],
                        [rng.randint(0, ring.modulus - 1)
                         for _ in range(dims[a.target] * dims[a.source])])
              for a in quiver.arrows if a.rises}
    falling = {a: (dims[a.target], dims[a.source])
               for a in quiver.arrows if not a.rises}
    equations = []
    for q in quiver.interior_vertices():
        mesh = quiver.mesh_at(q)
        one_q = Matrix.identity(ring, dims[q])
        one_tau = Matrix.identity(ring, dims[mesh.tau_vertex])
        equations.append([(rising[a], sa, one_tau) if a.rises
                          else (one_q, a, rising[sa])
                          for a, sa in zip(mesh.arrows, mesh.paired)])
    K = _solution_space(ring, falling, equations)
    arrows = rising | _unstack(ring, falling, _random_point(K, rng))
    values = {v: PresentedModule.free(ring, d) for v, d in dims.items() if d}
    return Representation(C, values, {a.name: M for a, M in arrows.items()})


def _solution_space(ring, shapes, equations) -> Matrix:
    """Kernel basis of a linear system in matrix unknowns.

    ``shapes`` maps each unknown U to its (rows, cols), in the order the
    vec(U) are stacked.  An equation is a list of terms (A, U, B), each
    unknown in at most one of them, and reads sum A · U · B = 0.
    """
    rows = [Matrix.zeros(ring, 0, sum(r * c for r, c in shapes.values()))]
    for terms in equations:
        blocks = {U: A.kron(B.transpose()) for A, U, B in terms}
        height = next(iter(blocks.values())).rows
        rows.append(Matrix.hstack([blocks.get(U, Matrix.zeros(ring, height, r * c))
                                   for U, (r, c) in shapes.items()]))
    return kernel_basis(Matrix.vstack(rows))


def _random_point(K: Matrix, rng):
    """vec of a uniform random combination of the columns of K, over a
    finite field; one coefficient is drawn per column, in order."""
    modulus = K.ring.modulus
    coeffs = [rng.randint(0, modulus - 1) for _ in range(K.cols)]
    return (K * Matrix(K.ring, K.cols, 1, coeffs)).entries


def _unstack(ring, shapes, vec) -> dict:
    """The matrices of the unknowns in ``shapes`` from their stacked vec."""
    out, off = {}, 0
    for key, (r, c) in shapes.items():
        out[key] = Matrix._trusted(ring, r, c, vec[off:off + r * c])
        off += r * c
    return out


def _hom_system(X: Representation, Y: Representation):
    """(shapes, K): the components phi_v: X(v) -> Y(v) as unknowns, and a
    kernel basis K of the naturality equations phi_q X(a) = Y(a) phi_p."""
    ring = X.ring
    if not (ring.is_field and ring.is_modular):
        raise InvalidParameter("hom-space solving needs a finite field")
    verts = sorted(set(X.values) | set(Y.values), key=str)
    shapes = {v: (Y.value(v).generators, X.value(v).generators) for v in verts}
    equations = []
    for a in X.category.quiver.arrows:
        p, q = a.source, a.target
        if p in shapes and q in shapes:
            equations.append([
                (Matrix.identity(ring, shapes[q][0]), q, X.arrow_matrix(a)),
                (-Y.arrow_matrix(a), p, Matrix.identity(ring, shapes[p][1]))])
    return shapes, _solution_space(ring, shapes, equations)


def hom_space_basis(X: Representation, Y: Representation):
    """Basis of the space of morphisms X -> Y over a finite field (free
    values), with the shape of each component."""
    shapes, K = _hom_system(X, Y)
    basis = [RepMorphism(X, Y, _unstack(X.ring, shapes, K.col(j)))
             for j in range(K.cols)]
    return basis, shapes


def random_morphism(X: Representation, Y: Representation, rng) -> RepMorphism:
    """Uniformly random natural transformation between free-valued
    representations over a finite field."""
    shapes, K = _hom_system(X, Y)
    return RepMorphism(X, Y, _unstack(X.ring, shapes, _random_point(K, rng)))

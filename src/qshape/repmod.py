"""Representations of a mesh category by presented modules.

A representation assigns a presented module to every vertex (zero
outside a finite support) and a matrix on generators to every arrow,
subject to the mesh relations: around each mesh the signed two-step
sums vanish.  Morphisms are vertexwise matrices intertwining the arrow
actions.

The standard constructions live here:

* free_at      (corepresentable ⊗ module: value M^rank Q(q, r) at r),
* cofree_at    (module-valued dual of the representable at q),
* representable_sum (⊕ Q(t, -), one rule with the two above),
* stalk_rep    (M at one vertex, zero arrows),
* kernel_of_morphism, direct sums,
* the bridge between bounded chain complexes and representations of
  the repetitive A_2 category.

Everything is immutable after construction and safe to share.  What a
representation derives from its values (its support, its pruned model,
its homology groups) is computed on first read and kept, write-once, so
building one eliminates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (InvalidMorphism, InvalidParameter, UnsupportedFlavor,
                     WindowTooSmall)
from .exactalg import (Matrix, ModuleMap, PresentedModule, kernel_basis,
                       middle_homology)
from .exactalg.modules import coordinates_mod
from .exactalg.rings import INTEGERS
from .meshcat import BasisElement, MeshCategory
from .quiver import REPETITIVE_AN, format_vertex, vertex_key


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
        self._zero = PresentedModule.free(self.ring, 0)
        # write-once memos, dropped with X: support keeps the vertices whose
        # value is nonzero in _support; pruned keeps X's pruned model in
        # _pruned, from which homology.derived_homology_data builds every
        # stalk complex; it keeps each group in _homology per kept key
        # (vertex, side cn, i <= 3) or (vertex, side co, 0), so side co's
        # degrees 1-3 share side cn's groups (homology._route); on the
        # pruned model, homology._complex_from_resolution keeps each stalk
        # complex in _complexes per (vertex, side), as (resolution, modules,
        # maps, summand ranks), extended in place level by level;
        # evaluate_matrix keeps X(coeff * e) in _evaluated per (coeff, e)
        self._support = None
        self._pruned = None
        self._homology = {}
        self._complexes = {}
        self._evaluated = {}

    @property
    def support(self) -> frozenset:
        """The vertices whose value is nonzero, read off the values' own
        normal forms on first use and kept: building X eliminates nothing."""
        if self._support is None:
            self._support = frozenset(v for v, m in self.values.items()
                                      if not m.is_zero)
        return self._support

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

    def pruned(self):
        """(model, prunings): X with every value replaced by its pruned
        module (PresentedModule.pruned), and {v: (projection, kept)} for
        the values that lost generators.  The model's arrow a: s -> t is
        projection_t · X(a)[:, kept_s], the arrow read on the pruned
        generators, so projection_v is an isomorphism X -> model at every
        vertex.  When no value changes, which is always the case for
        relation-free values, X is its own model.  Built once and kept, with
        None for X itself, so that X holds no reference to itself."""
        if self._pruned is None:
            values, prunings = dict(self.values), {}
            for v, m in self.values.items():
                if m.relations.cols:
                    values[v], P, kept = m.pruned()
                    if len(kept) < m.generators:
                        prunings[v] = (P, kept)
            model = None
            if any(values[v] is not m for v, m in self.values.items()):
                arrows = {}
                for name, M in self.arrow_maps.items():
                    a = self.category.quiver.arrow(name)
                    if a.source in prunings:
                        M = M.take_columns(prunings[a.source][1])
                    if a.target in prunings:
                        M = prunings[a.target][0] * M
                    arrows[name] = M
                model = Representation(self.category, values, arrows)
                model._pruned = (None, {})
            self._pruned = (model, prunings)
        model, prunings = self._pruned
        return (self if model is None else model), prunings

    # -- evaluation on arbitrary morphisms of the category ---------------------

    def evaluate_matrix(self, coeff, elt: BasisElement) -> Matrix:
        """Matrix of X(coeff * elt) on generators.

        coeff must be an exact element of the ring, as in ``Matrix.scale``.
        Where X vanishes at either end, which is everywhere off the window,
        the matrix is zero; otherwise elt's path stays in the window, and
        the product starts from the first arrow's matrix, so only an
        identity element builds an identity matrix; when coeff times the
        path's sign is one, the product is returned as it is.  The result
        is kept on X under (coeff, elt), coeff read through ring.element
        first, so a repeated call returns the same matrix."""
        coeff = self.ring.element(coeff)
        key = (coeff, elt)
        out = self._evaluated.get(key)
        if out is not None:
            return out
        rows = self.value(elt.target).generators
        cols = self.value(elt.source).generators
        if not rows or not cols:
            out = Matrix.zeros(self.ring, rows, cols)
        else:
            sign, arrows = self.category.basis_path(elt)
            if not arrows:
                out = Matrix.identity(self.ring, cols)
            else:
                out = self.arrow_matrix(arrows[0])
                for arrow in arrows[1:]:
                    out = self.arrow_matrix(arrow) * out
            scalar = self.ring.mul(coeff, sign)
            if scalar != self.ring.one:
                out = out.scale(scalar)
        self._evaluated[key] = out
        return out

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

    def describe(self):
        return {"ok": self.ok,
                "bad_arrows": list(self.bad_arrows),
                "mesh_residuals": [r.describe() for r in self.mesh_residuals]}


def _fits(M: Matrix, source: PresentedModule, target: PresentedModule) -> bool:
    """Whether M can be a map source -> target: its ring and shape."""
    return (M.ring == target.ring and M.rows == target.generators
            and M.cols == source.generators)


def validate_representation(X: Representation) -> ValidationReport:
    """Check arrow well-definedness and every mesh relation, reading only
    what X holds: an arrow X holds no map for is zero, and the residual of
    the mesh at q maps X(tau q) to X(q), so only a mesh with both ends among
    X's values can fail.  A value may sit in the window's last column, as
    on ZA_n every mesh the window cuts has an end off it.  Returns a verdict
    rather than raising; residual matrices of failing meshes are included.
    An arrow map of the wrong shape or ring is a bad arrow, and the meshes
    through it, whose products are not defined, are skipped."""
    quiver = X.category.quiver
    report = ValidationReport(ok=True)
    misshapen = set()
    for a in map(quiver.arrow, sorted(X.arrow_maps)):
        M = X.arrow_matrix(a)
        src, tgt = X.value(a.source), X.value(a.target)
        if not _fits(M, src, tgt):
            misshapen.add(a.name)
            report.bad_arrows.append(a.name)
        elif src.relations.cols and not tgt.vanishes(M * src.relations):
            report.bad_arrows.append(a.name)
    for q in sorted((q for q in X.values if quiver.tau(q) in X.values),
                    key=vertex_key):
        mesh = quiver.mesh_at(q)
        if any(a.name in misshapen for a in mesh.arrows + mesh.paired):
            continue
        total = Matrix.zeros(X.ring, X.value(q).generators,
                             X.value(mesh.tau_vertex).generators)
        for a, sa in zip(mesh.arrows, mesh.paired):
            total = total + X.arrow_matrix(a) * X.arrow_matrix(sa)
        if not X.value(q).vanishes(total):
            report.mesh_residuals.append(MeshResidual(q, total))
    report.ok = not report.mesh_residuals and not report.bad_arrows
    return report


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

def _corner_sum(C: MeshCategory, corners, support, rank, action):
    """(dims, arrows): the rank at each r of ⊕ over the corners t (in
    order, repeats kept) of R^rank(t, r) at each r in support(t), and the
    arrows at those r, each the block diagonal of action(a, t), read once per t."""
    dims = {}
    for t in corners:
        for r in support(t):
            dims[r] = dims.get(r, 0) + rank(t, r)
    arrows = {}
    for a in C.quiver.arrows:
        if a.source in dims or a.target in dims:
            block = {t: action(a, t) for t in dict.fromkeys(corners)}
            arrows[a.name] = Matrix.block_diag(C.ring, [block[t] for t in corners])
    return dims, arrows


def _tensor_functor(C: MeshCategory, M: PresentedModule, corners, support,
                    rank, action) -> Representation:
    """⊕ over the corners t (in order, repeats kept) of M^rank(t, r) at each r
    in support(t), the arrow a acting by ⊕ action(a, t) ⊗ 1_M."""
    if M.ring != C.ring:
        raise InvalidParameter("module ring differs from the category ring")
    dims, arrows = _corner_sum(C, corners, support, rank, action) \
        if M.generators else ({}, {})
    values = {r: PresentedModule(C.ring, dims[r] * M.generators,
                                 Matrix.block_diag(C.ring, [M.relations] * dims[r]))
              for r in sorted(dims, key=vertex_key)}
    if M.generators != 1:  # A ⊗ 1_M is A itself for M of one generator
        one = Matrix.identity(C.ring, M.generators)
        arrows = {name: A.kron(one) for name, A in arrows.items()}
    return Representation(C, values, arrows)


def free_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Q(q, -) tensored with M: value M^rank Q(q, r) at r."""
    return _tensor_functor(C, M, [q], C.hom_targets, C.d, C.arrow_left_mult)


def cofree_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Module-valued dual of Q(-, q): value M^rank Q(p, q) at p; the arrow
    a: s -> t acts by the transpose of - ∘ a: Q(t, q) -> Q(s, q)."""
    return _tensor_functor(C, M, [q], C.hom_sources, lambda t, p: C.d(p, t),
                           lambda a, t: C.arrow_right_mult(a, t).transpose())


def stalk_rep(C: MeshCategory, q, M: PresentedModule) -> Representation:
    return Representation(C, {q: M}, {})


def representable_sum(C: MeshCategory, vertices) -> Representation:
    """⊕ Q(t, -) over the vertices t, in order and with repeats; each arrow
    acts by the block diagonal of its left multiplications."""
    return _tensor_functor(C, PresentedModule.free(C.ring, 1), vertices,
                           C.hom_targets, C.d, C.arrow_left_mult)


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
    """Naturality of phi against every arrow, not only path generators; the
    square of an arrow into t lies in Y(t), so only arrows into Y's values
    can fail.  A component, or an arrow map of X or Y, of the wrong shape
    or ring is reported as a "shape" failure, and the squares through it,
    whose products are not defined, are skipped: a verdict, not a raise."""
    X, Y = phi.source, phi.target
    failures = []
    misshapen = set()
    for v in set(X.values) | set(Y.values) | set(phi.components):
        comp = phi.component(v)
        if not _fits(comp, X.value(v), Y.value(v)):
            failures.append(("shape", format_vertex(v)))
            misshapen.add(v)
            continue
        relations = X.value(v).relations
        if relations.cols and not Y.value(v).vanishes(comp * relations):
            failures.append(("relations", format_vertex(v)))
    into = [a for t in Y.values for a in X.category.quiver.arrows_into(t)]
    for a in sorted(into, key=lambda a: a.name):
        if a.source in misshapen or a.target in misshapen:
            continue
        if not all(_fits(Z.arrow_matrix(a), Z.value(a.source), Z.value(a.target))
                   for Z in (X, Y)):
            failures.append(("shape", a.name))
            continue
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
            closed = X.value(q).vanishes(pushed)
        if not closed:
            raise InvalidMorphism(
                f"kernel is not closed under {a.name}; phi is not natural")
    K = Representation(X.category, values, arrows)
    return K, incl


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
    """Chain degree k sits at (1, k//2) for even k and (2, (k+1)//2) for odd.

    Each arrow of the zigzag lowers the degree by one, and tau moves one
    column up, two degrees, so the mesh at degree_vertex(k - 1) is
    X(k + 1) -> X(k) -> X(k - 1): its mesh homology is the homology in
    degree k.
    """
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
        if not C.quiver.has_vertex(v):
            raise WindowTooSmall(f"degree {k} needs vertex {format_vertex(v)}")
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

def random_complex(ring, rng) -> ChainComplex:
    """Seeded random bounded complex with exact d^2 = 0, of length 1 to 6.

    Ranks are 0 to 4.  The first differential is drawn uniformly with
    entries in [-3, 3]; each later one is drawn from the kernel lattice of
    its predecessor with small coefficients, retrying so entries stay in
    [-3, 3] (falling back to a zero column when they will not).
    """
    length = rng.randint(1, 6)
    ranks = [rng.randint(0, 4) for _ in range(length + 1)]
    modules = {k: PresentedModule.free(ring, r) for k, r in enumerate(ranks)}
    diffs = {}
    prev = None
    for k in range(1, length + 1):
        rows, cols = ranks[k - 1], ranks[k]
        if rows == 0 or cols == 0:
            prev = Matrix.zeros(ring, rows, cols)
            continue
        if prev is None or prev.cols == 0:
            d = Matrix(ring, rows, cols, [rng.randint(-3, 3)
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
                    if ring.kind != INTEGERS or all(abs(x) <= 3 for x in cand.entries):
                        chosen = cand
                        break
                cols_out.append(chosen)
            d = Matrix.hstack(cols_out)
        diffs[k] = d
        prev = d
    return ChainComplex(ring, modules, diffs)


def random_representation(C: MeshCategory, rng, summands=3):
    """Random finitely presented representation: the cokernel of a random
    morphism ⊕ Q(s, -) -> ⊕ Q(t, -) between sums of representables at
    interior vertices, which is automatically mesh-valid and covers both
    exact and non-exact objects.  A summand anywhere in the window would
    validate; the interior vertices are drawn because golden files record
    what each seed draws.  Written as its presentation: ⊕ Q(t, v) modulo
    the columns of the morphism at v, with the arrows of ⊕ Q(t, -).

    One coefficient c_e is drawn per basis element e of Q(t, s), and the
    block of summands (t, s) at v is the sum of the c_e (- ∘ e):
    Q(s, v) -> Q(t, v), which sends f to c_e times the element of degree
    deg f + deg e.  So each value's relations are written in one pass
    into one flat list, c_e at (that element's row, f's column), and
    reduced once into the ring.
    """
    ring = C.ring
    verts = C.quiver.interior_vertices()
    sources = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    targets = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    # ⊕ Q(t, -) has Σ_t d(t, v) generators at v; its values are not built
    gens, arrows = _corner_sum(C, targets, C.hom_targets, C.d, C.arrow_left_mult)
    # the nonzero (deg e, c_e) per summand pair, one draw per e in order
    coeffs = [[[(e.degree, c) for e in C.hom_basis(tv, sv)
                if (c := rng.randint(-2, 2))] for sv in sources]
              for tv in targets]
    values = {}
    for v in sorted(gens, key=vertex_key):
        col_off = [0, *accumulate(C.d(sv, v) for sv in sources)]
        cols = col_off[-1]
        out = [0] * (gens[v] * cols)
        r0 = 0
        for tv, row in zip(targets, coeffs):
            row_of = {b.degree: r0 + i for i, b in enumerate(C.hom_basis(tv, v))}
            r0 += len(row_of)
            for c0, sv, terms in zip(col_off, sources, row):
                for j, f in enumerate(C.hom_basis(sv, v), c0):
                    for degree, c in terms:
                        i = row_of.get(f.degree + degree)
                        if i is not None:
                            out[i * cols + j] += c
        values[v] = PresentedModule(ring, gens[v], Matrix._trusted(
            ring, gens[v], cols, map(ring.canon, out)))
    return Representation(C, values, arrows)

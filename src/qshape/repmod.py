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

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (InvalidMorphism, InvalidParameter, UnsupportedFlavor,
                     WindowTooSmall)
from .exactalg import Matrix, ModuleMap, PresentedModule, kernel_basis
from .exactalg.modules import coordinates_mod
from .meshcat import BasisElement, MeshCategory
from .quiver import DOUBLE_AN, REPETITIVE_AN, format_vertex


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
        if M.rows != tgt.generators or M.cols != src.generators:
            report.bad_arrows.append(a.name)
            continue
        if src.relations.cols:
            image = M * src.relations
            if coordinates_mod(Matrix.zeros(X.ring, tgt.generators, 0),
                               tgt.relations, image) is None:
                report.bad_arrows.append(a.name)
    for q in quiver.interior_vertices():
        mesh = quiver.mesh_at(q)
        tau_q = mesh.tau_vertex
        total = Matrix.zeros(X.ring, X.value(q).generators,
                             X.value(tau_q).generators)
        for a, sa in zip(mesh.arrows, mesh.paired):
            total = total + X.arrow_matrix(a) * X.arrow_matrix(sa)
        ok_here = coordinates_mod(
            Matrix.zeros(X.ring, X.value(q).generators, 0),
            X.value(q).relations, total) is not None
        if not ok_here:
            report.mesh_residuals.append(MeshResidual(q, total))
    if quiver.flavor == REPETITIVE_AN:
        report.support_ok = all(quiver.is_interior(v) for v in X.support)
    report.ok = (not report.mesh_residuals and not report.bad_arrows
                 and report.support_ok)
    return report


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

def free_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Q(q, -) tensored with M: value M^rank Q(q, r) at r."""
    if M.ring != C.ring:
        raise InvalidParameter("module ring differs from the category ring")
    values = {}
    for r in C.vertices:
        d = C.d(q, r)
        if d and M.generators:
            rel = Matrix.block_diag(C.ring, [M.relations] * d)
            values[r] = PresentedModule(C.ring, d * M.generators, rel)
    arrows = {}
    for a in C.quiver.arrows:
        if a.source in values or a.target in values:
            T = C.arrow_left_mult(a, q)
            arrows[a.name] = T.kron(Matrix.identity(C.ring, M.generators))
    return Representation(C, values, arrows)


def cofree_at(C: MeshCategory, q, M: PresentedModule) -> Representation:
    """Module-valued dual of Q(-, q): value M^rank Q(p, q) at p."""
    if M.ring != C.ring:
        raise InvalidParameter("module ring differs from the category ring")
    values = {}
    for p in C.vertices:
        d = C.d(p, q)
        if d and M.generators:
            rel = Matrix.block_diag(C.ring, [M.relations] * d)
            values[p] = PresentedModule(C.ring, d * M.generators, rel)
    arrows = {}
    for a in C.quiver.arrows:
        if a.source in values or a.target in values:
            R = C.arrow_right_mult(a, q)  # Q(target, q) -> Q(source, q)
            arrows[a.name] = R.transpose().kron(
                Matrix.identity(C.ring, M.generators))
    return Representation(C, values, arrows)


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
        if X.value(v).relations.cols:
            image = comp * X.value(v).relations
            if coordinates_mod(Matrix.zeros(X.ring, comp.rows, 0),
                               Y.value(v).relations, image) is None:
                failures.append(("relations", format_vertex(v)))
    for a in X.category.quiver.arrows:
        lhs = phi.component(a.target) * X.arrow_matrix(a)
        rhs = Y.arrow_matrix(a) * phi.component(a.source)
        diff = lhs - rhs
        if coordinates_mod(Matrix.zeros(X.ring, diff.rows, 0),
                           Y.value(a.target).relations, diff) is None:
            failures.append(("naturality", a.name))
    return {"ok": not failures, "failures": failures}


def kernel_of_morphism(phi: RepMorphism):
    """Vertexwise kernels with the induced arrow maps.

    Returns (K, inclusions) where inclusions[v] maps the generators of
    K(v) into the generators of X(v).
    """
    X, Y = phi.source, phi.target
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
            coords = coordinates_mod(incl[q], X.value(q).relations, pushed)
            if coords is None:
                raise InvalidMorphism(
                    f"kernel is not closed under {a.name}; phi is not natural")
            arrows[a.name] = coords
        elif not pushed.is_zero:
            # image must die in X(q) modulo relations
            if coordinates_mod(Matrix.zeros(X.ring, pushed.rows, 0),
                               X.value(q).relations, pushed) is None:
                raise InvalidMorphism(
                    f"kernel is not closed under {a.name}; phi is not natural")
    K = Representation(X.category, values, arrows)
    return K, incl


def cokernel_of_morphism(phi: RepMorphism) -> Representation:
    """Vertexwise cokernels: same generators as the target, more relations."""
    X, Y = phi.source, phi.target
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
            if prod.rows and prod.cols:
                tgt = self.module(k - 1)
                if coordinates_mod(Matrix.zeros(self.ring, prod.rows, 0),
                                   tgt.relations, prod) is None:
                    return False
        return True

    def homology(self, k) -> PresentedModule:
        from .exactalg import middle_homology
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
        if d.rows == 0 or d.cols == 0:
            continue
        src, tgt = degree_vertex(k), degree_vertex(k - 1)
        if k % 2 == 0:
            name = f"a1@{k // 2}"          # (1, i) -> (2, i)
        else:
            name = f"a1*@{(k + 1) // 2}"    # (2, i) -> (1, i-1)
        assert C.quiver.arrow(name).source == src
        assert C.quiver.arrow(name).target == tgt
        arrows[name] = d
    return Representation(C, values, arrows)


def rep_to_complex(X: Representation) -> ChainComplex:
    C = X.category
    if C.flavor != REPETITIVE_AN or C.n != 2:
        raise UnsupportedFlavor("the bridge needs the repetitive A_2 category")
    modules, diffs = {}, {}
    for v, m in X.values.items():
        modules[vertex_degree(v)] = m
    for k in list(modules):
        v = degree_vertex(k)
        name = f"a1@{k // 2}" if k % 2 == 0 else f"a1*@{(k + 1) // 2}"
        try:
            arrow = C.quiver.arrow(name)
        except KeyError:
            continue
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
            entries = [ring.canon(rng.randint(-bound, bound))
                       for _ in range(rows * cols)]
            d = Matrix(ring, rows, cols, entries)
        else:
            K = kernel_basis(prev)
            cols_out = []
            for _ in range(cols):
                chosen = Matrix.zeros(ring, rows, 1)
                for _ in range(24):
                    if K.cols == 0:
                        break
                    coeffs = Matrix.column(
                        ring, [ring.canon(rng.randint(-1, 1)) for _ in range(K.cols)])
                    cand = K * coeffs
                    if ring.kind != "Z" or all(abs(x) <= bound for x in cand.entries):
                        chosen = cand
                        break
                cols_out.append(chosen)
            d = Matrix.hstack(cols_out)
        diffs[k] = d
        prev = d
    return ChainComplex(ring, modules, diffs)


def random_representation(C: MeshCategory, rng, summands=3):
    """Random finitely presented representation over a field.

    Built as the cokernel of a random morphism between sums of
    representables, which is automatically mesh-valid and covers both
    exact and non-exact objects.
    """
    verts = list(C.vertices)
    sources = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    targets = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    P = representable_sum(C, targets)
    Pprime = representable_sum(C, sources)
    comps = {}
    for v in set(P.values) | set(Pprime.values):
        rows = P.value(v).generators
        cols = Pprime.value(v).generators
        comps[v] = Matrix.zeros(C.ring, rows, cols)
    # morphisms between representable sums: one hom coefficient per pair
    offs_t = _summand_offsets(C, targets)
    offs_s = _summand_offsets(C, sources)
    entries = {}
    for a, tv in enumerate(targets):
        for b, sv in enumerate(sources):
            for e in C.hom_basis(tv, sv):
                entries[(a, b, e)] = C.ring.canon(rng.randint(-2, 2))
    for v in set(P.values) | set(Pprime.values):
        rows = P.value(v).generators
        cols = Pprime.value(v).generators
        M = [[C.ring.zero] * cols for _ in range(rows)]
        for (a, b, e), coeff in entries.items():
            if coeff == C.ring.zero:
                continue
            block = C.right_mult_matrix(C.ring.one, e, v)  # Q(sv, v) -> Q(tv, v)
            r0, c0 = offs_t[a][v], offs_s[b][v]
            if r0 is None or c0 is None:
                continue
            for i in range(block.rows):
                for j in range(block.cols):
                    M[r0 + i][c0 + j] = C.ring.add(
                        M[r0 + i][c0 + j], C.ring.mul(coeff, block[i, j]))
        comps[v] = Matrix(C.ring, rows, cols, [x for row in M for x in row])
    phi = RepMorphism(Pprime, P, comps)
    return cokernel_of_morphism(phi)


def representable_sum(C: MeshCategory, vertices) -> Representation:
    out = None
    for v in vertices:
        rep = representable_rep(C, v)
        out = rep if out is None else out.direct_sum(rep)
    return out


def _summand_offsets(C: MeshCategory, vertices):
    """offsets[a][v] = first generator index of summand a inside the sum at v."""
    offsets = []
    running = {v: 0 for v in C.vertices}
    for sv in vertices:
        mine = {}
        for v in C.vertices:
            d = C.d(sv, v)
            mine[v] = running[v] if d else None
            running[v] += d
        offsets.append(mine)
    return offsets


def random_free_representation(C: MeshCategory, rng, max_dim=3) -> Representation:
    """Random mesh-valid representation with free values over a field.

    Dimensions are sampled first; arrow matrices are then drawn from the
    exact solution space of the mesh relations, which is linear in the
    ascending maps once the descending ones are fixed only for A_2, so
    in general we solve for all arrow entries at once.
    """
    ring = C.ring
    if not (ring.is_field and ring.is_modular):
        raise InvalidParameter("the sampler needs a finite field")
    dims = {v: rng.randint(0, max_dim) for v in C.vertices}
    arrows = list(C.quiver.arrows)
    down = [a for a in arrows if "*" not in a.name]
    mats = {}
    for a in down:
        r, c = dims[a.target], dims[a.source]
        mats[a.name] = Matrix(ring, r, c,
                              [ring.canon(rng.randint(0, ring.modulus - 1))
                               for _ in range(r * c)])
    solution = _solve_ascending_maps(C, dims, mats, rng)
    values = {v: PresentedModule.free(ring, d) for v, d in dims.items() if d}
    mats.update(solution)
    return Representation(C, values, mats)


def _solve_ascending_maps(C, dims, down_mats, rng):
    """Sample the ascending arrow matrices from the mesh-relation solution
    space, given fixed descending ones.  The relations are linear in the
    ascending maps jointly, so one kernel computation suffices."""
    ring = C.ring
    up = [a for a in C.quiver.arrows if "*" in a.name]
    layout = {}
    total = 0
    for a in up:
        r, c = dims[a.target], dims[a.source]
        layout[a.name] = (total, r, c)
        total += r * c
    rows = []
    for q in C.quiver.interior_vertices():
        mesh = C.quiver.mesh_at(q)
        nq = dims[q]
        ntau = dims[mesh.tau_vertex]
        if nq == 0 or ntau == 0:
            continue
        # sum over mesh arms of X(a) X(sigma a) = 0, linear in the up maps
        for i in range(nq):
            for j in range(ntau):
                row = [ring.zero] * total
                const_ok = True
                for a, sa in zip(mesh.arrows, mesh.paired):
                    if "*" in a.name:          # up arm composed after down arm
                        upname, downname = a.name, sa.name
                        D = down_mats[downname]
                        off, r, c = layout[upname]
                        # (U D)[i][j] = sum_k U[i][k] D[k][j]
                        for k in range(c):
                            row[off + i * c + k] = ring.add(
                                row[off + i * c + k], D[k, j])
                    else:                      # down arm composed after up arm
                        downname, upname = a.name, sa.name
                        D = down_mats[downname]
                        off, r, c = layout[upname]
                        # (D U)[i][j] = sum_k D[i][k] U[k][j]
                        for k in range(r):
                            row[off + k * c + j] = ring.add(
                                row[off + k * c + j], D[i, k])
                if any(x != ring.zero for x in row):
                    rows.append(row)
    out = {}
    if total == 0:
        return out
    if rows:
        constraint = Matrix(ring, len(rows), total,
                            [x for row in rows for x in row])
        K = kernel_basis(constraint)
    else:
        K = Matrix.identity(ring, total)
    vec = [ring.zero] * total
    for j in range(K.cols):
        coeff = ring.canon(rng.randint(0, ring.modulus - 1))
        if coeff == ring.zero:
            continue
        col = K.col(j)
        vec = [ring.add(v, ring.mul(coeff, x)) for v, x in zip(vec, col)]
    for name, (off, r, c) in layout.items():
        out[name] = Matrix(ring, r, c, vec[off:off + r * c])
    return out


def hom_space_basis(X: Representation, Y: Representation):
    """Basis of the space of morphisms X -> Y over a field (free values)."""
    ring = X.ring
    if not (ring.is_field and ring.is_modular):
        raise InvalidParameter("hom-space solving needs a finite field")
    verts = sorted(set(X.values) | set(Y.values), key=str)
    layout = {}
    total = 0
    for v in verts:
        r = Y.value(v).generators
        c = X.value(v).generators
        layout[v] = (total, r, c)
        total += r * c
    rows = []
    for a in X.category.quiver.arrows:
        p, q = a.source, a.target
        if q not in layout or p not in layout:
            continue
        Xa = X.arrow_matrix(a)
        Ya = Y.arrow_matrix(a)
        offq, rq, cq = layout[q]
        offp, rp, cp = layout[p]
        # phi_q X(a) - Y(a) phi_p = 0, entry (i, j): i < rq, j < cp
        for i in range(rq):
            for j in range(cp):
                row = [ring.zero] * total
                for k in range(cq):
                    row[offq + i * cq + k] = ring.add(
                        row[offq + i * cq + k], Xa[k, j])
                for k in range(rp):
                    row[offp + k * cp + j] = ring.sub(
                        row[offp + k * cp + j], Ya[i, k])
                if any(x != ring.zero for x in row):
                    rows.append(row)
    if total == 0:
        return [], layout
    if rows:
        K = kernel_basis(Matrix(ring, len(rows), total,
                                [x for row in rows for x in row]))
    else:
        K = Matrix.identity(ring, total)
    basis = []
    for j in range(K.cols):
        col = K.col(j)
        comps = {v: Matrix(ring, r, c, col[off:off + r * c])
                 for v, (off, r, c) in layout.items()}
        basis.append(RepMorphism(X, Y, comps))
    return basis, layout


def random_morphism(X: Representation, Y: Representation, rng) -> RepMorphism:
    """Uniformly random natural transformation between free-valued
    representations over a finite field."""
    basis, layout = hom_space_basis(X, Y)
    ring = X.ring
    comps = {v: Matrix.zeros(ring, r, c)
             for v, (off, r, c) in layout.items()}
    for phi in basis:
        coeff = ring.canon(rng.randint(0, ring.modulus - 1))
        if coeff == ring.zero:
            continue
        for v in comps:
            comps[v] = comps[v] + phi.component(v).scale(coeff)
    return RepMorphism(X, Y, comps)

"""Test oracles that find by elimination or exhaustion what the engine
states in closed form or by a shorter route.

* Stalk resolutions grown level by level from vertexwise kernels: the
  corner cover, which built every resolution before the closed form, and
  the basis-indexed resolution with its greedy cover.  Both start from
  a scan of the whole radical at the resolved vertex.  They eliminate in
  the category truncated to the window, which agrees with ZA_n only
  away from its edge, so they refuse (WindowTooSmall) a summand whose
  support reaches past it.
* The derived-homology plumbing before its fast paths: middle homology
  by kernel, then coordinates, then relations (three eliminations), the
  isomorphism test as a zero cokernel and a zero kernel, the
  radical filtration read off every radical basis element, path
  products started from an identity matrix, and stalk complexes paired
  with X's own presentation rather than its pruned model.
* The functors of degrees 0 and 1 before they were read off the stalk
  complexes: the radical filtration, whose first power gives the corner
  functors, and the mesh complex X(tau q) -> ⊕ X(p_i) -> X(q), whose
  middle homology is mesh homology; with the radical bases and graded
  dimensions they read.
* Representations built the long way: functors that ask every vertex
  for their rank, sums of representables folded from binary direct sums,
  and random representations with every block a sum of scaled matrices,
  stacked, or as the cokernel of a morphism between two such sums; and
  validation as a scan of every arrow and interior mesh of the window.
* The Smith forms over Z and Z/p^k as two eliminations: division with
  remainder over Z, and the one-sweep local form over Z/p^k.
* Eliminations that build every transform: kernels, normal forms and
  invertibility read off the full (S, U, V), and the rank as the pivot
  count of the reduced row echelon form.
* Block matrices written entry by entry, the reference for the one
  block layout routine, Matrix.blocks.
* Exhaustive checks over finite rings: coset enumeration, splitting and
  Baer's criterion, ideal membership, and maps induced on subquotients.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd

from qshape.errors import InvalidParameter, NotWellDefined, WindowTooSmall
from qshape.exactalg import (HomologyData, Matrix, ModuleMap, PresentedModule,
                             coordinates_mod, induced_on_homology, kernel_basis,
                             middle_homology, preimage_generators,
                             smith_normal_form, solve, solve_matrix)
from qshape.exactalg.modules import NormalForm
from qshape.exactalg.rings import INTEGERS, INTEGERS_MOD, RATIONALS
from qshape.exactalg.smith import _rref
from qshape.homology import (SIDE_CO, StalkResolution, _Side,
                             _start_resolution)
from qshape.quiver import DOUBLE_AN, format_vertex, vertex_key
from qshape.repmod import (MeshResidual, Representation, RepMorphism,
                           ValidationReport, representable_sum)


# ---------------------------------------------------------------------------
# helpers the engine does without
# ---------------------------------------------------------------------------

def add(ring, a, b):
    """a + b in the ring, canonical."""
    return ring.canon(a + b)


def column_matrix(M: Matrix, j) -> Matrix:
    """Column j of M as a one-column matrix."""
    return Matrix._trusted(M.ring, M.rows, 1, M.col(j))


def blocks_by_entry(ring, layout, row_dims, col_dims) -> Matrix:
    """Matrix.blocks written entry by entry: each entry asks which block
    holds it, and reads that block or zero."""
    def block_of(dims, k):
        for b, d in enumerate(dims):
            if k < d:
                return b, k
            k -= d

    rows, cols = sum(row_dims), sum(col_dims)
    out = []
    for i in range(rows):
        a, ii = block_of(row_dims, i)
        for j in range(cols):
            b, jj = block_of(col_dims, j)
            blk = layout.get((a, b))
            out.append(ring.zero if blk is None else blk[ii, jj])
    return Matrix(ring, rows, cols, out)


def graded_dim(C, p, q, degree: int) -> int:
    """Rank of Q^degree(p, q)."""
    return sum(1 for b in C.hom_basis(p, q) if b.degree == degree)


def radical_basis(C, p, q, power: int):
    """Basis of r^power(p, q): the degree >= power part of Q(p, q)."""
    if power < 0:
        raise InvalidParameter("radical power must be nonnegative")
    return tuple(b for b in C.hom_basis(p, q) if b.degree >= power)


def radical_out(C, q, power: int = 1):
    """All radical-basis morphisms with source q, grouped by target."""
    return tuple(b for r in C.hom_targets(q)
                 for b in radical_basis(C, q, r, power))


def radical_in(C, q, power: int = 1):
    """All radical-basis morphisms with target q, grouped by source."""
    return tuple(b for p in C.hom_sources(q)
                 for b in radical_basis(C, p, q, power))


# ---------------------------------------------------------------------------
# stalk resolutions by elimination
# ---------------------------------------------------------------------------

KERNEL_EDGE = "resolution kernel reaches the window edge; widen the window"


def margin_ok(eng: _Side, r) -> bool:
    """Whether the support of the summand at r, which reaches n-1 columns
    below (side co) or above (side cn) it, stays inside the window."""
    C = eng.C
    if C.flavor == DOUBLE_AN:
        return True
    i_min, i_max = C.quiver.window
    reach = (1 - C.n) if eng.side == SIDE_CO else (C.n - 1)
    return i_min <= r[1] + reach <= i_max


def _start_in_window(eng: _Side, q, head) -> StalkResolution:
    """Levels zero and one, refused where a summand's support leaves the
    window."""
    if not margin_ok(eng, q):
        raise WindowTooSmall(f"stalk resolution at {format_vertex(q)} "
                             "reaches outside the window")
    if not all(margin_ok(eng, r) for _, r in head):
        raise WindowTooSmall("resolution summand too close to the window edge")
    return _start_resolution(eng, q, head)


def _support(eng: _Side, r):
    """The vertices s where the r-summand's value is nonzero."""
    return (eng.C.hom_targets if eng.side == SIDE_CO else eng.C.hom_sources)(r)


def _entry_basis(eng: _Side, a, b):
    """Basis of Q(ends(a, b)), the homs a boundary entry between summands
    a and b lies in."""
    return eng.C.hom_basis(*eng.ends(a, b))


def _orbit_action(eng: _Side, h, comp_vertex) -> Matrix:
    """Action of the engine-direction morphism h on the comp_vertex
    component of a level value, in value coordinates: postcomposition on
    side co (values Q(r, s)), precomposition on side cn (values Q(s, r))."""
    C = eng.C
    mult = C.left_mult_matrix if eng.side == SIDE_CO else C.right_mult_matrix
    return mult(C.ring.one, h, comp_vertex)


def radical_head(eng: _Side, q):
    """(basis element, new summand vertex) for every radical basis element
    out of (side co) or into (side cn) q, in the order of the radical scan."""
    radical = radical_out if eng.side == SIDE_CO else radical_in
    return [(e, eng.ends(e.source, e.target)[1]) for e in radical(eng.C, q)]


def corner_cover_resolution(C, q, side: str, length: int) -> StalkResolution:
    """The resolution the corner cover builds: level one has one summand
    per degree-one radical basis element at q, and each further level
    covers the vertexwise kernels by lifts of generators of their
    corners.  Nothing is cached."""
    eng = _Side(C, side)
    res = _start_in_window(
        eng, q, [(e, r) for e, r in radical_head(eng, q) if e.degree == 1])
    _extend_resolution(res, length, _corner_cover)
    return res


def basis_indexed_resolution(C, q, side: str, length: int) -> StalkResolution:
    """The canonical basis-indexed resolution.

    Level one has one representable summand for every radical-basis
    morphism out of (side co) or into (side cn) q, and further levels
    are greedy covers of the vertexwise kernels.  Nothing is cached.
    """
    eng = _Side(C, side)
    res = _start_in_window(eng, q, radical_head(eng, q))
    _extend_resolution(res, length, _greedy_cover)
    return res


def _extend_resolution(res: StalkResolution, length: int, cover):
    eng = res._engine
    C = eng.C
    while res.length() < length:
        i = res.length()
        cur = res.terms[i]
        # vertices where the level can be nonzero; the translate of the
        # resolved vertex goes first, so the mesh syzygy summand comes
        # first and the greedy cover picks it
        spots = sorted(set().union(*(_support(eng, r) for r in cur)),
                       key=vertex_key)
        tau_v = C.quiver.tau(res.vertex)
        if tau_v in spots:
            spots = [tau_v] + [s for s in spots if s != tau_v]
        kernels = {s: kernel_basis(res.level_matrix(i, s)) for s in spots}
        chosen = cover(eng, cur, spots, kernels)
        new_terms = []
        new_entries = {}
        dims_at = {s: [eng.value_dim(r, s) for r in cur] for s in spots}
        for s, vec in chosen:
            b_new = len(new_terms)
            new_terms.append(s)
            off = 0
            for b, d in enumerate(dims_at[s]):
                coeffs = vec[off:off + d]
                off += d
                basis = _entry_basis(eng, cur[b], s)
                entry = tuple((c, e) for c, e in zip(coeffs, basis)
                              if c != C.ring.zero)
                if entry:
                    new_entries[(b, b_new)] = entry
        res.terms.append(new_terms)
        res.boundaries.append(new_entries)


def _corner_cover(eng: _Side, cur, spots, kernels):
    """Lifts of generators of the corners K(s) / Σ im K(t -> s).

    Every radical morphism into s factors through a degree-one one, so
    the images of the neighbouring kernels under the degree-one
    morphisms t -> s span the radical part of K(s).  A kernel column is
    kept when it is outside that span and the columns kept before it.
    The kept columns and the radical give K = cover + rad K, and the
    pseudo-radical is nilpotent, so the cover generates K over every
    ring (graded Nakayama); over a field it is minimal.
    """
    ring = eng.C.ring
    chosen = []
    for s in spots:
        K = kernels[s]
        if K.cols == 0:
            continue
        images = [Matrix.zeros(ring, K.rows, 0)]
        for t in spots:
            if kernels[t].cols == 0:
                continue
            for h in _entry_basis(eng, t, s):
                if h.degree == 1:
                    act = Matrix.block_diag(
                        ring, [_orbit_action(eng, h, r) for r in cur])
                    images.append(act * kernels[t])
        span = Matrix.hstack(images)
        for col in range(K.cols):
            v = column_matrix(K, col)
            if v.is_zero or (span.cols and solve(span, v) is not None):
                continue
            if not margin_ok(eng, s):
                raise WindowTooSmall(KERNEL_EDGE)
            chosen.append((s, K.col(col)))
            span = Matrix.hstack([span, v])
    return chosen


def _greedy_cover(eng: _Side, cur, spots, kernels):
    """Vertexwise kernel generators not already generated by earlier picks.

    The subfunctor generated by elements v_j at vertices r_j has, at s,
    exactly the span of their images under the hom bases Q(r_j, s) in
    the engine direction, so membership is one linear solve; picks are
    repeated until a full pass adds nothing.
    """
    chosen = []
    changed = True
    while changed:
        changed = False
        for s in spots:
            K = kernels[s]
            if K.cols == 0:
                continue
            spanned = _spanned_at(eng, cur, chosen, s)
            for col in range(K.cols):
                v = column_matrix(K, col)
                if v.is_zero:
                    continue
                if spanned is not None and spanned.cols \
                        and solve(spanned, v) is not None:
                    continue
                if not margin_ok(eng, s):
                    raise WindowTooSmall(KERNEL_EDGE)
                chosen.append((s, K.col(col)))
                changed = True
                spanned = _spanned_at(eng, cur, chosen, s)
    return chosen


def _spanned_at(eng: _Side, cur, chosen, s):
    """Images at s of all chosen elements, as columns in level coordinates."""
    if not chosen:
        return None
    ring = eng.C.ring
    dims = [eng.value_dim(r, s) for r in cur]
    total = sum(dims)
    cols = []
    for r, vec in chosen:
        for h in _entry_basis(eng, r, s):
            image = []
            off = 0
            for b, rb in enumerate(cur):
                d = eng.value_dim(rb, r)
                piece = Matrix.column(ring, vec[off:off + d])
                off += d
                act = _orbit_action(eng, h, rb)
                image.extend((act * piece).col(0))
            cols.append(image)
    if not cols:
        return None
    return Matrix(ring, total, len(cols),
                  [cols[j][i] for i in range(total) for j in range(len(cols))])


# ---------------------------------------------------------------------------
# derived-homology plumbing before its fast paths
# ---------------------------------------------------------------------------

def middle_homology_three_eliminations(f: ModuleMap, g: ModuleMap) -> HomologyData:
    """ker(g)/im(f): the kernel of g (two eliminations), the coordinates
    of f in its generators (a third), then [coords_f | K.relations] as
    the relations."""
    B = f.target
    K, incl = g.kernel()
    coords = coordinates_mod(incl, B.relations, f.matrix)
    if coords is None:
        raise NotWellDefined("image of f does not lie in the kernel of g")
    rel = Matrix.hstack([coords, K.relations])
    return HomologyData(PresentedModule(B.ring, K.generators, rel), incl, B)


def is_isomorphism_by_kernel(phi: ModuleMap) -> bool:
    """Whether phi is an isomorphism: its cokernel is 0, and then its
    kernel, built and put in normal form, is 0 too."""
    if not phi.cokernel().is_zero:
        return False
    K, _ = phi.kernel()
    return K.is_zero


def complex_from_own_presentation(res: StalkResolution, X: Representation,
                                  levels: int):
    """(modules, maps) of the first ``levels`` levels of the resolution
    paired with X's values as given, each level ⊕_a X(r_a), and each
    boundary block X applied to the resolution's entry."""
    eng = res._engine
    values = [[X.value(r) for r in level] for level in res.terms[:levels]]
    dims = [[m.generators for m in level] for level in values]
    modules = [level[0].direct_sum(*level[1:]) if len(level) > 1 else level[0]
               for level in values]
    maps = {0: ModuleMap.zero(*eng.ends(PresentedModule.free(X.ring, 0),
                                        modules[0]))}
    for i in range(1, len(values)):
        src, dst = eng.ends(i - 1, i)
        blocks = {}
        for (a, b), entry in res.boundaries[i].items():
            row, col = eng.ends(b, a)
            if dims[dst][row] and dims[src][col]:
                blocks[row, col] = eng.x_value_block(X, entry)
        M = Matrix.blocks(X.ring, blocks, dims[dst], dims[src])
        maps[i] = ModuleMap(modules[src], modules[dst], M, check=False)
    return modules, maps


def radical_filtration_all_degrees(X, q, power: int):
    """(K^power, incl, C^power) cut out by every basis element of r^power
    at q, all degrees >= power."""
    C = X.category
    return _filtration(X, q, radical_out(C, q, power), radical_in(C, q, power))


def radical_filtration(X, q, power: int):
    """(K^power ⊆ X(q), X(q) ↠ C^power) cut out by radical powers.

    Only the basis elements of degree exactly ``power`` are read.  The
    mesh category is generated in degree one, so a basis element of
    higher degree out of q is one of degree ``power`` followed by the rest
    of its path, and one into q ends in one of degree ``power``: its
    kernel contains, and its image lies in, theirs.  So they cut out the
    same K^power and C^power as all of r^power.  Power 0 reads the
    identity alone, so K^0 = 0 and C^0 = 0; power 1 gives the corner
    functors; at the nilpotency index nothing is read and K reaches all
    of X(q).
    """
    C = X.category

    def of_degree(scan):
        return [e for e in scan if e.degree == power]
    return _filtration(X, q, of_degree(radical_out(C, q, power)),
                       of_degree(radical_in(C, q, power)))


def _filtration(X, q, out_elts, in_elts):
    """(K, incl, C): the common kernel in X(q) of the out_elts, and X(q)
    modulo the images of the in_elts."""
    Xq = X.value(q)
    outs = [X.evaluate_matrix(X.ring.one, e) for e in out_elts]
    if outs:
        stacked = Matrix.vstack(outs)
        tgt = PresentedModule(
            X.ring, stacked.rows,
            Matrix.block_diag(X.ring, [X.value(e.target).relations
                                       for e in out_elts]))
        kmod, incl = ModuleMap(Xq, tgt, stacked, check=False).kernel()
    else:
        kmod, incl = Xq, Matrix.identity(X.ring, Xq.generators)
    ins = [X.evaluate_matrix(X.ring.one, e) for e in in_elts]
    pieces = ins + [Xq.relations]
    cmod = PresentedModule(X.ring, Xq.generators, Matrix.hstack(pieces)) \
        if Xq.generators else Xq
    return kmod, incl, cmod


def mesh_complex(X, q):
    """The three-term complex X(tau q) -> ⊕ X(p_i) -> X(q) of the mesh at
    q, its entries the arrow matrices."""
    mesh = X.category.quiver.mesh_at(q)
    first, *rest = [X.value(a.source) for a in mesh.arrows]
    middle = first.direct_sum(*rest)
    f = ModuleMap(X.value(mesh.tau_vertex), middle,
                  Matrix.vstack([X.arrow_matrix(sa) for sa in mesh.paired]),
                  check=False)
    g = ModuleMap(middle, X.value(q),
                  Matrix.hstack([X.arrow_matrix(a) for a in mesh.arrows]),
                  check=False)
    return f, g


def mesh_homology_map_by_mesh_complex(phi, q) -> ModuleMap:
    """The map induced by phi on the middle homology of the mesh complexes
    at q."""
    hx = middle_homology(*mesh_complex(phi.source, q))
    hy = middle_homology(*mesh_complex(phi.target, q))
    mesh = phi.source.category.quiver.mesh_at(q)
    block = Matrix.block_diag(phi.source.ring,
                              [phi.component(a.source) for a in mesh.arrows])
    return induced_on_homology(hx, hy, block)


def evaluate_from_identity(X, elt) -> Matrix:
    """X(elt) as the signed product of its path's arrow matrices, applied
    one by one to the identity on X(source)."""
    sign, arrows = X.category.basis_path(elt)
    out = Matrix.identity(X.ring, X.value(elt.source).generators)
    for arrow in arrows:
        out = X.arrow_matrix(arrow) * out
    return out.scale(sign)


# ---------------------------------------------------------------------------
# representations built the long way
# ---------------------------------------------------------------------------

def tensor_functor_every_vertex(C, M: PresentedModule, rank,
                                action) -> Representation:
    """Value M^rank(r) at r, asked of every vertex r, and the arrow a acting
    by action(a) ⊗ 1_M."""
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


def free_at_every_vertex(C, q, M: PresentedModule) -> Representation:
    return tensor_functor_every_vertex(C, M, lambda r: C.d(q, r),
                                       lambda a: C.arrow_left_mult(a, q))


def cofree_at_every_vertex(C, q, M: PresentedModule) -> Representation:
    return tensor_functor_every_vertex(
        C, M, lambda p: C.d(p, q),
        lambda a: C.arrow_right_mult(a, q).transpose())


def representable_sum_by_folding(C, vertices) -> Representation:
    """⊕ Q(t, -) as a left fold of binary direct sums."""
    one = PresentedModule.free(C.ring, 1)
    return reduce(Representation.direct_sum,
                  (free_at_every_vertex(C, v, one) for v in vertices))


def cokernel_of_morphism(phi: RepMorphism) -> Representation:
    """Vertexwise cokernels: same generators as the target, more relations."""
    Y = phi.target
    values = {}
    for v in set(Y.values):
        rel = Matrix.hstack([phi.component(v), Y.value(v).relations])
        values[v] = PresentedModule(Y.ring, Y.value(v).generators, rel)
    return Representation(Y.category, values, dict(Y.arrow_maps))


def _sampler_draws(C, rng, summands):
    """``random_representation``'s draws, (sources, targets, component):
    component(v) is the morphism ⊕ Q(s, v) -> ⊕ Q(t, v), block by block,
    each block of summands (t, s) the sum of the c (- ∘ e) over the basis
    elements e of Q(t, s), scaled from the cached multiplication matrices
    and stacked."""
    verts = C.quiver.interior_vertices()
    sources = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    targets = [rng.choice(verts) for _ in range(rng.randint(1, summands))]
    coeffs = [[[(e, C.ring.canon(rng.randint(-2, 2)))
                for e in C.hom_basis(tv, sv)] for sv in sources]
              for tv in targets]

    def block(tv, sv, terms, v):
        return sum((C.right_mult_matrix(C.ring.one, e, v).scale(c)
                    for e, c in terms if c),
                   Matrix.zeros(C.ring, C.d(tv, v), C.d(sv, v)))

    def component(v):
        return Matrix.vstack([
            Matrix.hstack([block(tv, sv, terms, v)
                           for sv, terms in zip(sources, row)])
            for tv, row in zip(targets, coeffs)])
    return sources, targets, component


def random_representation_by_blocks(C, rng, summands=3) -> Representation:
    """``random_representation`` as it was before it wrote each value in one
    pass: every block a sum of scaled matrices, hstacked and vstacked, on
    the values and arrows of ⊕ Q(t, -)."""
    _, targets, component = _sampler_draws(C, rng, summands)
    P = representable_sum(C, targets)
    values = {v: PresentedModule(C.ring, m.generators, component(v))
              for v, m in P.values.items()}
    return Representation(C, values, P.arrow_maps)


def random_representation_by_cokernel(C, rng, summands=3) -> Representation:
    """``random_representation``'s draws, built as the cokernel of the
    morphism P' -> P between folded sums of representables."""
    sources, targets, component = _sampler_draws(C, rng, summands)
    P = representable_sum_by_folding(C, targets)
    Pprime = representable_sum_by_folding(C, sources)
    comps = {v: component(v) for v in set(P.values) | set(Pprime.values)}
    return cokernel_of_morphism(RepMorphism(Pprime, P, comps))


def validate_representation_by_window_scan(X: Representation) -> ValidationReport:
    """validate_representation as a scan of the whole window: every arrow
    of the quiver, then the mesh at every interior vertex."""
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
    report.ok = not report.mesh_residuals and not report.bad_arrows
    return report


def validate_morphism_by_window_scan(phi: RepMorphism) -> dict:
    """validate_morphism with naturality read on every arrow of the quiver."""
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


# ---------------------------------------------------------------------------
# Smith forms over Z and Z/p^k as two eliminations
# ---------------------------------------------------------------------------

def snf_int(entries, rows, cols):
    """Return (S, U, V) as dense integer lists with U*M*V = S, by division
    with remainder: the integer Smith form before Z and Z/p^k shared one.

    S is diagonal with d1 | d2 | ... >= 0; U, V are products of elementary
    (unimodular) row/column operations.  A zero matrix is left untouched so
    U and V come back as identities.
    """
    A = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row_dst += c * row_src
        if c:
            Ad, As = A[dst], A[src]
            for k in range(cols):
                Ad[k] += c * As[k]
            Ud, Us = U[dst], U[src]
            for k in range(rows):
                Ud[k] += c * Us[k]

    def add_col(src, dst, c):  # col_dst += c * col_src
        if c:
            for row in A:
                row[dst] += c * row[src]
            for row in V:
                row[dst] += c * row[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        # locate a pivot of minimal absolute value in A[t:, t:]
        pivot = None
        best = None
        for i in range(t, rows):
            Ai = A[i]
            for j in range(t, cols):
                x = Ai[j]
                if x:
                    a = abs(x)
                    if best is None or a < best:
                        best, pivot = a, (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:  # remainder strictly smaller: re-pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry
            culprit = None
            d = A[t][t]
            for i in range(t + 1, rows):
                Ai = A[i]
                for j in range(t + 1, cols):
                    if Ai[j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)  # fold the bad row in and restart
        if A[t][t] < 0:
            for k in range(cols):
                A[t][k] = -A[t][k]
            for k in range(rows):
                U[t][k] = -U[t][k]
        t += 1

    return A, U, V


def snf_local(entries, rows, cols, p, m):
    """Return (S, U, V) as dense lists over Z/m, m = p^k, with U*M*V = S,
    by the one-sweep local form: the Z/p^k Smith form before Z and Z/p^k
    shared one.

    ``entries`` are canonical, in [0, m).  The diagonal of S is p^v for
    nondecreasing v < k, then zeros; every entry of S, U and V lies in
    [0, m).  A zero matrix is left untouched.
    """
    A = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    VT = [[int(i == j) for j in range(cols)] for i in range(cols)]  # columns of V

    for t in range(min(rows, cols)):
        # a pivot of least p-adic valuation in A[t:, t:]
        best = None
        for i in range(t, rows):
            Ai = A[i]
            for j in range(t, cols):
                x = Ai[j]
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, i, j = best
        if i != t:
            A[t], A[i] = A[i], A[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in A[t:]:  # rows above t vanish in these columns
                row[t], row[j] = row[j], row[t]
            VT[t], VT[j] = VT[j], VT[t]
        d = p ** v
        At, Ut = A[t], U[t]
        unit = At[t] // d
        if unit != 1:  # scale the pivot to d by the inverse of its unit part
            inv = pow(unit, -1, m)
            At[:] = [x * inv % m for x in At]
            Ut[:] = [x * inv % m for x in Ut]
        support = [k for k in range(t + 1, cols) if At[k]]
        usupport = [k for k in range(rows) if Ut[k]]
        # clear column t; the pivot divides every entry below it
        for i in range(t + 1, rows):
            Ai = A[i]
            x = Ai[t]
            if x:
                c = x // d
                Ai[t] = 0
                for k in support:
                    Ai[k] = (Ai[k] - c * At[k]) % m
                Ui = U[i]
                for k in usupport:
                    Ui[k] = (Ui[k] - c * Ut[k]) % m
        # clear row t; column t is now zero off the pivot, so only V moves
        Vt = VT[t]
        vsupport = [r for r in range(cols) if Vt[r]]
        for k in support:
            c = At[k] // d
            At[k] = 0
            Vk = VT[k]
            for r in vsupport:
                Vk[r] = (Vk[r] - c * Vt[r]) % m

    return A, U, [list(row) for row in zip(*VT)]


# ---------------------------------------------------------------------------
# eliminations that build every transform
# ---------------------------------------------------------------------------

def full_diagonal(M: Matrix):
    """The diagonal of S from the full smith_normal_form (S, U, V)."""
    S, _, _ = smith_normal_form(M)
    return [S[i, i] for i in range(min(M.rows, M.cols))]


def kernel_basis_full(M: Matrix) -> Matrix:
    """kernel_basis over Z and Z/p^k read off the full (S, U, V) as
    matrices: the route before kernels built no U."""
    S, _, V = smith_normal_form(M)
    t = min(M.rows, M.cols)
    m = M.ring.modulus or 0
    scales = [m // d if d else 1 for d in (S[i, i] for i in range(t))]
    scales += [1] * (M.cols - t)
    gens = [i for i, c in enumerate(scales) if c != m]
    if not m:
        return V.take_columns(gens)
    return Matrix._trusted(M.ring, M.cols, len(gens),
                           [V[r, i] * scales[i] % m for r in range(M.cols) for i in gens])


def normal_form_full(module: PresentedModule) -> NormalForm:
    """The invariant-factor normal form over Z and Z/p^k from the full
    (S, U, V)."""
    nonzero = [d for d in full_diagonal(module.relations) if d != 0]
    return NormalForm(module.generators - len(nonzero),
                      sorted(d for d in nonzero if d != 1))


def is_invertible_full(M: Matrix) -> bool:
    """Invertibility over Z and Z/p^k from the full (S, U, V)."""
    return M.rows == M.cols and all(M.ring.is_unit(d) for d in full_diagonal(M))


def rref_rank(M: Matrix) -> int:
    """The rank over a field as the pivot count of the reduced row echelon
    form, above-pivot clearing included."""
    return len(_rref(M)[1])


# ---------------------------------------------------------------------------
# exhaustive checks over finite rings
# ---------------------------------------------------------------------------

def divides(ring, a, b) -> bool:
    """Whether b lies in the ideal generated by a."""
    a, b = ring.canon(a), ring.canon(b)
    if ring.kind == RATIONALS:
        return a != 0 or b == 0
    if ring.kind == INTEGERS:
        return b == 0 if a == 0 else b % a == 0
    g = gcd(a, ring.modulus)  # (a) = (gcd(a, m)) in Z/m
    return b % g == 0


def elements(module: PresentedModule):
    """All cosets as canonical tuples; finite modular rings only."""
    ring = module.ring
    if ring.kind != INTEGERS_MOD:
        raise InvalidParameter("element enumeration needs a finite ring")
    m = ring.modulus
    span = {(0,) * module.generators}
    frontier = list(span)
    cols = module.relations.columns()
    while frontier:
        new = []
        for v in frontier:
            for c in cols:
                w = tuple((a + b) % m for a, b in zip(v, c))
                if w not in span:
                    span.add(w)
                    new.append(w)
        frontier = new
    seen = set()
    reps = []
    for v in product(range(m), repeat=module.generators):
        if v in seen:
            continue
        coset = {tuple((a + b) % m for a, b in zip(v, s)) for s in span}
        seen |= coset
        reps.append(min(coset))
    return reps


def induced_map_on_subquotient(big: Matrix,
                               sub_src: Matrix, rel_src: Matrix,
                               sub_tgt: Matrix, rel_tgt: Matrix) -> ModuleMap:
    """The map (span sub_src / span rel_src) -> (span sub_tgt / span rel_tgt)
    induced by ``big``; raises NotWellDefined when containments fail."""
    ring = big.ring
    source = PresentedModule(ring, sub_src.cols, preimage_generators(sub_src, rel_src))
    target = PresentedModule(ring, sub_tgt.cols, preimage_generators(sub_tgt, rel_tgt))
    image = big * sub_src
    coords = coordinates_mod(sub_tgt, rel_tgt, image)
    if coords is None:
        raise NotWellDefined("big does not carry the source subspace into the target")
    return ModuleMap(source, target, coords)


def brute_force_projective(module: PresentedModule) -> bool:
    """Does the presentation R^g -> P split?  Finite modular rings only."""
    ring = module.ring
    m = ring.modulus
    g = module.generators
    if g == 0:
        return True
    rel = module.relations
    identity = Matrix.identity(ring, g)
    for flat in product(range(m), repeat=g * g):
        H = Matrix(ring, g, g, flat)
        if rel.cols and not (H * rel).is_zero:
            continue  # not a hom into the free cover
        if solve_matrix(rel, H - identity) is not None:
            return True  # pi ∘ s = id on every generator
    return False


def brute_force_injective(module: PresentedModule) -> bool:
    """Baer criterion over Z/p^k: ann(p^(k-j)) = p^j * E for 0 < j < k."""
    ring = module.ring
    p, k, m = ring.prime, ring.exponent, ring.modulus
    elems = elements(module)
    rel = module.relations

    def same(u, v):
        diff = Matrix.column(ring, [a - b for a, b in zip(u, v)])
        return solve(rel, diff) is not None

    def canonical(v):
        for e in elems:
            if same(v, e):
                return e
        raise AssertionError("coset representative missing")

    zero = canonical((0,) * module.generators)
    for j in range(1, k):
        c = pow(p, k - j)
        ann = {canonical(v) for v in elems
               if canonical(tuple((c * a) % m for a in v)) == zero}
        scaled = {canonical(tuple((pow(p, j) * a) % m for a in v)) for v in elems}
        if ann != scaled:
            return False
    return True

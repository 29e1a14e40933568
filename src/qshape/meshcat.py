"""The mesh category of a double or repetitive A_n quiver as finite data.

Morphisms are graded by path length.  For both flavors every nonzero
graded piece Q^l(p, q) is free of rank one, spanned by a canonical
*signed path*: the class of any path from p to q of length l after
replacing each arrow a_r (from row r up to row r + 1) by (-1)^r a_r.
With that sign convention all parallel paths become equal (the mesh
relations turn every diamond into a commuting square), so composition
of basis elements has structure constants 0 or 1 and every sign in the
category is pinned down once and for all.

One hom rule serves both flavors.  Double A_n is the repetitive quiver
ZA_n modulo tau: a vertex has a row, and on the repetitive quiver also a
column, (q, i).  A basis element of Q(p, q) is a path that goes down a
row v times (a* arrows, each moving one column back on the repetitive
quiver) and then up u = (q - p) + v times (a arrows).  It is nonzero
iff it stays in the Serre rectangle,

    max(0, p - q) <= v <= min(p - 1, n - q)      (in rows),

and its degree is u + v = (q - p) + 2v.  On the double quiver every such
v gives one basis element, so Q(p, q) has rank
d(p, q) = min(p, q, n+1-p, n+1-q); on the repetitive quiver v is pinned
to i - j for (p, i) -> (q, j), so the rank is at most one.  This is
Riedtmann's covering ZA_n -> ZA_n / tau read on hom spaces.

The class also carries the Serre functor and a path-enumeration oracle
that recomputes all graded dimensions from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EndpointMismatch, InvalidParameter, UnsupportedFlavor,
                     UnsupportedRing)
from .exactalg import Matrix, PresentedModule, matrix_is_invertible
from .exactalg.rings import BaseRing
from .quiver import (DOUBLE_AN, REPETITIVE_AN, Arrow, StableTranslationQuiver,
                     format_vertex)


@dataclass(frozen=True)
class BasisElement:
    """The signed path spanning Q^degree(source, target)."""
    source: object
    target: object
    degree: int


class MeshCategory:
    """Hom bases, composition, pseudo-radical, and Serre data."""

    def __init__(self, quiver: StableTranslationQuiver, ring: BaseRing):
        self.quiver = quiver
        self.ring = ring
        self.n = quiver.n
        self._hom_cache: dict = {}
        self._left_mult_cache: dict = {}
        self._right_mult_cache: dict = {}
        self._resolution_cache: dict = {}

    # -- flavor ------------------------------------------------------------

    @property
    def flavor(self):
        return self.quiver.flavor

    @property
    def vertices(self):
        return self.quiver.vertices

    def is_interior(self, v) -> bool:
        return self.quiver.is_interior(v)

    def __repr__(self):
        return f"MeshCategory({self.quiver.flavor}, n={self.n}, ring={self.ring!r})"

    def _coords(self, v):
        """(row, column) of a vertex; double A_n, which is repetitive A_n
        modulo tau, keeps the row and has no column (None)."""
        return (v, None) if self.quiver.flavor == DOUBLE_AN else v

    @staticmethod
    def _vertex(row, col, shift: int = 0):
        """The vertex at (row, col + shift); inverse of _coords."""
        return row if col is None else (row, col + shift)

    # -- graded dimensions ----------------------------------------------------

    def d(self, p, q) -> int:
        """Total rank of Q(p, q)."""
        return len(self.hom_basis(p, q))

    def graded_dim(self, p, q, degree: int) -> int:
        """Rank of Q^degree(p, q)."""
        return sum(1 for b in self.hom_basis(p, q) if b.degree == degree)

    def hom_basis(self, p, q):
        """Ordered basis of Q(p, q), by ascending degree: one element per
        descent count v in the Serre rectangle, in degree (q - p) + 2v."""
        key = (p, q)
        cached = self._hom_cache.get(key)
        if cached is not None:
            return cached
        (pr, pc), (qr, qc) = self._coords(p), self._coords(q)
        descents = range(pr) if pc is None else (pc - qc,)  # a column pins v
        basis = tuple(BasisElement(p, q, qr - pr + 2 * v) for v in descents
                      if 0 <= v < pr and pr - qr <= v <= self.n - qr)
        self._hom_cache[key] = basis
        return basis

    # -- composition -------------------------------------------------------------

    def compose_basis(self, g: BasisElement, f: BasisElement):
        """g ∘ f as (coefficient, BasisElement) or None when it vanishes."""
        if f.target != g.source:
            raise EndpointMismatch(
                f"cannot compose {g} after {f}")
        degree = f.degree + g.degree
        if self.graded_dim(f.source, g.target, degree):
            return (self.ring.one, BasisElement(f.source, g.target, degree))
        return None

    # -- arrows as basis vectors -----------------------------------------------------

    def arrow_elt(self, arrow: Arrow):
        """(coefficient, BasisElement) expressing the arrow in the signed bases.

        An arrow up from row r (a_r: r -> r+1) carries the sign (-1)^r;
        an arrow down a row (a_r*) none.
        """
        row = self._coords(arrow.source)[0]
        up_odd = arrow.rises and row % 2
        coeff = self.ring.neg(self.ring.one) if up_odd else self.ring.one
        return coeff, BasisElement(arrow.source, arrow.target, 1)

    def basis_path(self, elt: BasisElement):
        """(sign, arrows) with elt = sign * (composite of those arrows).

        The arrow list is in application order (first arrow first).  The
        chosen representative goes down a row v times, then up; it stays
        inside the vertex range along the way.
        """
        ring = self.ring
        row, col = self._coords(elt.source)
        down = (elt.degree + row - self._coords(elt.target)[0]) // 2
        sign, arrows, w = ring.one, [], elt.source
        for k in range(1, elt.degree + 1):
            if k <= down:
                nxt = self._vertex(row - k, col, -k)
            else:
                up_from = row - 2 * down + k - 1
                nxt = self._vertex(up_from + 1, col, -down)
                if up_from % 2:  # the sign of arrow_elt
                    sign = ring.neg(sign)
            arrows.append(self.quiver.arrow_between(w, nxt))
            w = nxt
        return sign, arrows

    # -- multiplication matrices ----------------------------------------------------

    def left_mult_matrix(self, coeff, g: BasisElement, p) -> Matrix:
        """Matrix of (coeff * g) ∘ - : Q(p, source g) -> Q(p, target g)."""
        return self._mult_matrix(self._left_mult_cache, ("L", coeff, g, p),
                                 (p, g.source), (p, g.target))

    def right_mult_matrix(self, coeff, g: BasisElement, r) -> Matrix:
        """Matrix of - ∘ (coeff * g) : Q(target g, r) -> Q(source g, r)."""
        return self._mult_matrix(self._right_mult_cache, ("R", coeff, g, r),
                                 (g.target, r), (g.source, r))

    def _mult_matrix(self, cache, key, src, tgt) -> Matrix:
        """Composition with coeff * g, for key = (side, coeff, g, vertex),
        from the basis of Q(src) to that of Q(tgt).  Structure constants are
        0 or 1, so f goes to coeff times the element of degree deg f + deg g."""
        out = cache.get(key)
        if out is not None:
            return out
        _, coeff, g, _ = key
        src_basis, tgt_basis = self.hom_basis(*src), self.hom_basis(*tgt)
        row_of = {b.degree: i for i, b in enumerate(tgt_basis)}
        cols = len(src_basis)
        entries = [self.ring.zero] * (len(tgt_basis) * cols)
        coeff = self.ring.canon(coeff)
        for j, f in enumerate(src_basis):
            i = row_of.get(f.degree + g.degree)
            if i is not None:
                entries[i * cols + j] = coeff
        out = cache[key] = Matrix._trusted(self.ring, len(tgt_basis), cols, entries)
        return out

    def arrow_left_mult(self, arrow: Arrow, p) -> Matrix:
        """Left composition by the arrow itself (signs included)."""
        coeff, elt = self.arrow_elt(arrow)
        return self.left_mult_matrix(coeff, elt, p)

    def arrow_right_mult(self, arrow: Arrow, r) -> Matrix:
        coeff, elt = self.arrow_elt(arrow)
        return self.right_mult_matrix(coeff, elt, r)

    def arrow_mult_matrix(self, p: int, q: int, star: bool) -> Matrix:
        """Closed form for left composition by a_q (or a_q*) on the basis
        of Q(p, q) (resp. Q(p, q+1)); double flavor only."""
        if self.flavor != DOUBLE_AN:
            raise UnsupportedFlavor("closed multiplication forms are for the double flavor")
        n, ring = self.n, self.ring
        if not (1 <= p <= n and 1 <= q < n):
            raise InvalidParameter("need 1 <= p <= n and 1 <= q < n")

        def block(rows, cols, fill):
            M = [[ring.zero] * cols for _ in range(rows)]
            fill(M)
            return Matrix(ring, rows, cols, [x for row in M for x in row])

        sign = ring.one if q % 2 == 0 else ring.neg(ring.one)
        low = p + q < n + 1
        if not star:
            if low and p <= q:
                return Matrix.identity(ring, p).scale(sign)
            if low and p > q:
                return block(q + 1, q, lambda M: [M[i + 1].__setitem__(i, sign)
                                                  for i in range(q)])
            if not low and p <= q:
                return block(n - q, n + 1 - q, lambda M: [M[i].__setitem__(i, sign)
                                                          for i in range(n - q)])
            return block(n + 1 - p, n + 1 - p,
                         lambda M: [M[i + 1].__setitem__(i, sign)
                                    for i in range(n - p)])
        if low and p <= q:
            return block(p, p, lambda M: [M[i + 1].__setitem__(i, ring.one)
                                          for i in range(p - 1)])
        if low and p > q:
            return block(q, q + 1, lambda M: [M[i].__setitem__(i, ring.one)
                                              for i in range(q)])
        if not low and p <= q:
            return block(n + 1 - q, n - q, lambda M: [M[i + 1].__setitem__(i, ring.one)
                                                      for i in range(n - q)])
        return Matrix.identity(ring, n + 1 - p)

    # -- pseudo-radical -----------------------------------------------------------------

    def radical_basis(self, p, q, power: int):
        """Basis of r^power(p, q): the degree >= power part of Q(p, q)."""
        if power < 0:
            raise InvalidParameter("radical power must be nonnegative")
        return tuple(b for b in self.hom_basis(p, q) if b.degree >= power)

    def radical_out(self, q, power: int = 1):
        """All radical-basis morphisms with source q, grouped in a stable order."""
        out = []
        for r in self.vertices:
            out.extend(self.radical_basis(q, r, power))
        return tuple(out)

    def radical_in(self, q, power: int = 1):
        out = []
        for p in self.vertices:
            out.extend(self.radical_basis(p, q, power))
        return tuple(out)

    def nilpotency_index(self) -> int:
        """Least N with r^N = 0 (restricted to the window for repetitive)."""
        top = -1
        for p in self.vertices:
            for q in self.vertices:
                basis = self.hom_basis(p, q)
                if basis:
                    top = max(top, basis[-1].degree)
        return top + 1

    # -- Serre functor ---------------------------------------------------------------------

    def serre_object(self, v):
        row, col = self._coords(v)
        return self._vertex(self.n + 1 - row, col, 1 - row)

    def serre_arrow(self, arrow: Arrow):
        """(coefficient, arrow name) for the image of a generator, or None
        when the image leaves the window.

        The image of an arrow s -> t is the arrow S(s) -> S(t); its sign is
        (-1)^r for a_r: r -> r+1 and (-1)^(n-r) for a_r*: r+1 -> r.
        """
        image = self.quiver.arrow_between(self.serre_object(arrow.source),
                                          self.serre_object(arrow.target))
        if image is None:
            return None
        s, t = self._coords(arrow.source)[0], self._coords(arrow.target)[0]
        exp = s if t > s else self.n - t
        coeff = self.ring.one if exp % 2 == 0 else self.ring.neg(self.ring.one)
        return coeff, image.name

    def top_degree(self) -> int:
        return self.nilpotency_index() - 1

    def serre_pairing_matrix(self, p, q, top: int) -> Matrix:
        """Composition pairing Q(p,q) x Q(q, Sigma p) -> k in the top degree
        (``top_degree()``, which the caller computes once)."""
        ring = self.ring
        sp = self.serre_object(p)
        rows = self.hom_basis(p, q)
        cols = self.hom_basis(q, sp)
        entries = []
        for f in rows:
            for g in cols:
                res = self.compose_basis(g, f)
                entries.append(res[0] if res is not None and res[1].degree == top
                               else ring.zero)
        return Matrix(ring, len(rows), len(cols), entries)

    def serre_report(self) -> dict:
        """Build the Serre functor and verify the identities it must satisfy.

        Returns verdicts for: the functor squaring to the identity on
        generators (double flavor), the image of each mesh relation being
        (-1)^n times the mesh relation at the image vertex, invertibility
        of every composition pairing Q(p,q) x Q(q, Sp) -> k, and
        commutativity of every naturality square over every arrow.
        """
        if self.flavor not in (DOUBLE_AN, REPETITIVE_AN):
            raise UnsupportedFlavor(self.flavor)
        ring = self.ring
        arrow_map = {}
        for a in self.quiver.arrows:
            res = self.serre_arrow(a)
            if res is not None:
                coeff, image = res
                arrow_map[a.name] = image if coeff == ring.one else f"-{image}"
        report = {
            "object_map": {format_vertex(v): format_vertex(self.serre_object(v))
                           for v in self.vertices},
            "arrow_map": arrow_map,
            "involution_on_generators": True,
            "mesh_relations_preserved": True,
            "pairings_invertible": True,
            "naturality_squares_commute": True,
            "checked_pairings": 0,
            "checked_squares": 0,
        }

        # (i) involution (double) / compatibility of the object map
        if self.flavor == DOUBLE_AN:
            for a in self.quiver.arrows:
                res = self.serre_arrow(a)
                if res is None:
                    report["involution_on_generators"] = False
                    continue
                c1, image = res
                res2 = self.serre_arrow(self.quiver.arrow(image))
                if res2 is None or res2[1] != a.name \
                        or ring.mul(c1, res2[0]) != ring.one:
                    report["involution_on_generators"] = False

        # (ii) mesh relations: formal identity in the path category
        mesh_sign = ring.one if self.n % 2 == 0 else ring.neg(ring.one)
        for v in self.quiver.interior_vertices():
            target = self.serre_object(v)
            if not self.quiver.has_vertex(target) or not self.quiver.is_interior(target):
                continue
            mesh = self.quiver.mesh_at(v)
            image_terms = []
            ok = True
            for a, sa in zip(mesh.arrows, mesh.paired):
                ra, rsa = self.serre_arrow(a), self.serre_arrow(sa)
                if ra is None or rsa is None:
                    ok = False
                    break
                image_terms.append((ring.mul(ra[0], rsa[0]), (rsa[1], ra[1])))
            if not ok:
                continue
            target_mesh = self.quiver.mesh_at(target)
            expected = {(sa.name, a.name): mesh_sign
                        for a, sa in zip(target_mesh.arrows, target_mesh.paired)}
            got = {word: c for c, word in image_terms}
            if got != expected:
                report["mesh_relations_preserved"] = False

        # (iii) pairing matrices from dual bases
        top = self.top_degree()
        for p in self.vertices:
            sp = self.serre_object(p)
            if not self.quiver.has_vertex(sp):
                continue
            for q in self.vertices:
                P = self.serre_pairing_matrix(p, q, top)
                if P.rows == 0 and P.cols == 0:
                    continue
                report["checked_pairings"] += 1
                if not matrix_is_invertible(P):
                    report["pairings_invertible"] = False

        # (iv) naturality squares in both variables
        def dual_eval(f_coeff, f_elt, g_coeff, g_elt):
            """theta(f)(g) for the dual-basis Serre map theta."""
            if f_elt is None or g_elt is None:
                return ring.zero
            if g_elt.degree == top - f_elt.degree:
                return ring.mul(f_coeff, g_coeff)
            return ring.zero

        for p in self.vertices:
            sp = self.serre_object(p)
            if not self.quiver.has_vertex(sp):
                continue
            for beta in self.quiver.arrows:
                qa, qb = beta.source, beta.target
                cb, eb = self.arrow_elt(beta)
                for f in self.hom_basis(p, qa):
                    bf = self.compose_basis(eb, f)
                    for g in self.hom_basis(qb, sp):
                        gb = self.compose_basis(g, eb)
                        lhs = ring.zero
                        if bf is not None:
                            lhs = dual_eval(ring.mul(cb, bf[0]), bf[1], ring.one, g)
                        rhs = ring.zero
                        if gb is not None:
                            rhs = dual_eval(ring.one, f, ring.mul(cb, gb[0]), gb[1])
                        report["checked_squares"] += 1
                        if lhs != rhs:
                            report["naturality_squares_commute"] = False

        # ... and in the source variable: theta(f∘beta)(g) = theta(f)(S(beta)∘g)
        for q in self.vertices:
            for beta in self.quiver.arrows:
                pa, pb = beta.source, beta.target
                spa = self.serre_object(pa)
                if not self.quiver.has_vertex(spa):
                    continue
                sb = self.serre_arrow(beta)
                if sb is None:
                    continue
                c_sb, sb_arrow = sb
                c_se, se = self.arrow_elt(self.quiver.arrow(sb_arrow))
                cb, eb = self.arrow_elt(beta)
                for f in self.hom_basis(pb, q):
                    fb = self.compose_basis(f, eb)
                    for g in self.hom_basis(q, spa):
                        sg = self.compose_basis(se, g)
                        lhs = ring.zero
                        if fb is not None:
                            lhs = dual_eval(ring.mul(cb, fb[0]), fb[1], ring.one, g)
                        rhs = ring.zero
                        if sg is not None:
                            rhs = dual_eval(ring.one, f,
                                            ring.mul(c_sb, ring.mul(c_se, sg[0])),
                                            sg[1])
                        report["checked_squares"] += 1
                        if lhs != rhs:
                            report["naturality_squares_commute"] = False
        report["ok"] = all(report[k] for k in
                           ("involution_on_generators", "mesh_relations_preserved",
                            "pairings_invertible", "naturality_squares_commute"))
        return report

    # -- brute-force oracle -------------------------------------------------------------------

    def _paths_from(self, p, max_len: int):
        """paths[l] = list of arrow-name tuples of length l starting at p."""
        paths = [[((), p)]]
        for _ in range(max_len):
            nxt = []
            for word, end in paths[-1]:
                for a in self.quiver.arrows_out_of(end):
                    nxt.append((word + (a.name,), a.target))
            paths.append(nxt)
        return paths

    def hom_basis_oracle(self, p, q, max_len: int | None = None) -> dict:
        """Graded dimension table computed from scratch.

        Enumerates all paths p -> q of each length up to max_len, imposes
        every degree-homogeneous mesh-ideal relation (mesh relations pre-
        and post-composed with paths), and reduces.  Each such relation
        involves at most two paths, so the reduction is an exact
        sign-tracking union-find; any 2-torsion suspicion falls back to a
        full presented-module normal form over the ring.
        """
        if max_len is None:
            max_len = 2 * self.n
        cache = {}

        def paths_from(v):
            if v not in cache:
                cache[v] = self._paths_from(v, max_len)
            return cache[v]

        from_p = paths_from(p)
        meshes = [self.quiver.mesh_at(r) for r in self.quiver.interior_vertices()]
        table = {}
        for l in range(max_len + 1):
            paths = [w for w, end in from_p[l] if end == q]
            if not paths:
                table[l] = 0
                continue
            index = {w: k for k, w in enumerate(paths)}
            relations = set()
            for mesh in meshes:
                mids = [(sa.name, a.name) for a, sa in zip(mesh.arrows, mesh.paired)]
                for l1 in range(l - 1):
                    l2 = l - 2 - l1
                    ys = [w for w, end in from_p[l1] if end == mesh.tau_vertex]
                    if not ys:
                        continue
                    xs = [w for w, end in paths_from(mesh.vertex)[l2] if end == q]
                    for y in ys:
                        for x in xs:
                            rel = tuple(sorted(index[y + m + x] for m in mids))
                            relations.add(rel)
            table[l] = self._reduce_sparse(paths, relations, index, l, p, q)
        return table

    def _reduce_sparse(self, paths, relations, index, l, p, q):
        """Rank of span(paths)/span(relations); relations have <= 2 terms."""
        parent = list(range(len(paths)))
        rel_sign = [1] * len(paths)  # sign relative to the root
        zero = [False] * len(paths)
        conflict = False

        def find(x):
            if parent[x] == x:
                return x, 1
            root, s = find(parent[x])
            parent[x] = root
            rel_sign[x] *= s
            return root, rel_sign[x]

        for rel in relations:
            if len(rel) == 1:
                r, _ = find(rel[0])
                zero[r] = True
            else:
                a, b = rel
                ra, sa = find(a)
                rb, sb = find(b)
                if ra == rb:
                    if sa != -sb:  # expected pi_a = -pi_b; same sign means 2x = 0
                        conflict = True
                else:
                    parent[ra] = rb
                    rel_sign[ra] = -sa * sb
                    zero[rb] = zero[rb] or zero[ra]
        if conflict:
            return self._reduce_generic(paths, relations, l)
        roots = set()
        for k in range(len(paths)):
            r, _ = find(k)
            if not zero[r]:
                roots.add(r)
        return len(roots)

    def _reduce_generic(self, paths, relations, l):
        """Full normal-form reduction over the ring (rarely needed)."""
        ring = self.ring
        cols = []
        for rel in relations:
            v = [ring.zero] * len(paths)
            for idx in rel:
                v[idx] = ring.add(v[idx], ring.one)
            cols.append(v)
        relmat = Matrix(ring, len(paths), len(cols),
                        [cols[j][i] for i in range(len(paths)) for j in range(len(cols))])
        module = PresentedModule(ring, len(paths), relmat)
        nf = module.normal_form()
        if nf.torsion:
            raise UnsupportedRing(
                f"graded piece of length {l} is not free: {module.describe()}")
        return nf.free_rank
    # sign conventions between paths do not matter for the rank: the
    # two-term relations identify paths up to sign, so the count of
    # surviving classes is the free rank either way.

    def oracle_hom_rank(self, p, q, max_len: int | None = None) -> int:
        return sum(self.hom_basis_oracle(p, q, max_len).values())

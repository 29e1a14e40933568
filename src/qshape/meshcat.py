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
Riedtmann's covering ZA_n -> ZA_n / tau read on hom spaces.  The
rectangle, stated in ``hom_basis`` only, is also the support rule: as
0 <= v <= n - 1, Q(p, -) lives in the n columns ending at p's and Q(-, q)
in the n columns starting at q's.  ``hom_targets``/``hom_sources`` filter
those bands, and every scan over pairs reads them.

The class also carries the Serre functor and an oracle that recomputes
all graded dimensions from scratch by degree-by-degree mesh quotients,
reading only the quiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (EndpointMismatch, InvalidParameter, UnsupportedFlavor,
                     UnsupportedRing)
from .exactalg import (Matrix, PresentedModule, kernel_basis,
                       matrix_is_invertible, smith_normal_form)
from .exactalg.rings import BaseRing
from .quiver import (DOUBLE_AN, REPETITIVE_AN, Arrow, StableTranslationQuiver,
                     format_vertex, vertex_at)


@dataclass(frozen=True)
class BasisElement:
    """The signed path spanning Q^degree(source, target)."""
    source: object
    target: object
    degree: int


class MeshCategory:
    """Hom bases, composition, the nilpotency index, and Serre data."""

    def __init__(self, quiver: StableTranslationQuiver, ring: BaseRing):
        self.quiver = quiver
        self.ring = ring
        self.n = quiver.n
        self._coords = quiver.coords  # (row, column); its inverse is vertex_at
        self._hom_cache: dict = {}
        self._left_mult_cache: dict = {}
        self._right_mult_cache: dict = {}
        # homology.resolve_stalk's resolutions per (vertex, side), and its
        # one homology._Side per side
        self._resolution_cache: dict = {}
        self._side_cache: dict = {}

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

    # -- graded dimensions ----------------------------------------------------

    def d(self, p, q) -> int:
        """Total rank of Q(p, q)."""
        return len(self.hom_basis(p, q))

    def hom_basis(self, p, q):
        """Ordered basis of Q(p, q), by ascending degree: one element per
        descent count v in the Serre rectangle, in degree (q - p) + 2v.
        Only nonempty bases are cached: an empty one is cheaper to redo."""
        key = (p, q)
        basis = self._hom_cache.get(key)
        if basis is None:
            (pr, pc), (qr, qc) = self._coords(p), self._coords(q)
            # max(0, p - q) <= v <= min(p - 1, n - q), by rows; max/min are slow
            low = pr - qr if pr > qr else 0
            high = pr - 1 if pr + qr <= self.n + 1 else self.n - qr
            if pc is not None:  # a column pins v
                if not low <= pc - qc <= high:
                    return ()
                low = high = pc - qc
            basis = self._hom_cache[key] = tuple(
                BasisElement(p, q, qr - pr + 2 * v) for v in range(low, high + 1))
        return basis

    def hom_targets(self, p):
        """The q with Q(p, q) != 0, in vertex order."""
        return tuple(q for q in self.quiver.band(self._coords(p)[1], 1 - self.n, 0)
                     if self.hom_basis(p, q))

    def hom_sources(self, q):
        """The p with Q(p, q) != 0, in vertex order."""
        return tuple(p for p in self.quiver.band(self._coords(q)[1], 0, self.n - 1)
                     if self.hom_basis(p, q))

    # -- composition -------------------------------------------------------------

    def compose_basis(self, g: BasisElement, f: BasisElement):
        """g ∘ f as (coefficient, BasisElement) or None when it vanishes."""
        if f.target != g.source:
            raise EndpointMismatch(
                f"cannot compose {g} after {f}")
        degree = f.degree + g.degree
        for b in self.hom_basis(f.source, g.target):
            if b.degree == degree:
                return (self.ring.one, b)
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
                nxt = vertex_at(row - k, col, -k)
            else:
                up_from = row - 2 * down + k - 1
                nxt = vertex_at(up_from + 1, col, -down)
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
        from the basis of Q(src) to that of Q(tgt): the one entry rule
        (_mult_entries) in its plain orientation, kept per key; cofree
        arrows read the same rule transposed (arrow_right_mult_dual).  An
        inexact coeff (a float, a bool, a non-integral Fraction over Z or
        Z/m) raises InvalidParameter, as the Matrix constructor does, even
        on a warm cache where 1 is stored (1.0 and True hash like 1)."""
        side, coeff, g, vertex = key
        coeff = self.ring.element(coeff)
        key = (side, coeff, g, vertex)
        out = cache.get(key)
        if out is None:
            out = cache[key] = self._mult_entries(coeff, g, src, tgt)
        return out

    def _mult_entries(self, coeff, g: BasisElement, src, tgt,
                      transpose: bool = False) -> Matrix:
        """The one entry rule of composition with coeff * g, from the basis
        of Q(src) to that of Q(tgt): structure constants are 0 or 1, so f
        goes to coeff times the element of degree deg f + deg g.  Laid out
        as that matrix, or, with transpose, as its transpose, written
        directly; coeff must already be a ring element."""
        src_basis, tgt_basis = self.hom_basis(*src), self.hom_basis(*tgt)
        row_of = {b.degree: i for i, b in enumerate(tgt_basis)}
        rows, cols = len(tgt_basis), len(src_basis)
        entries = [self.ring.zero] * (rows * cols)
        # entry (i, j) sits at i * cols + j, and at j * rows + i transposed
        di, dj = (1, rows) if transpose else (cols, 1)
        for j, f in enumerate(src_basis):
            i = row_of.get(f.degree + g.degree)
            if i is not None:
                entries[i * di + j * dj] = coeff
        if transpose:
            rows, cols = cols, rows
        return Matrix._trusted(self.ring, rows, cols, entries)

    def arrow_left_mult(self, arrow: Arrow, p) -> Matrix:
        """Left composition by the arrow itself (signs included)."""
        coeff, elt = self.arrow_elt(arrow)
        return self.left_mult_matrix(coeff, elt, p)

    def arrow_right_mult(self, arrow: Arrow, r) -> Matrix:
        coeff, elt = self.arrow_elt(arrow)
        return self.right_mult_matrix(coeff, elt, r)

    def arrow_right_mult_dual(self, arrow: Arrow, r) -> Matrix:
        """The transpose of arrow_right_mult(arrow, r), Q(source, r)* ->
        Q(target, r)* on dual bases, written directly and not kept."""
        coeff, elt = self.arrow_elt(arrow)
        return self._mult_entries(coeff, elt, (arrow.target, r),
                                  (arrow.source, r), transpose=True)

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

    def nilpotency_index(self) -> int:
        """Least N with r^N = 0, in any window: degrees u + v stay <= n - 1
        in the Serre rectangle, and 1 -> n (or (1, i) -> (n, i)) reaches it."""
        return self.n

    # -- Serre functor ---------------------------------------------------------------------

    def serre_object(self, v):
        row, col = self._coords(v)
        return vertex_at(self.n + 1 - row, col, 1 - row)

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

    def serre_pairing_matrix(self, p, q) -> Matrix:
        """Composition pairing Q(p,q) x Q(q, Sigma p) -> k in the top degree."""
        ring, top = self.ring, self.top_degree()
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
        of every nonzero composition pairing Q(p,q) x Q(q, Sp) -> k, and
        commutativity of every nonzero naturality square over every arrow.
        Every check reads one table of arrow images, each computed once.
        """
        if self.flavor not in (DOUBLE_AN, REPETITIVE_AN):
            raise UnsupportedFlavor(self.flavor)
        ring, top, zero = self.ring, self.top_degree(), self.ring.zero
        images = {a.name: self.serre_arrow(a) for a in self.quiver.arrows}
        report = {
            "object_map": {format_vertex(v): format_vertex(self.serre_object(v))
                           for v in self.vertices},
            "arrow_map": {name: res[1] if res[0] == ring.one else f"-{res[1]}"
                          for name, res in images.items() if res is not None},
            "involution_on_generators": True,
            "mesh_relations_preserved": True,
            "pairings_invertible": True,
            "naturality_squares_commute": True,
            "checked_pairings": 0,
            "checked_squares": 0,
        }

        # (i) involution (double) / compatibility of the object map
        if self.flavor == DOUBLE_AN:
            for name, res in images.items():
                back = res and images[res[1]]
                if not back or back[1] != name or ring.mul(res[0], back[0]) != ring.one:
                    report["involution_on_generators"] = False

        # (ii) mesh relations: formal identity in the path category
        mesh_sign = ring.one if self.n % 2 == 0 else ring.neg(ring.one)
        for v in self.quiver.interior_vertices():
            target = self.serre_object(v)
            if not self.quiver.is_interior(target):  # so S(v) is in the window
                continue
            mesh, target_mesh = self.quiver.mesh_at(v), self.quiver.mesh_at(target)
            arms = [(images[a.name], images[sa.name])
                    for a, sa in zip(mesh.arrows, mesh.paired)]
            if any(ra is None or rsa is None for ra, rsa in arms):
                continue
            got = {(rsa[1], ra[1]): ring.mul(ra[0], rsa[0]) for ra, rsa in arms}
            expected = {(sa.name, a.name): mesh_sign
                        for a, sa in zip(target_mesh.arrows, target_mesh.paired)}
            if got != expected:
                report["mesh_relations_preserved"] = False

        # (iii) pairing matrices from dual bases, for the p with S(p) in the window
        targets = {p: self.hom_targets(p) for p in self.vertices
                   if self.quiver.has_vertex(self.serre_object(p))}
        for p, qs in targets.items():
            for q in qs:
                report["checked_pairings"] += 1
                if not matrix_is_invertible(self.serre_pairing_matrix(p, q)):
                    report["pairings_invertible"] = False

        # (iv) naturality squares in both variables
        def squares(fs, gs, cl, left, cr, right):
            """theta(cl left(f))(g) = theta(f)(cr right(g)) for the dual-basis
            Serre map theta: theta(c h)(k) is c in the top degree, else 0.  left
            and right give (coefficient, BasisElement) or None, once per f or g."""
            if not (fs and gs):
                return
            report["checked_squares"] += len(fs) * len(gs)
            lefts = [(f.degree, left(f)) for f in fs]
            rights = [(g.degree, right(g)) for g in gs]
            for (fd, lf), (gd, rg) in product(lefts, rights):
                lhs = ring.mul(cl, lf[0]) if lf and lf[1].degree + gd == top else zero
                rhs = ring.mul(cr, rg[0]) if rg and rg[1].degree + fd == top else zero
                if lhs != rhs:
                    report["naturality_squares_commute"] = False

        # theta(beta∘f)(g) = theta(f)(g∘beta) over the arrows beta out of Q(p, -)
        elt = {a.name: self.arrow_elt(a) for a in self.quiver.arrows}
        for p, qs in targets.items():
            sp = self.serre_object(p)
            for beta in (b for qa in qs for b in self.quiver.arrows_out_of(qa)):
                cb, eb = elt[beta.name]
                squares(self.hom_basis(p, beta.source), self.hom_basis(beta.target, sp),
                        cb, lambda f: self.compose_basis(eb, f),
                        cb, lambda g: self.compose_basis(g, eb))

        # and theta(f∘beta)(g) = theta(f)(S(beta)∘g) where S(beta) is in the window
        for q in self.vertices:
            for beta in (b for pb in self.hom_sources(q)
                         for b in self.quiver.arrows_into(pb) if images[b.name]):
                (c, image), (cb, eb) = images[beta.name], elt[beta.name]
                c_se, se = elt[image]  # S(beta) is c · c_se · se
                squares(self.hom_basis(beta.target, q), self.hom_basis(q, se.source),
                        cb, lambda f: self.compose_basis(f, eb),
                        ring.mul(c, c_se), lambda g: self.compose_basis(se, g))
        report["ok"] = all(v for v in report.values() if isinstance(v, bool))
        return report

    # -- graded-dimension oracle ----------------------------------------------------------

    def hom_basis_oracle(self, p, max_len: int | None = None) -> dict:
        """Graded dimension tables {q: {l: rank of Q^l(p, q)}} from scratch
        for l <= max_len (default 2n), holding the nonzero ranks only.

        Degree-by-degree mesh quotients: A_l(p, r), the degree-l paths
        p -> r modulo the mesh ideal, is the direct sum of A_{l-1}(p, s)
        over the arrows b: s -> r, modulo the image of the mesh map

            A_{l-2}(p, tau r) -> (+)_b A_{l-1}(p, s),  u |-> (u sigma(b))_b

        with every coefficient +1, imposed at interior r only.  Each
        A_l(p, r) is kept as a free module together with the matrices of
        right composition by the arrows into r, so a step with a mesh term
        takes one elimination of one small matrix over the ring (a piece
        with torsion raises UnsupportedRing).  Only quiver data
        is read (never ``hom_basis``), so the tables are an independent
        check of the closed forms, and only vertices reached by an arrow
        from the previous degree are visited.
        """
        if max_len is None:
            max_len = 2 * self.n
        quiver, ring = self.quiver, self.ring
        table = {p: {0: 1}}
        before, ranks = {}, {p: 1}  # nonzero ranks in degrees l - 2, l - 1
        via = {}  # arrow name -> right composition A_{l-1}(p, s) -> A_l(p, r)
        for l in range(1, max_len + 1):
            targets = dict.fromkeys(a.target for s in ranks
                                    for a in quiver.arrows_out_of(s))
            new_ranks, new_via = {}, {}
            for r in targets:
                into = [b for b in quiver.arrows_into(r) if b.source in ranks]
                size = sum(ranks[b.source] for b in into)
                if quiver.is_interior(r) and quiver.tau(r) in before:
                    mesh = Matrix.vstack(via[quiver.sigma(b).name] for b in into)
                    # the functionals vanishing on the mesh image identify the
                    # quotient with ring^rank: over a field, which has no
                    # torsion, the kernel of the transpose; over Z and Z/p^k,
                    # the rows of U past the rank for U·mesh·V = S, and a
                    # non-unit on the diagonal of S is torsion
                    if ring.is_field:
                        proj = kernel_basis(mesh.transpose()).transpose()
                    else:
                        S, U, _ = smith_normal_form(mesh)
                        diagonal = [S[i, i] for i in range(min(size, S.cols)) if S[i, i]]
                        if any(d != 1 for d in diagonal):
                            raise UnsupportedRing(
                                f"Q^{l}({format_vertex(p)}, {format_vertex(r)}) is not "
                                f"free: {PresentedModule(ring, size, mesh).describe()}")
                        proj = U.take_rows(range(len(diagonal), size))
                    if not proj.rows:
                        continue
                else:
                    proj = Matrix.identity(ring, size)
                new_ranks[r] = table.setdefault(r, {})[l] = proj.rows
                offset = 0
                for b in into:
                    width = ranks[b.source]
                    new_via[b.name] = proj.take_columns(range(offset, offset + width))
                    offset += width
            before, ranks, via = ranks, new_ranks, new_via
            if not ranks:
                break
        return table

    def oracle_hom_rank(self, p, q, max_len: int | None = None) -> int:
        return sum(self.hom_basis_oracle(p, max_len).get(q, {}).values())

"""Finitely presented modules and maps between them.

A PresentedModule is R^g modulo the column span of a relation matrix
(g rows).  Its isomorphism class is captured by the invariant-factor
normal form:

* over a field: the dimension,
* over Z: free rank plus invariant factors d1 | d2 | ... with di >= 2,
* over Z/p^k: free rank (copies of Z/p^k) plus factors p^e with e < k.

Two presented modules over the same supported ring are isomorphic
exactly when their normal forms agree.
"""

from __future__ import annotations

from ..errors import InvalidParameter, NotWellDefined
from .matrix import Matrix
from .rings import INTEGERS, BaseRing
from .smith import invariant_factors, kernel_basis, solve_matrix


class NormalForm:
    """Invariant-factor data: free rank and torsion factors (divisibility order)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion=()):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def __eq__(self, other):
        return (isinstance(other, NormalForm)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self):
        return not self.torsion

    def describe(self, ring: BaseRing) -> str:
        """Human-readable shape, e.g. 'Z/2 + Z' or 'Q^3' or '0'."""
        if self.is_zero:
            return "0"
        name = ring.kind if ring.modulus is None else f"Z/{ring.modulus}"
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append(name)
        elif self.free_rank > 1:
            power = name if ring.modulus is None else f"({name})"
            parts.append(f"{power}^{self.free_rank}")
        return " + ".join(parts)


class PresentedModule:
    """R^generators modulo the columns of ``relations``."""

    __slots__ = ("ring", "generators", "relations", "_normal_form")

    def __init__(self, ring: BaseRing, generators: int, relations: Matrix | None = None):
        if relations is None:
            relations = Matrix.zeros(ring, generators, 0)
        if relations.ring != ring or relations.rows != generators:
            raise InvalidParameter("relations must have one row per generator")
        self.ring = ring
        self.generators = generators
        self.relations = relations
        self._normal_form = None

    @staticmethod
    def free(ring: BaseRing, rank: int) -> "PresentedModule":
        return PresentedModule(ring, rank)

    def __repr__(self):
        return f"PresentedModule({self.describe()!r} over {self.ring!r})"

    # -- normal form --------------------------------------------------------

    def normal_form(self) -> NormalForm:
        """Computed lazily and cached; the cache write is idempotent.  Each
        invariant factor of the relations kills a generator, and those
        that are not 1 are the torsion factors."""
        if self._normal_form is not None:
            return self._normal_form
        if not self.generators:  # 0 whatever its relations, with no elimination
            nf = NormalForm(0)
        else:
            factors = invariant_factors(self.relations)
            nf = NormalForm(self.generators - len(factors),
                            [d for d in factors if d != 1])
        self._normal_form = nf
        return nf

    def describe(self) -> str:
        return self.normal_form().describe(self.ring)

    @property
    def is_zero(self) -> bool:
        return self.normal_form().is_zero

    def vanishes(self, vectors: Matrix) -> bool:
        """Whether every column of ``vectors`` is zero in the module.  This
        module maps onto R^g / [relations | vectors], and a surjection
        between modules of one normal form is injective (``is_isomorphism``),
        so the vectors vanish exactly when adding them as relations leaves
        the normal form unchanged.  A zero matrix vanishes with no
        elimination."""
        if vectors.is_zero:
            return True
        grown = PresentedModule(self.ring, self.generators,
                                Matrix.hstack([self.relations, vectors]))
        return grown.normal_form() == self.normal_form()

    def isomorphic(self, other: "PresentedModule") -> bool:
        return self.ring == other.ring and self.normal_form() == other.normal_form()

    # -- predicates decided by the normal form ---------------------------------

    def is_projective(self) -> bool:
        """Free: every module over a field, sums of Z over Z and of Z/p^k
        over Z/p^k."""
        return self.normal_form().is_free

    def is_injective(self) -> bool:
        """Z: only 0.  Fields and Z/p^k: free (the ring is self-injective)."""
        if self.ring.kind == INTEGERS:
            return self.is_zero
        return self.normal_form().is_free

    # -- constructions -----------------------------------------------------------

    def pruned(self):
        """(module, projection, kept): an isomorphic module on fewer
        generators, by Tietze moves on unit pivots (Macaulay2's ``prune``).

        Each step takes the first relation column, in column order, with a
        unit entry u, at its first such row i: nonzero over a field, ±1 over
        Z, prime to p over Z/p^k.  That relation reads
        e_i = -u⁻¹ Σ_{k≠i} r_k e_k, so e_i is redundant.  Substituting it is
        one row operation per row on the relations, after which column j
        is zero; row i and every zero column are dropped.  The same row
        operations on the identity give ``projection``, the isomorphism
        onto the pruned module, and the pruned generators are those of the
        module at ``kept``: the way back is that column selection, which
        composed with ``projection`` is the identity on the pruned module
        and differs from the identity here by elements of the relation
        span.  Zero columns, relations that say nothing, are dropped before
        the first step too.  The loop ends when no column has a unit entry;
        over a field no relation remains.  Over Z the pivots are ±1, so
        every entry is a minor of the relations up to sign and stays within
        Hadamard's bound.  The normal form, cached or not, is inherited.  A
        module whose relations have no unit entry and no zero column is
        returned as itself.
        """
        ring, g, m = self.ring, self.generators, self.ring.modulus
        is_unit = ring.is_unit
        R = self.relations
        rel = [list(R.row(i)) for i in range(g)]
        proj = [[ring.one if i == k else ring.zero for k in range(g)]
                for i in range(g)]
        kept = list(range(g))
        cols = R.cols
        while True:
            live = [k for k in range(cols) if any(row[k] for row in rel)]
            if len(live) < cols:
                rel = [[row[k] for k in live] for row in rel]
                cols = len(live)
            pivot = next(((i, j) for j in range(cols)
                          for i in range(len(rel)) if is_unit(rel[i][j])), None)
            if pivot is None:
                break
            i, j = pivot
            inv = ring.inv(rel[i][j])
            top, top_proj = rel.pop(i), proj.pop(i)
            del kept[i]
            for row, prow in zip(rel, proj):
                if row[j]:
                    c = row[j] * inv
                    row[:] = [a - c * b for a, b in zip(row, top)]
                    prow[:] = [a - c * b for a, b in zip(prow, top_proj)]
                    if m is not None:
                        row[:] = [a % m for a in row]
                        prow[:] = [a % m for a in prow]
        if cols == R.cols:  # no step was taken and no column dropped
            return self, Matrix.identity(ring, g), tuple(kept)
        n = len(kept)
        out = PresentedModule(ring, n, Matrix._trusted(
            ring, n, cols, [x for row in rel for x in row]))
        out._normal_form = self._normal_form
        return out, Matrix._trusted(ring, n, g, [x for row in proj for x in row]), \
            tuple(kept)

    def direct_sum(self, *others: "PresentedModule") -> "PresentedModule":
        """self ⊕ others[0] ⊕ ..., with one block-diagonal relation matrix."""
        summands = (self, *others)
        if any(m.ring != self.ring for m in others):
            raise InvalidParameter("ring mismatch")
        rel = Matrix.block_diag(self.ring, [m.relations for m in summands])
        return PresentedModule(self.ring, sum(m.generators for m in summands), rel)


class ModuleMap:
    """A map of presented modules, given by a matrix on generators.

    Well-definedness (the matrix carries source relations into the span
    of target relations) is checked at construction time.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedModule, target: PresentedModule,
                 matrix: Matrix, check: bool = True):
        if matrix.rows != target.generators or matrix.cols != source.generators:
            raise InvalidParameter("matrix shape does not match modules")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and source.relations.cols:
            if not target.vanishes(matrix * source.relations):
                raise NotWellDefined("source relations do not map into target relations")

    @staticmethod
    def zero(source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        return ModuleMap(source, target,
                         Matrix.zeros(source.ring, target.generators,
                                      source.generators), check=False)

    @staticmethod
    def identity(module: PresentedModule) -> "ModuleMap":
        return ModuleMap(module, module,
                         Matrix.identity(module.ring, module.generators),
                         check=False)

    # -- kernel / cokernel ----------------------------------------------------

    def kernel(self):
        """(K, incl) with K a presented module and incl: K gens -> source
        gens: the middle homology of 0 -> source -> target."""
        h = middle_homology(ModuleMap.zero(PresentedModule.free(self.source.ring, 0),
                                           self.source), self)
        return h.module, h.cycle_gens

    def cokernel(self) -> PresentedModule:
        rel = Matrix.hstack([self.matrix, self.target.relations])
        return PresentedModule(self.target.ring, self.target.generators, rel)

    def is_isomorphism(self) -> bool:
        """Onto between modules of one normal form: a surjective endomorphism
        of a finitely generated module is injective (Vasconcelos 1969;
        Matsumura, Commutative Ring Theory, Thm 2.4), so no kernel is built."""
        return self.source.isomorphic(self.target) and self.cokernel().is_zero


# ---------------------------------------------------------------------------
# subquotient plumbing
# ---------------------------------------------------------------------------

def preimage_generators(big: Matrix, target_relations: Matrix) -> Matrix:
    """Columns generating {x : big*x lies in the span of target_relations}."""
    if target_relations.cols == 0:
        return kernel_basis(big)
    stacked = Matrix.hstack([big, target_relations])
    ker = kernel_basis(stacked)
    return ker.take_rows(range(big.cols))


def coordinates_mod(gens: Matrix, relations: Matrix, vectors: Matrix) -> Matrix | None:
    """Express each column of ``vectors`` as gens*c modulo the relation span.

    Returns the coefficient matrix c (one column per input column), or None
    when some column is not expressible.
    """
    if relations.cols == 0:
        return solve_matrix(gens, vectors)
    stacked = Matrix.hstack([gens, relations])
    sol = solve_matrix(stacked, vectors)
    if sol is None:
        return None
    return sol.take_rows(range(gens.cols))


class HomologyData:
    """Middle homology of A --f--> B --g--> C together with cycle coordinates."""

    __slots__ = ("module", "cycle_gens", "ambient")

    def __init__(self, module: PresentedModule, cycle_gens: Matrix,
                 ambient: PresentedModule):
        self.module = module
        self.cycle_gens = cycle_gens  # columns in the generators of B
        self.ambient = ambient        # B itself


def middle_homology(f: ModuleMap, g: ModuleMap) -> HomologyData:
    """ker(g)/im(f) as a presented module.

    When C has no relations the cycles are ker g itself, and one
    elimination of g, kernel_basis(g, modulo=[f | rel_B]), gives both its
    generators incl and the coordinates on them of f and rel_B, which
    must lie in ker g; those coordinates, with an annihilator per
    torsion generator over Z/p^k, are the relations.  Otherwise, in two
    eliminations, incl generates {b : g·b ∈ rel_C} and the relations
    generate {c : incl·c ∈ im f + rel_B}, one preimage each.  Either way
    the relations span {c : incl·c ∈ im f + rel_B}, and with C free incl
    is kernel_basis(g) on both, so the group does not depend on the route.

    When B or C has no generators every element of B is a cycle: the
    group is B modulo [f | rel_B], f.cokernel(), with the identity as its
    cycle generators and no elimination; when f is zero too, as it is when
    B has none and the group is 0, it is B itself, whose normal form, once
    computed, is not computed again.

    g∘f must vanish in C; NotWellDefined is raised when it does not,
    read off kernel_basis's rows on the one-elimination route, and also
    when g does not kill rel_B there.
    """
    B, C = f.target, g.target
    ring = B.ring
    if C.generators == 0 or B.generators == 0:
        H = B if f.matrix.is_zero else f.cokernel()
        return HomologyData(H, Matrix.identity(ring, B.generators), B)
    boundaries = Matrix.hstack([f.matrix, B.relations])
    if C.relations.cols:
        if not C.vanishes(g.matrix * f.matrix):
            raise NotWellDefined("image of f does not lie in the kernel of g")
        incl = preimage_generators(g.matrix, C.relations)
        rel = preimage_generators(incl, boundaries)
    else:  # kernel_basis checks that g·f and g·rel_B are 0 on its own rows
        incl, rel = kernel_basis(g.matrix, modulo=boundaries)
    return HomologyData(PresentedModule(ring, incl.cols, rel), incl, B)


def induced_on_homology(hx: HomologyData, hy: HomologyData,
                        phi_matrix: Matrix) -> ModuleMap:
    """Map on middle homology induced by a square-commuting phi on the middles."""
    image = phi_matrix * hx.cycle_gens
    coords = coordinates_mod(hy.cycle_gens, hy.ambient.relations, image)
    if coords is None:
        raise NotWellDefined("phi does not preserve cycles")
    return ModuleMap(hx.module, hy.module, coords)

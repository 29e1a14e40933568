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

from itertools import product

from ..errors import InvalidParameter, NotWellDefined
from .matrix import Matrix
from .rings import INTEGERS, INTEGERS_MOD, BaseRing
from .smith import (field_rank, kernel_basis, smith_normal_form, solve,
                    solve_matrix)


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

    @staticmethod
    def cyclic(ring: BaseRing, d) -> "PresentedModule":
        return PresentedModule(ring, 1, Matrix(ring, 1, 1, [d]))

    @staticmethod
    def from_invariant_factors(ring: BaseRing, factors) -> "PresentedModule":
        """Module ⊕ R/(d) for the listed d (0 giving a free summand)."""
        factors = [ring.canon(d) for d in factors]
        rel = Matrix(ring, len(factors), len(factors),
                     [factors[i] if i == j else ring.zero
                      for i in range(len(factors)) for j in range(len(factors))])
        return PresentedModule(ring, len(factors), rel)

    def __repr__(self):
        return f"PresentedModule({self.describe()!r} over {self.ring!r})"

    # -- normal form --------------------------------------------------------

    def normal_form(self) -> NormalForm:
        """Computed lazily and cached; the cache write is idempotent."""
        if self._normal_form is not None:
            return self._normal_form
        ring = self.ring
        if ring.is_field:
            nf = NormalForm(self.generators - field_rank(self.relations))
        else:
            # Z and Z/p^k: every nonzero diagonal entry kills a generator,
            # and the non-units among them (a unit comes out as 1) are the
            # torsion factors
            S, _, _ = smith_normal_form(self.relations)
            diag = [S[i, i] for i in range(min(S.rows, S.cols))]
            nonzero = [d for d in diag if d != 0]
            nf = NormalForm(self.generators - len(nonzero),
                            sorted(d for d in nonzero if d != 1))
        self._normal_form = nf
        return nf

    def describe(self) -> str:
        return self.normal_form().describe(self.ring)

    @property
    def is_zero(self) -> bool:
        return self.normal_form().is_zero

    def vanishes(self, vectors: Matrix) -> bool:
        """Whether every column of ``vectors`` is zero in the module."""
        return solve_matrix(self.relations, vectors) is not None

    def isomorphic(self, other: "PresentedModule") -> bool:
        return self.ring == other.ring and self.normal_form() == other.normal_form()

    # -- predicates decided by the normal form ---------------------------------

    def is_projective(self) -> bool:
        """Fields: always.  Z: free.  Z/p^k: free (sums of Z/p^k)."""
        if self.ring.is_field:
            return True
        return self.normal_form().is_free

    def is_injective(self) -> bool:
        """Fields: always.  Z: only 0.  Z/p^k: free (the ring is self-injective)."""
        if self.ring.is_field:
            return True
        if self.ring.kind == INTEGERS:
            return self.is_zero
        return self.normal_form().is_free

    # -- constructions -----------------------------------------------------------

    def direct_sum(self, other: "PresentedModule") -> "PresentedModule":
        if self.ring != other.ring:
            raise InvalidParameter("ring mismatch")
        rel = Matrix.block_diag(self.ring, [self.relations, other.relations])
        return PresentedModule(self.ring, self.generators + other.generators, rel)

    # -- brute force over finite rings -------------------------------------------

    def elements(self):
        """All cosets as canonical tuples; finite modular rings only."""
        ring = self.ring
        if ring.kind != INTEGERS_MOD:
            raise InvalidParameter("element enumeration needs a finite ring")
        m = ring.modulus
        span = {(0,) * self.generators}
        frontier = list(span)
        cols = self.relations.columns()
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
        for v in product(range(m), repeat=self.generators):
            if v in seen:
                continue
            coset = {tuple((a + b) % m for a, b in zip(v, s)) for s in span}
            seen |= coset
            reps.append(min(coset))
        return reps


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
        """(K, incl) with K a presented module and incl: K gens -> source gens."""
        gens = preimage_generators(self.matrix, self.target.relations)
        rel = preimage_generators(gens, self.source.relations)
        return PresentedModule(self.source.ring, gens.cols, rel), gens

    def cokernel(self) -> PresentedModule:
        rel = Matrix.hstack([self.matrix, self.target.relations])
        return PresentedModule(self.target.ring, self.target.generators, rel)

    def is_isomorphism(self) -> bool:
        if not self.cokernel().is_zero:
            return False
        K, _ = self.kernel()
        return K.is_zero


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


class HomologyData:
    """Middle homology of A --f--> B --g--> C together with cycle coordinates."""

    __slots__ = ("module", "cycle_gens", "ambient")

    def __init__(self, module: PresentedModule, cycle_gens: Matrix,
                 ambient: PresentedModule):
        self.module = module
        self.cycle_gens = cycle_gens  # columns in the generators of B
        self.ambient = ambient        # B itself


def middle_homology(f: ModuleMap, g: ModuleMap) -> HomologyData:
    """ker(g)/im(f) as a presented module; assumes g∘f = 0."""
    B = f.target
    K, incl = g.kernel()
    coords = coordinates_mod(incl, B.relations, f.matrix)
    if coords is None:
        raise NotWellDefined("image of f does not lie in the kernel of g")
    rel = Matrix.hstack([coords, K.relations])
    return HomologyData(PresentedModule(B.ring, K.generators, rel), incl, B)


def induced_on_homology(hx: HomologyData, hy: HomologyData,
                        phi_matrix: Matrix) -> ModuleMap:
    """Map on middle homology induced by a square-commuting phi on the middles."""
    image = phi_matrix * hx.cycle_gens
    coords = coordinates_mod(hy.cycle_gens, hy.ambient.relations, image)
    if coords is None:
        raise NotWellDefined("phi does not preserve cycles")
    return ModuleMap(hx.module, hy.module, coords)


# ---------------------------------------------------------------------------
# exhaustive checks over finite rings (test oracles)
# ---------------------------------------------------------------------------

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
    elems = module.elements()
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

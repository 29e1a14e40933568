"""Seeded samplers over a finite field for the property suites, and the
small constructors and serializers that only the suites use.

Two solvers, hom_space_basis and the mesh sampler behind
random_free_representation, take matrices as unknowns.  With U
flattened row-major to vec(U),

    vec(A · U · B) = (A ⊗ Bᵀ) · vec(U),

so each linear condition sum A · U · B = 0 on the unknowns is one block
row of Kronecker products, and its solutions are one kernel.
"""

from qshape.errors import InvalidParameter
from qshape.exactalg import Matrix, PresentedModule, kernel_basis
from qshape.io import representation_json
from qshape.meshcat import MeshCategory
from qshape.quiver import format_vertex
from qshape.repmod import Representation, RepMorphism, free_at


def random_free_representation(C: MeshCategory, rng) -> Representation:
    """Random mesh-valid representation with free values over a finite field.

    Each interior vertex gets a dimension in [0, 3], and the last column
    of a repetitive window 0, as golden files record what each seed
    draws.  The rising arrows a_q get uniform random matrices.
    Each arm of a mesh composes one rising and one falling arrow, so the
    mesh relations are linear in the falling arrows a_q*; those are a
    uniform random point of the solution space.
    """
    ring = C.ring
    if not (ring.is_field and ring.is_modular):
        raise InvalidParameter("the sampler needs a finite field")
    quiver = C.quiver
    dims = {v: rng.randint(0, 3) if quiver.is_interior(v) else 0
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
    column = {U: b for b, U in enumerate(shapes)}
    layout = {(e, column[U]): A.kron(B.transpose())
              for e, terms in enumerate(equations) for A, U, B in terms}
    heights = [A.rows * B.cols for (A, _, B), *_ in equations]
    return kernel_basis(Matrix.blocks(ring, layout, heights,
                                      [r * c for r, c in shapes.values()]))


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


# ---------------------------------------------------------------------------
# constructors and serializers the suites share
# ---------------------------------------------------------------------------

def cyclic(ring, d) -> PresentedModule:
    """R/(d) on one generator."""
    return PresentedModule(ring, 1, Matrix(ring, 1, 1, [d]))


def from_invariant_factors(ring, factors) -> PresentedModule:
    """Module ⊕ R/(d) for the listed d (0 giving a free summand)."""
    factors = [ring.canon(d) for d in factors]
    rel = Matrix(ring, len(factors), len(factors),
                 [factors[i] if i == j else ring.zero
                  for i in range(len(factors)) for j in range(len(factors))])
    return PresentedModule(ring, len(factors), rel)


def representable_rep(C: MeshCategory, p) -> Representation:
    """Q(p, -)."""
    return free_at(C, p, PresentedModule.free(C.ring, 1))


def zero_morphism(X: Representation, Y: Representation) -> RepMorphism:
    return RepMorphism(X, Y, {})


def identity_morphism(X: Representation) -> RepMorphism:
    return RepMorphism(X, X, {v: Matrix.identity(X.ring, m.generators)
                              for v, m in X.values.items()})


def morphism_json(phi: RepMorphism):
    """A morphism as the CLI reads it (io.parse_morphism)."""
    return {
        "category": phi.source.category.quiver.spec_json()
                    | {"ring": phi.source.ring.to_json()},
        "source": {k: v for k, v in representation_json(phi.source).items()
                   if k != "category"},
        "target": {k: v for k, v in representation_json(phi.target).items()
                   if k != "category"},
        "components": {format_vertex(v): M.to_json()
                       for v, M in sorted(phi.components.items(),
                                          key=lambda kv: format_vertex(kv[0]))},
    }

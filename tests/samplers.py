"""Seeded samplers over a finite field for the property suites.

Two solvers, hom_space_basis and the mesh sampler behind
random_free_representation, take matrices as unknowns.  With U
flattened row-major to vec(U),

    vec(A · U · B) = (A ⊗ Bᵀ) · vec(U),

so each linear condition sum A · U · B = 0 on the unknowns is one block
row of Kronecker products, and its solutions are one kernel.
"""

from qshape.errors import InvalidParameter
from qshape.exactalg import Matrix, PresentedModule, kernel_basis
from qshape.meshcat import MeshCategory
from qshape.repmod import Representation, RepMorphism


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

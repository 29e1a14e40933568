"""Brute-force oracles (tests only).

``path_graded_dims`` is the cross-check for ``MeshCategory.hom_basis_oracle``:
it lists every path p -> q of each length, imposes every degree-homogeneous
relation of the mesh ideal (mesh relations pre- and post-composed with
paths), and reduces.  Its cost grows about tenfold per step in n, so use it
for n <= 5 only.

``scanned_nilpotency_index`` and ``all_pairs_support`` ask ``hom_basis``
about every vertex pair, as the library did before it read the support
off the Serre rectangle; they check the closed forms that replaced them.
"""

from qshape.errors import UnsupportedRing
from qshape.exactalg import Matrix, PresentedModule

from oracles import add


def paths_from(quiver, p, max_len: int):
    """paths[l] = list of (arrow-name tuple, end vertex) of length l from p."""
    paths = [[((), p)]]
    for _ in range(max_len):
        nxt = []
        for word, end in paths[-1]:
            for a in quiver.arrows_out_of(end):
                nxt.append((word + (a.name,), a.target))
        paths.append(nxt)
    return paths


def path_graded_dims(C, p, q, max_len: int | None = None) -> dict:
    """{l: rank of Q^l(p, q)} for l = 0..max_len (default 2n).

    Each mesh-ideal relation involves at most two paths, so the reduction
    is an exact sign-tracking union-find; any 2-torsion suspicion falls
    back to a full presented-module normal form over the ring.
    """
    quiver = C.quiver
    if max_len is None:
        max_len = 2 * C.n
    cache = {}

    def from_vertex(v):
        if v not in cache:
            cache[v] = paths_from(quiver, v, max_len)
        return cache[v]

    from_p = from_vertex(p)
    meshes = [quiver.mesh_at(r) for r in quiver.interior_vertices()]
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
                xs = [w for w, end in from_vertex(mesh.vertex)[l2] if end == q]
                for y in ys:
                    for x in xs:
                        relations.add(tuple(sorted(index[y + m + x] for m in mids)))
        table[l] = reduce_sparse(C.ring, len(paths), relations, l)
    return table


def reduce_sparse(ring, count: int, relations, l: int) -> int:
    """Rank of span(paths)/span(relations); relations have <= 2 terms."""
    parent = list(range(count))
    rel_sign = [1] * count  # sign relative to the root
    zero = [False] * count
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
        return reduce_generic(ring, count, relations, l)
    return len({find(k)[0] for k in range(count) if not zero[find(k)[0]]})


def reduce_generic(ring, count: int, relations, l: int) -> int:
    """Full normal-form reduction over the ring (rarely needed)."""
    cols = []
    for rel in relations:
        v = [ring.zero] * count
        for idx in rel:
            v[idx] = add(ring, v[idx], ring.one)
        cols.append(v)
    relmat = Matrix(ring, count, len(cols),
                    [cols[j][i] for i in range(count) for j in range(len(cols))])
    module = PresentedModule(ring, count, relmat)
    nf = module.normal_form()
    if nf.torsion:
        raise UnsupportedRing(
            f"graded piece of length {l} is not free: {module.describe()}")
    return nf.free_rank


def scanned_nilpotency_index(C) -> int:
    """Least N with r^N = 0: one more than the top degree over all pairs."""
    top = -1
    for p in C.vertices:
        for q in C.vertices:
            basis = C.hom_basis(p, q)
            if basis:
                top = max(top, basis[-1].degree)
    return top + 1


def all_pairs_support(C):
    """({p: targets}, {q: sources}) of the nonzero hom spaces, in vertex order."""
    targets = {p: tuple(q for q in C.vertices if C.hom_basis(p, q))
               for p in C.vertices}
    sources = {q: tuple(p for p in C.vertices if C.hom_basis(p, q))
               for q in C.vertices}
    return targets, sources

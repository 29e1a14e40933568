"""Chain complexes are representations of the repetitive A_2 quiver.

The repetitive quiver of A_2 is an infinite zigzag
... -> (1,i) -> (2,i) -> (1,i-1) -> ... whose mesh relations say exactly
that consecutive maps compose to zero.  The bridge below realizes a
bounded complex as such a representation, and mesh homology at the
zigzag vertices recovers the chain homology groups, invariant factors
and all.

Run:  python3 demos/02_chain_complexes_as_representations.py
"""

import random

from qshape import Matrix, MeshCategory, PresentedModule, ZZ, Zmod, \
    build_repetitive_an
from qshape.homology import classify_object, mesh_homology
from qshape.repmod import ChainComplex, complex_to_rep, degree_vertex, \
    random_complex, rep_to_complex

C = MeshCategory(build_repetitive_an(2, (-10, 10)), ZZ)

# a small complex with torsion homology: Z --2--> Z --0--> Z
cc = ChainComplex(ZZ, {k: PresentedModule.free(ZZ, 1) for k in range(3)},
                  {2: Matrix.from_rows(ZZ, [[2]]),
                   1: Matrix.zeros(ZZ, 1, 1)})
assert cc.is_complex()
X = complex_to_rep(C, cc)
print("support of the representation:", sorted(X.support))

# the mesh at the vertex of degree k - 1 has degree k in its middle
for k in (0, 1, 2):
    vertex = degree_vertex(k - 1)
    print(f"H_{k} direct: {cc.homology(k).describe():>5}   "
          f"through the mesh at {vertex}: {mesh_homology(X, vertex).describe()}")

print("\nround trip returns the same complex:",
      all(rep_to_complex(X).differential(k) == cc.differential(k)
          for k in (1, 2)))

print("\n50 random complexes over F_5: homology through the bridge")
rng = random.Random(0)
C5 = MeshCategory(build_repetitive_an(2, (-10, 10)), Zmod(5))
matches = 0
for _ in range(50):
    cc = random_complex(Zmod(5), rng)
    rep = complex_to_rep(C5, cc)
    ok = all(mesh_homology(rep, degree_vertex(k - 1)).normal_form()
             == cc.homology(k).normal_form() for k in cc.degrees())
    exact_direct = all(cc.homology(k).is_zero for k in cc.degrees())
    ok = ok and (classify_object(rep).homology_vanishes == exact_direct)
    matches += ok
print(f"   {matches}/50 agree (exactness verdicts included)")

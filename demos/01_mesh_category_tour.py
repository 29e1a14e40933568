"""A tour of the mesh category of the doubled A_5 quiver.

The doubled linear quiver has arrows a_q: q -> q+1 together with
reversed partners a_q*: q+1 -> q, and its mesh category imposes the
relations a_1* a_1 = 0, a_{q-1} a_{q-1}* + a_q* a_q = 0, and
a_4 a_4* = 0.  Everything below is exact arithmetic over the integers.

Run:  python3 demos/01_mesh_category_tour.py
"""

from qshape import ZZ, MeshCategory, build_double_an

n = 5
C = MeshCategory(build_double_an(n), ZZ)

print("Hom ranks d(p, q) = min{p, q, n+1-p, n+1-q}:")
for p in C.vertices:
    print("  ", [C.d(p, q) for q in C.vertices])

print("\nEvery rank rechecked by degree-by-degree mesh quotients:")
agree = all(C.oracle_hom_rank(p, q) == C.d(p, q)
            for p in C.vertices for q in C.vertices)
print("   oracle agrees everywhere:", agree)

print("\nGraded pieces of Hom(2, 3): degrees",
      [b.degree for b in C.hom_basis(2, 3)])

print("\nThe arrow ideal is the pseudo-radical; its powers are the")
print("degree filtration, and it is nilpotent of index",
      C.nilpotency_index())

print("\nLeft multiplication by a_2 on the basis of Hom(4, 2)")
print("(a closed-form matrix, equal to composing basis elements):")
T = C.arrow_mult_matrix(4, 2, star=False)
for row in T.to_lists():
    print("  ", row)

report = C.serre_report()
print("\nSerre functor q ->", n + 1, "- q with signed arrow images:")
for name in ("a1", "a2", "a1*"):
    print(f"   S({name}) = {report['arrow_map'][name]}")
print("   involution on generators:", report["involution_on_generators"])
print("   all composition pairings invertible:", report["pairings_invertible"])
print("   all naturality squares commute:", report["naturality_squares_commute"])

"""Canned representations used by the demos and the verification suite.

The centerpiece is a morphism phi: X -> Y of representations of the
repetitive A_3 category whose mesh homology is an isomorphism at every
vertex even though phi is not a weak equivalence: its kernel has
nonvanishing mesh homology one step past the support.  Four vertices
get stable labels:

    1 = (1, 0)   2 = (3, 1)   3 = (2, 0)   4 = (1, -1)

X has the base ring at vertices 1, 2, 3 with both arrows into vertex 3
acting as the identity; Y is the stalk at vertex 1; phi is the identity
at vertex 1 and zero elsewhere.
"""

from __future__ import annotations

from .exactalg import Matrix, PresentedModule
from .meshcat import MeshCategory
from .quiver import build_repetitive_an
from .repmod import Representation, RepMorphism

COUNTER_LABELS = {1: (1, 0), 2: (3, 1), 3: (2, 0), 4: (1, -1)}
COUNTER_WINDOW = (-8, 10)


def counter_category(ring) -> MeshCategory:
    return MeshCategory(build_repetitive_an(3, COUNTER_WINDOW), ring)


def counter_morphism(ring):
    """(X, Y, phi) over the repetitive A_3 category."""
    C = counter_category(ring)
    one = PresentedModule.free(ring, 1)
    v1, v2, v3 = COUNTER_LABELS[1], COUNTER_LABELS[2], COUNTER_LABELS[3]
    X = Representation(
        C,
        {v1: one, v2: one, v3: one},
        {"a1@0": Matrix.identity(ring, 1),    # vertex 1 -> vertex 3
         "a2*@1": Matrix.identity(ring, 1)},  # vertex 2 -> vertex 3
    )
    Y = Representation(C, {v1: one}, {})
    phi = RepMorphism(X, Y, {v1: Matrix.identity(ring, 1)})
    return X, Y, phi

"""Exact linear algebra over Z, Q, and Z/p^k, and presented modules."""

from .matrix import Matrix
from .modules import (HomologyData, ModuleMap, NormalForm, PresentedModule,
                      coordinates_mod, induced_on_homology, middle_homology,
                      preimage_generators)
from .rings import QQ, ZZ, BaseRing, Zmod
from .smith import (field_rank, invariant_factors, kernel_basis,
                    matrix_is_invertible, smith_normal_form, solve, solve_matrix)

__all__ = [
    "BaseRing", "ZZ", "QQ", "Zmod",
    "Matrix",
    "smith_normal_form", "kernel_basis", "solve", "solve_matrix",
    "matrix_is_invertible", "field_rank", "invariant_factors",
    "PresentedModule", "ModuleMap", "NormalForm", "HomologyData",
    "preimage_generators", "coordinates_mod",
    "middle_homology", "induced_on_homology",
]

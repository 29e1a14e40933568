"""The names the benchmark's tracer patches exist in the library.

``perfbench/tracing.py`` wraps library functions and methods by name from
outside the package, so renaming or removing one breaks the traced
benchmark run.  Here the tracer is installed and uninstalled without
running a workload: every elimination entry point and every homology
name it patches must be replaced under the library's own name, and every
patch must be undone.
"""

import importlib.util
from pathlib import Path

from qshape import homology
from qshape.exactalg import smith

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WRAPPED = ("smith_normal_form", "_snf_int", "field_rank", "matrix_is_invertible",
           "solve", "solve_matrix", "kernel_basis")
HOMOLOGY = ("resolve_stalk", "derived_homology_data", "mesh_homology_data",
            "is_weak_equivalence", "classify_object", "_cn_probes",
            "middle_homology")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = {(owner, name): getattr(owner, name)
                 for owner, names in ((smith, WRAPPED), (homology, HOMOLOGY))
                 for name in names}
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original, name
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name

"""JSON schemas for categories, representations, morphisms, and reports.

The wire format is bit-exact: matrices are {"rows", "cols", "entries"}
with row-major entries, written as strings for Z and Q (arbitrary
precision, "p/q" form for rationals) and as plain integers for mod-m
rings.  Vertices serialize as "q" (double) or "q@i" (repetitive);
arrows as "a{q}" / "a{q}*" and "a{q}@{i}" / "a{q}*@{i}".
"""

from __future__ import annotations

import json

from .errors import InvalidParameter
from .exactalg import BaseRing, Matrix, PresentedModule
from .meshcat import MeshCategory
from .quiver import (DOUBLE_AN, REPETITIVE_AN, build_double_an,
                     build_repetitive_an, format_vertex, parse_vertex)
from .repmod import Representation, RepMorphism


# Categories read from input have n <= MAX_N.  At n = 32 the largest
# reports (build, serre-check) take a few seconds; the cost and the output
# of build grow about as n**4.
MAX_N = 32

# A window spans at most MAX_WINDOW columns, the widest default window
# (-2n, 2n) at n = MAX_N.  Its vertices and arrows are built eagerly, so
# the cost grows with the width: validate on repetitive A_2 with the window
# [-10000, 10000] took 2.3 s on a 2-vCPU Xeon guest.
MAX_WINDOW = 4 * MAX_N + 1

# Ranks and matrix dimensions read from input are at most MAX_RANK.  Normal
# forms build no transform, but a kernel of a g x r matrix builds an r x r
# one and a solve also a g x g one: over Z, H_0..H_1 at one vertex with a
# 256 x 256 diagonal relation matrix took 4.3 s, and with a 1 x 1000 zero
# one 52 s; at 128, 0.6 s and 0.15 s.
MAX_RANK = 128


class SchemaError(InvalidParameter):
    """Bad input with a JSON-pointer-ish path to the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _is_int(x) -> bool:
    """JSON integers only: true and false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def _object(data: dict, key: str, path: str) -> dict:
    """data[key] when present, which must then be an object; else {}."""
    if key not in data:
        return {}
    if not isinstance(data[key], dict):
        raise SchemaError(f"{path}/{key}", f"{key} must be an object")
    return data[key]


def build_category(flavor, n, window, ring, where) -> MeshCategory:
    """The mesh category of a flavor, an n and a window (read by the
    repetitive flavor, checked for both), over a parsed ring: the one
    constructor behind JSON input and the CLI flags.  A bad field raises
    SchemaError at where(field)."""
    if not _is_int(n):
        raise SchemaError(where("n"), "n must be an integer")
    if n > MAX_N:
        raise SchemaError(where("n"), f"n must be at most {MAX_N}")
    if flavor not in (DOUBLE_AN, REPETITIVE_AN):
        raise SchemaError(where("flavor"),
                          "flavor must be double_an or repetitive_an")
    if (window is not None or flavor == REPETITIVE_AN) and (
            not isinstance(window, (list, tuple)) or len(window) != 2
            or not all(_is_int(x) for x in window)):
        raise SchemaError(where("window"), "window must be [i_min, i_max]")
    if window is not None and window[1] - window[0] >= MAX_WINDOW:
        raise SchemaError(where("window"),
                          f"window must span at most {MAX_WINDOW} columns")
    try:
        quiver = (build_double_an(n) if flavor == DOUBLE_AN
                  else build_repetitive_an(n, tuple(window)))
    except InvalidParameter as exc:  # n < 2, or i_min > i_max
        raise SchemaError(where("n" if n < 2 else "window"), str(exc)) from None
    if window is not None and window[0] > window[1]:  # the double builder reads none
        raise SchemaError(where("window"), "window must satisfy i_min <= i_max")
    return MeshCategory(quiver, ring)


def parse_category(data, path="") -> MeshCategory:
    if not isinstance(data, dict):
        raise SchemaError(path or "/", "category spec must be an object")
    try:
        ring = BaseRing.from_json(data.get("ring", "Z"))
    except InvalidParameter as exc:
        raise SchemaError(path + "/ring", str(exc)) from None
    return build_category(data.get("flavor"), data.get("n"), data.get("window"),
                          ring, lambda field: f"{path}/{field}")


def _parse_matrix(ring, data, path) -> Matrix:
    try:
        M = Matrix.from_json(ring, data)
    except InvalidParameter as exc:
        raise SchemaError(path, str(exc)) from None
    if max(M.rows, M.cols) > MAX_RANK:
        raise SchemaError(path, f"rows and cols must be at most {MAX_RANK}")
    return M


def _sized_matrix(ring, data, rows: int, cols: int, path) -> Matrix:
    M = _parse_matrix(ring, data, path)
    if M.rows != rows or M.cols != cols:
        raise SchemaError(path, f"expected a {rows}x{cols} matrix")
    return M


def _vertex(category: MeshCategory, key, path):
    """The vertex a "values" or "components" key names, which must lie in
    the quiver."""
    try:
        v = parse_vertex(key)
    except ValueError:
        raise SchemaError(path, "bad vertex id") from None
    if not category.quiver.has_vertex(v):
        raise SchemaError(path, "vertex outside the quiver")
    return v


def parse_value(ring, data, path) -> PresentedModule:
    if not isinstance(data, dict) or "rank" not in data:
        raise SchemaError(path, "value must be an object with a rank")
    rank = data["rank"]
    if not _is_int(rank) or rank < 0:
        raise SchemaError(path + "/rank", "rank must be a nonnegative integer")
    if rank > MAX_RANK:
        raise SchemaError(path + "/rank", f"rank must be at most {MAX_RANK}")
    relations = None
    if "relations" in data:
        relations = _parse_matrix(ring, data["relations"], path + "/relations")
        if relations.rows != rank:
            raise SchemaError(path + "/relations",
                              f"relations must have {rank} rows")
    return PresentedModule(ring, rank, relations)


def parse_representation(data, path="", category=None) -> Representation:
    if not isinstance(data, dict):
        raise SchemaError(path or "/", "representation must be an object")
    if category is None:
        category = parse_category(data.get("category"), path + "/category")
    ring = category.ring
    values = {}
    for key, val in _object(data, "values", path).items():
        key_path = f"{path}/values/{key}"
        v = _vertex(category, key, key_path)
        values[v] = parse_value(ring, val, key_path)
    arrows = {}
    for key, val in _object(data, "arrows", path).items():
        key_path = f"{path}/arrows/{key}"
        try:
            arrow = category.quiver.arrow(key)
        except KeyError:
            raise SchemaError(key_path, "unknown arrow") from None
        tgt = values.get(arrow.target)
        src = values.get(arrow.source)
        arrows[key] = _sized_matrix(ring, val, tgt.generators if tgt else 0,
                                    src.generators if src else 0, key_path)
    return Representation(category, values, arrows)


def parse_morphism(data, path="") -> RepMorphism:
    if not isinstance(data, dict):
        raise SchemaError(path or "/", "morphism must be an object")
    category = parse_category(data.get("category"), path + "/category")
    X = parse_representation(data.get("source"), path + "/source", category)
    Y = parse_representation(data.get("target"), path + "/target", category)
    comps = {}
    for key, val in _object(data, "components", path).items():
        key_path = f"{path}/components/{key}"
        v = _vertex(category, key, key_path)
        comps[v] = _sized_matrix(category.ring, val, Y.value(v).generators,
                                 X.value(v).generators, key_path)
    return RepMorphism(X, Y, comps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def value_json(module: PresentedModule):
    out = {"rank": module.generators}
    if module.relations.cols:
        out["relations"] = module.relations.to_json()
    return out


def representation_json(X: Representation):
    return {
        "category": X.category.quiver.spec_json() | {"ring": X.ring.to_json()},
        "values": {format_vertex(v): value_json(m)
                   for v, m in sorted(X.values.items(), key=lambda kv: format_vertex(kv[0]))},
        "arrows": {name: M.to_json()
                   for name, M in sorted(X.arrow_maps.items())
                   if M.rows and M.cols},
    }


def category_bundle(C: MeshCategory):
    """Bases, graded dimensions, multiplication tables, and Serre data."""
    verts = [format_vertex(v) for v in C.vertices]
    bases = {f"{format_vertex(p)}->{format_vertex(q)}":
             [b.degree for b in C.hom_basis(p, q)]
             for p in C.vertices for q in C.hom_targets(p)}
    mult = {}
    for a in C.quiver.arrows:
        for p in C.hom_sources(a.source):
            M = C.arrow_left_mult(a, p)
            if M.rows and M.cols:
                mult[f"{a.name}|{format_vertex(p)}"] = M.to_json()
    serre = C.serre_report()
    serre.pop("checked_squares", None)
    serre.pop("checked_pairings", None)
    return {
        "category": C.quiver.spec_json() | {"ring": C.ring.to_json()},
        "vertices": verts,
        "hom_bases": bases,
        "nilpotency_index": C.nilpotency_index(),
        "left_multiplication": mult,
        "serre": serre,
    }


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)

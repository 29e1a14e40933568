"""Stable translation quivers: the double and repetitive quivers of A_n.

A stable translation quiver carries a vertex bijection tau and an arrow
bijection sigma such that sigma(a): tau(q) -> p for every arrow
a: p -> q.  The two flavors cover the linear A_n quiver:

* double A_n: vertices 1..n, arrows a_q: q -> q+1 and a_q*: q+1 -> q,
  tau the identity, sigma swapping a_q and a_q*;
* ZA_n, the repetitive quiver: vertices (q, i) with arrows
  a_{q,i}: (q,i) -> (q+1,i) and a*_{q,i}: (q+1,i) -> (q,i-1),
  tau(q,i) = (q,i+1), sigma(a_{q,i}) = a*_{q,i+1}, sigma(a*_{q,i}) = a_{q,i}.

Double A_n is ZA_n modulo tau: a vertex has a row, and on ZA_n also a
column.  One rule, ``mesh_at``, reads the arrows into a vertex, tau and
sigma off its (row, column), so meshes, tau and sigma are defined at
every vertex of ZA_n.

ZA_n is infinite, so a repetitive quiver carries a window of columns,
which has two jobs only: it bounds input (``has_vertex``: values and
arrow maps live in the window) and it bounds enumeration (``vertices``,
``arrows``, ``arrows_into``/``arrows_out_of`` and ``interior_vertices``,
the vertices whose whole mesh lies in the window).  A representation on
the window is the one on ZA_n that is zero off it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvalidParameter

DOUBLE_AN = "double_an"
REPETITIVE_AN = "repetitive_an"


@dataclass(frozen=True)
class Arrow:
    name: str
    source: object
    target: object

    @property
    def rises(self) -> bool:
        """True for a_q, from row q up to row q + 1; False for a_q*.

        Vertices compare by row first: q, or (q, i) on the repetitive quiver.
        """
        return self.target > self.source


@dataclass(frozen=True)
class Mesh:
    """All arrows a_1..a_k into q, paired with sigma(a_i) out of tau(q)."""
    vertex: object
    tau_vertex: object
    arrows: tuple
    paired: tuple


def vertex_key(v):
    """Stable sort key; double vertices are ints, repetitive ones pairs."""
    return (v,) if isinstance(v, int) else (v[1], v[0])


def format_vertex(v) -> str:
    return str(v) if isinstance(v, int) else f"{v[0]}@{v[1]}"


def parse_vertex(s: str):
    if "@" in s:
        q, i = s.split("@", 1)
        return (int(q), int(i))
    return int(s)


def vertex_at(row, col, shift: int = 0):
    """The vertex at (row, col + shift); a double vertex has no column
    (None) and is its row."""
    return row if col is None else (row, col + shift)


def _arrow(row: int, col, star: bool) -> Arrow:
    """a_row: (row, col) -> (row+1, col), or a_row*: (row+1, col) ->
    (row, col-1); on double A_n, where col is None, a_row: row -> row+1
    and a_row*: row+1 -> row."""
    at = "" if col is None else f"@{col}"
    if star:
        return Arrow(f"a{row}*{at}", vertex_at(row + 1, col), vertex_at(row, col, -1))
    return Arrow(f"a{row}{at}", vertex_at(row, col), vertex_at(row + 1, col))


class StableTranslationQuiver:
    """Finite quiver data of a window, with meshes, translation and
    semitranslation at every vertex."""

    def __init__(self, flavor, n, vertices, arrows, window=None):
        self.flavor = flavor
        self.n = n
        self.window = window
        self.vertices = tuple(sorted(vertices, key=vertex_key))
        self.arrows = tuple(sorted(arrows, key=lambda a: a.name))
        self._by_name = {a.name: a for a in self.arrows}
        self._between = {(a.source, a.target): a for a in self.arrows}
        self._meshes = {}
        self._into = {v: [] for v in self.vertices}
        self._out_of = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._into[a.target].append(a)
            self._out_of[a.source].append(a)
        for v in self.vertices:
            self._into[v].sort(key=lambda a: a.name)
            self._out_of[v].sort(key=lambda a: a.name)

    # -- raw structure ----------------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    def arrow_between(self, source, target):
        """The arrow source -> target, or None; these quivers have at most one."""
        return self._between.get((source, target))

    def has_vertex(self, v) -> bool:
        """Whether v lies in the window (every vertex of double A_n)."""
        return v in self._into

    def coords(self, v):
        """(row, column) of a vertex; double A_n keeps the row and has no
        column (None).  Inverse of vertex_at."""
        return (v, None) if self.flavor == DOUBLE_AN else v

    def tau(self, v):
        """Translation: the vertex one column up (v itself on double A_n)."""
        return self.mesh_at(v).tau_vertex

    def sigma(self, a: Arrow) -> Arrow:
        """Semitranslation: the arrow tau(q) -> p paired with a: p -> q."""
        mesh = self.mesh_at(a.target)
        return mesh.paired[mesh.arrows.index(a)]

    def arrows_into(self, v):
        return tuple(self._into[v])

    def arrows_out_of(self, v):
        return tuple(self._out_of[v])

    # -- meshes -------------------------------------------------------------------

    def is_interior(self, v) -> bool:
        """Whole mesh of v, including its tau-image, lies in the window."""
        if self.flavor == DOUBLE_AN:
            return True
        q, i = v
        return self.window[0] <= i and i + 1 <= self.window[1]

    def band(self, col, below: int, above: int):
        """The vertices in columns col + below .. col + above, in vertex order
        (a slice: they sort by column first); every vertex when col is None."""
        if col is None:
            return self.vertices
        start = bisect_left(self.vertices, (col + below,), key=vertex_key)
        stop = bisect_left(self.vertices, (col + above + 1,), key=vertex_key)
        return self.vertices[start:stop]

    def interior_vertices(self):
        return tuple(v for v in self.vertices if self.is_interior(v))

    def mesh_at(self, v) -> Mesh:
        """The mesh at v, from its (row, column) alone, at any vertex of
        ZA_n or double A_n: a_{q-1} from the row below (q > 1) and a_q*
        from the row above one column up (q < n), by name, each paired
        with its sigma out of tau(v), one column up.  Memoised per vertex."""
        mesh = self._meshes.get(v)
        if mesh is None:
            row, col = self.coords(v)
            if not 1 <= row <= self.n:
                raise InvalidParameter(f"no vertex {format_vertex(v)}")
            up = col if col is None else col + 1
            pairs = []
            if row > 1:
                pairs.append((_arrow(row - 1, col, False), _arrow(row - 1, up, True)))
            if row < self.n:
                pairs.append((_arrow(row, up, True), _arrow(row, up, False)))
            pairs.sort(key=lambda pair: pair[0].name)
            mesh = self._meshes[v] = Mesh(v, vertex_at(row, col, 1),
                                          tuple(a for a, _ in pairs),
                                          tuple(sa for _, sa in pairs))
        return mesh

    # -- serialization ---------------------------------------------------------------

    def spec_json(self):
        data = {"flavor": self.flavor, "n": self.n}
        if self.window is not None:
            data["window"] = list(self.window)
        return data


def build_double_an(n: int) -> StableTranslationQuiver:
    """Double quiver of linear A_n: tau = id, sigma swaps a_q and a_q*."""
    if n < 2:
        raise InvalidParameter("double quiver needs n >= 2")
    arrows = [_arrow(q, None, star) for q in range(1, n) for star in (False, True)]
    return StableTranslationQuiver(DOUBLE_AN, n, range(1, n + 1), arrows)


def build_repetitive_an(n: int, window) -> StableTranslationQuiver:
    """ZA_n with the window of columns i_min..i_max: the vertices there and
    the arrows between them."""
    if n < 2:
        raise InvalidParameter("repetitive quiver needs n >= 2")
    i_min, i_max = window
    if i_min > i_max:
        raise InvalidParameter("window must satisfy i_min <= i_max")
    vertices = [(q, i) for q in range(1, n + 1) for i in range(i_min, i_max + 1)]
    arrows = [_arrow(q, i, star) for q in range(1, n) for i in range(i_min, i_max + 1)
              for star in (False, True) if not star or i > i_min]
    return StableTranslationQuiver(REPETITIVE_AN, n, vertices, arrows,
                                   window=(i_min, i_max))

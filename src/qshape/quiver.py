"""Stable translation quivers: the double and repetitive quivers of A_n.

A stable translation quiver carries a vertex bijection tau and an arrow
bijection sigma such that sigma(a): tau(q) -> p for every arrow
a: p -> q.  The two builders here cover the linear A_n quiver:

* double_an(n): vertices 1..n, arrows a_q: q -> q+1 and a_q*: q+1 -> q,
  tau the identity, sigma swapping a_q and a_q*;
* repetitive_an(n, window): vertices (q, i) with arrows
  a_{q,i}: (q,i) -> (q+1,i) and a*_{q,i}: (q+1,i) -> (q,i-1),
  tau(q,i) = (q,i+1), sigma(a_{q,i}) = a*_{q,i+1}, sigma(a*_{q,i}) = a_{q,i}.

Both have at most one arrow between two vertices, so the builders give
only the arrows and tau, and sigma is read off from them.

The repetitive quiver is infinite, so it is truncated to a window of
translation indices; a vertex is *interior* when its whole mesh (and its
tau-image) lies inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundaryVertex, InvalidParameter

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


class StableTranslationQuiver:
    """Finite quiver data with translation and semitranslation."""

    def __init__(self, flavor, n, vertices, arrows, tau, window=None):
        self.flavor = flavor
        self.n = n
        self.window = window
        self.vertices = tuple(sorted(vertices, key=vertex_key))
        self.arrows = tuple(sorted(arrows, key=lambda a: a.name))
        self._by_name = {a.name: a for a in self.arrows}
        self._between = {(a.source, a.target): a for a in self.arrows}
        self._tau = dict(tau)
        # sigma(a) for a: p -> q is the arrow tau(q) -> p, where there is one
        self._sigma = {}
        for a in self.arrows:
            image = self._between.get((self._tau.get(a.target), a.source))
            if image is not None:
                self._sigma[a.name] = image
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
        return v in self._into

    def tau(self, v):
        """Translation; raises BoundaryVertex when the image leaves the window."""
        if v not in self._tau:
            raise BoundaryVertex(f"tau({format_vertex(v)}) is outside the window")
        return self._tau[v]

    def has_tau(self, v) -> bool:
        return v in self._tau

    def sigma(self, a: Arrow) -> Arrow:
        if a.name not in self._sigma:
            raise BoundaryVertex(f"sigma({a.name}) is outside the window")
        return self._sigma[a.name]

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

    def interior_vertices(self):
        return tuple(v for v in self.vertices if self.is_interior(v))

    def mesh_at(self, v) -> Mesh:
        if not self.has_vertex(v):
            raise InvalidParameter(f"no vertex {format_vertex(v)}")
        if not self.is_interior(v):
            raise BoundaryVertex(
                f"mesh at {format_vertex(v)} is truncated by the window")
        arrows = self.arrows_into(v)
        return Mesh(v, self.tau(v), arrows,
                    tuple(self.sigma(a) for a in arrows))

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
    vertices = list(range(1, n + 1))
    arrows = []
    for q in range(1, n):
        arrows += [Arrow(f"a{q}", q, q + 1), Arrow(f"a{q}*", q + 1, q)]
    tau = {v: v for v in vertices}
    return StableTranslationQuiver(DOUBLE_AN, n, vertices, arrows, tau)


def build_repetitive_an(n: int, window) -> StableTranslationQuiver:
    """Repetitive quiver of A_n truncated to translation indices in window."""
    if n < 2:
        raise InvalidParameter("repetitive quiver needs n >= 2")
    i_min, i_max = window
    if i_min > i_max:
        raise InvalidParameter("window must satisfy i_min <= i_max")
    vertices = [(q, i) for q in range(1, n + 1) for i in range(i_min, i_max + 1)]
    arrows = []
    for q in range(1, n):
        for i in range(i_min, i_max + 1):
            arrows.append(Arrow(f"a{q}@{i}", (q, i), (q + 1, i)))
            if i > i_min:
                arrows.append(Arrow(f"a{q}*@{i}", (q + 1, i), (q, i - 1)))
    tau = {(q, i): (q, i + 1)
           for q in range(1, n + 1) for i in range(i_min, i_max)}
    return StableTranslationQuiver(REPETITIVE_AN, n, vertices, arrows, tau,
                                   window=(i_min, i_max))

"""Stable translation quiver builders and meshes."""

import pytest

from qshape.errors import InvalidParameter
from qshape.quiver import build_double_an, build_repetitive_an


class TestDouble:
    def test_a2_has_two_vertices_and_both_arrows(self):
        G = build_double_an(2)
        assert G.vertices == (1, 2)
        assert {a.name for a in G.arrows} == {"a1", "a1*"}

    def test_mesh_at_middle_vertex(self):
        G = build_double_an(3)
        mesh = G.mesh_at(2)
        assert {a.name for a in mesh.arrows} == {"a1", "a2*"}
        assert {a.name for a in mesh.paired} == {"a1*", "a2"}
        # sigma pairs a1 <-> a1* and a2* <-> a2
        pairing = {a.name: s.name for a, s in zip(mesh.arrows, mesh.paired)}
        assert pairing == {"a1": "a1*", "a2*": "a2"}

    def test_mesh_at_end_vertex(self):
        G = build_double_an(3)
        mesh = G.mesh_at(1)
        assert [a.name for a in mesh.arrows] == ["a1*"]
        assert [a.name for a in mesh.paired] == ["a1"]

    def test_arrow_count(self):
        assert len(build_double_an(5).arrows) == 8

    def test_stability(self):
        G = build_double_an(4)
        for a in G.arrows:
            s = G.sigma(a)
            assert s.source == G.tau(a.target)
            assert s.target == a.source
        assert sorted(G.sigma(a).name for a in G.arrows) == \
            sorted(a.name for a in G.arrows)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameter):
            build_double_an(1)


class TestRepetitive:
    def test_single_column_window(self):
        G = build_repetitive_an(2, (0, 0))
        assert len(G.vertices) == 2
        assert [a.name for a in G.arrows] == ["a1@0"]
        assert G.interior_vertices() == ()

    def test_vertex_count(self):
        assert len(build_repetitive_an(3, (-2, 2)).vertices) == 15

    def test_interior(self):
        G = build_repetitive_an(5, (-5, 5))
        assert G.is_interior((3, 0))
        assert not G.is_interior((3, 5))

    def test_mesh_at_interior(self):
        G = build_repetitive_an(2, (-2, 2))
        mesh = G.mesh_at((2, 0))
        assert [a.name for a in mesh.arrows] == ["a1@0"]
        assert [a.name for a in mesh.paired] == ["a1*@1"]
        assert mesh.tau_vertex == (2, 1)

    def test_mesh_at_boundary_raises(self):
        # the mesh at the window's last column used to raise BoundaryVertex;
        # it is the mesh of ZA_n, as on a window that holds it, with its
        # arrows one column past the edge
        G = build_repetitive_an(2, (-2, 2))
        mesh = G.mesh_at((1, 2))
        assert [a.name for a in mesh.arrows] == ["a1*@3"]
        assert [a.name for a in mesh.paired] == ["a1@3"]
        assert mesh.tau_vertex == (1, 3)
        assert not G.has_vertex(mesh.arrows[0].source)
        assert mesh == build_repetitive_an(2, (-2, 4)).mesh_at((1, 2))
        for v in ((0, 2), (3, 2)):  # no such row of ZA_2
            with pytest.raises(InvalidParameter):
                G.mesh_at(v)

    def test_mesh_rule_matches_the_window_tables(self):
        # at every vertex of a window, the arrows of the mesh that lie in
        # the window are the arrows into it, in the same order, and each
        # is paired with the window's arrow tau(v) -> source; the names
        # a9@.. and a10*@.. sort against row order, as the tables do
        for G in (build_repetitive_an(11, (-3, 3)), build_double_an(11)):
            for v in G.vertices:
                mesh = G.mesh_at(v)
                inside = tuple(a for a in mesh.arrows if G.has_vertex(a.source))
                assert inside == G.arrows_into(v)
                for a, sa in zip(mesh.arrows, mesh.paired):
                    assert (sa.source, sa.target) == (G.tau(v), a.source)
                    assert G.sigma(a) == sa
                    if G.is_interior(v):
                        assert G.arrow(a.name) == a and G.arrow(sa.name) == sa

    def test_stability_on_interior(self):
        G = build_repetitive_an(4, (-4, 4))
        for a in G.arrows:
            if G.is_interior(a.target):
                s = G.sigma(a)
                assert s.source == G.tau(a.target)
                assert s.target == a.source

    def test_bad_window(self):
        with pytest.raises(InvalidParameter):
            build_repetitive_an(3, (2, -2))

    def test_determinism(self):
        a = build_repetitive_an(3, (-2, 2))
        b = build_repetitive_an(3, (-2, 2))
        assert [x.name for x in a.arrows] == [x.name for x in b.arrows]
        assert a.vertices == b.vertices

    def test_band_is_the_slice_of_whole_columns(self):
        G = build_repetitive_an(3, (-2, 2))
        for col in range(-4, 5):
            for below, above in ((-2, 0), (0, 2), (0, 0), (-9, 9), (1, -1)):
                assert G.band(col, below, above) == tuple(
                    v for v in G.vertices if col + below <= v[1] <= col + above)
        assert build_double_an(3).band(None, -2, 0) == (1, 2, 3)

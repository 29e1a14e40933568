"""serre_report: each check can fail, and each Serre image is computed once.

Every fault below breaks one ingredient of the Serre data by patching one
method of MeshCategory, and the report must name the checks it breaks.
The expected flags were recorded from the report that evaluated every
naturality square term by term, before the checks shared one table of
arrow images and one square rule.
"""

import pytest

from qshape import MeshCategory, ZZ, Zmod, build_double_an, build_repetitive_an

FLAGS = ("involution_on_generators", "mesh_relations_preserved",
         "pairings_invertible", "naturality_squares_commute")

CATEGORIES = {
    "double A_4 / Z": lambda: MeshCategory(build_double_an(4), ZZ),
    "double A_5 / F_5": lambda: MeshCategory(build_double_an(5), Zmod(5)),
    "repetitive A_3 (-3, 3) / Z":
        lambda: MeshCategory(build_repetitive_an(3, (-3, 3)), ZZ),
    "repetitive A_4 (-2, 2) / Z/9":
        lambda: MeshCategory(build_repetitive_an(4, (-2, 2)), Zmod(9)),
}


def family(arrow):
    """The arrow's name without its column: a1, a1*, a2*, ..."""
    return arrow.name.split("@")[0]


def serre_sign_a1(orig):
    def serre_arrow(self, a):
        res = orig(self, a)
        return (self.ring.neg(res[0]), res[1]) if res and family(a) == "a1" else res
    return serre_arrow


def a1_star_to_a2_star(orig):
    def serre_arrow(self, a):
        res = orig(self, a)
        if res and family(a) == "a1*":
            return res[0], next(b.name for b in self.quiver.arrows
                                if family(b) == "a2*")
        return res
    return serre_arrow


def arrow_sign_a2_star(orig):
    def arrow_elt(self, a):
        coeff, elt = orig(self, a)
        return (self.ring.neg(coeff), elt) if family(a) == "a2*" else (coeff, elt)
    return arrow_elt


def _degree_one_pairs_from(row):
    def applies(self, g, f):
        return f.degree == g.degree == 1 and self._coords(f.source)[0] == row
    return applies


def negated_composite_row_2(orig):
    applies = _degree_one_pairs_from(2)

    def compose_basis(self, g, f):
        res = orig(self, g, f)
        if res and applies(self, g, f):
            return self.ring.neg(res[0]), res[1]
        return res
    return compose_basis


def dropped_composite_row_1(orig):
    applies = _degree_one_pairs_from(1)

    def compose_basis(self, g, f):
        res = orig(self, g, f)
        return None if applies(self, g, f) else res
    return compose_basis


FAULTS = {
    "Serre sign of a1": (serre_sign_a1, "serre_arrow"),
    "a1* sent to a2*": (a1_star_to_a2_star, "serre_arrow"),
    "arrow sign of a2*": (arrow_sign_a2_star, "arrow_elt"),
    "negated composite from row 2": (negated_composite_row_2, "compose_basis"),
    "dropped composite from row 1": (dropped_composite_row_1, "compose_basis"),
}

INV, MESH, PAIR, NAT = FLAGS
EXPECTED_FALSE = {
    "double A_4 / Z": {
        "Serre sign of a1": {INV, MESH, NAT},
        "a1* sent to a2*": {INV, MESH, NAT},
        "arrow sign of a2*": {NAT},
        "negated composite from row 2": {NAT},
        "dropped composite from row 1": {NAT},
    },
    "double A_5 / F_5": {
        "Serre sign of a1": {INV, MESH, NAT},
        "a1* sent to a2*": {INV, MESH},
        "arrow sign of a2*": {NAT},
        "negated composite from row 2": {NAT},
        "dropped composite from row 1": {NAT},
    },
    "repetitive A_3 (-3, 3) / Z": {
        "Serre sign of a1": {MESH, NAT},
        "a1* sent to a2*": {MESH},
        "arrow sign of a2*": {NAT},
        "negated composite from row 2": {NAT},
        "dropped composite from row 1": {PAIR, NAT},
    },
    "repetitive A_4 (-2, 2) / Z/9": {
        "Serre sign of a1": {MESH, NAT},
        "a1* sent to a2*": {MESH, NAT},
        "arrow sign of a2*": {NAT},
        "negated composite from row 2": {NAT},
        "dropped composite from row 1": {NAT},
    },
}

# (checked_pairings, checked_squares) with no fault; sending a1*'s image
# elsewhere changes which squares the source variable visits
COUNTS = {"double A_4 / Z": (16, 88), "double A_5 / F_5": (25, 192),
          "repetitive A_3 (-3, 3) / Z": (60, 92),
          "repetitive A_4 (-2, 2) / Z/9": (70, 130)}
COUNTS_A1_STAR = {"double A_4 / Z": (16, 88), "double A_5 / F_5": (25, 193),
                  "repetitive A_3 (-3, 3) / Z": (60, 83),
                  "repetitive A_4 (-2, 2) / Z/9": (70, 124)}


def false_flags(report):
    return {k for k in FLAGS if not report[k]}


@pytest.mark.parametrize("name", list(CATEGORIES))
def test_every_flag_holds_without_a_fault(name):
    report = CATEGORIES[name]().serre_report()
    assert report["ok"] is True
    assert false_flags(report) == set()
    assert (report["checked_pairings"], report["checked_squares"]) == COUNTS[name]


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("name", list(CATEGORIES))
def test_each_fault_is_caught(monkeypatch, name, fault):
    make, method = FAULTS[fault]
    monkeypatch.setattr(MeshCategory, method, make(getattr(MeshCategory, method)))
    report = CATEGORIES[name]().serre_report()
    assert report["ok"] is False
    assert false_flags(report) == EXPECTED_FALSE[name][fault]
    counts = COUNTS_A1_STAR if fault == "a1* sent to a2*" else COUNTS
    assert (report["checked_pairings"], report["checked_squares"]) == counts[name]


@pytest.mark.parametrize("C, arrows", [
    (lambda: MeshCategory(build_double_an(5), ZZ), 8),
    (lambda: MeshCategory(build_repetitive_an(3, (-3, 3)), ZZ), 26),
], ids=["double A_5", "repetitive A_3 (-3, 3)"])
def test_serre_arrow_once_per_window_arrow(monkeypatch, C, arrows):
    C = C()
    calls = []
    orig = MeshCategory.serre_arrow

    def counted(self, a):
        calls.append(a.name)
        return orig(self, a)
    monkeypatch.setattr(MeshCategory, "serre_arrow", counted)
    assert C.serre_report()["ok"]
    assert len(C.quiver.arrows) == arrows
    assert sorted(calls) == sorted(a.name for a in C.quiver.arrows)

"""Golden normal forms of derived (co)homology on both sides.

``tests/data/derived_golden.json`` pins H_0..H_3 (side cn) and H^0..H^3
(side co) for seeded ``random_representation`` draws over Z, Q, F_3 and
Z/9 on double A_3 and on repetitive A_2 with window (-6, 6), at every
vertex whose stalk resolution then fitted the window.  The table was
recorded while each side still had its own assembly code, so it checks
that the shared orientation rule reads both sides as before.  Twelve
repetitive entries were recorded again when ``random_representation``
began to draw its summands at interior vertices only: their draws had
changed, and some of the old ones were not mesh-valid.

Every vertex of the window now has an answer, the one on ZA_n.  The 192
answers at vertices whose resolutions left the window are not in the
table; they are checked against the same draws on the window (-60, 60).
Rebuild the table with

    PYTHONPATH=src python tests/test_sides_golden.py > tests/data/derived_golden.json

only for a change that is meant to alter these normal forms.
"""

import json
import random
import sys
from pathlib import Path

from qshape import MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.homology import SIDE_CN, SIDE_CO, derived_homology
from qshape.quiver import format_vertex
from qshape.repmod import Representation, random_representation

GOLDEN = Path(__file__).resolve().parent / "data" / "derived_golden.json"
RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
DRAWS = 4
MAX_DEGREE = 3
WIDE = (-60, 60)


def categories(ring):
    return {"double A_3": MeshCategory(build_double_an(3), ring),
            "repetitive A_2 (-6, 6)":
                MeshCategory(build_repetitive_an(2, (-6, 6)), ring)}


def derived_table(wide=False) -> dict:
    """{"ring / category / draw": {"side vertex": "H_0, .., H_3"}} at every
    vertex of the window; with ``wide``, each repetitive draw is read on
    the window WIDE instead, at the same vertices."""
    table = {}
    for r, ring in enumerate(RINGS):
        for c, (name, C) in enumerate(categories(ring).items()):
            rng = random.Random(10 * r + c)
            W = C
            if wide and C.flavor == "repetitive_an":
                W = MeshCategory(build_repetitive_an(C.n, WIDE), ring)
            for draw in range(DRAWS):
                X = random_representation(C, rng)
                X = Representation(W, X.values, X.arrow_maps)
                forms = {}
                for q in C.vertices:
                    for side in (SIDE_CN, SIDE_CO):
                        H = derived_homology(X, q, side, MAX_DEGREE)
                        forms[f"{side} {format_vertex(q)}"] = ", ".join(
                            H[i].describe() for i in range(MAX_DEGREE + 1))
                table[f"{ring!r} / {name} / {draw}"] = forms
    return table


def test_both_sides_match_the_golden_table():
    # every recorded entry, and every answer on the window equals the one
    # on a wide window, where each resolution fits
    want = json.loads(GOLDEN.read_text())
    got, wide = derived_table(), derived_table(wide=True)
    assert got.keys() == want.keys() == wide.keys()
    new = 0
    for key in want:
        assert {k: got[key][k] for k in want[key]} == want[key], key
        assert got[key] == wide[key], key
        new += len(got[key]) - len(want[key])
    assert sum(map(len, want.values())) == 736 and new == 192


def test_golden_table_is_not_trivial():
    # every case has both sides, and nonzero groups above degree 0 occur
    # on both sides, so a reading that swaps or zeroes one side shows
    want = json.loads(GOLDEN.read_text())
    assert len(want) == len(RINGS) * 2 * DRAWS
    for side in (SIDE_CN, SIDE_CO):
        entries = [forms for case in want.values()
                   for key, forms in case.items() if key.startswith(side)]
        assert len(entries) > 100
        assert any(f != "0" for forms in entries
                   for f in forms.split(", ")[1:])


if __name__ == "__main__":
    json.dump(derived_table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

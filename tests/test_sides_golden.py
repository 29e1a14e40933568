"""Golden normal forms of derived (co)homology on both sides.

``tests/data/derived_golden.json`` pins H_0..H_3 (side cn) and H^0..H^3
(side co) at every vertex whose stalk resolution fits the window, for
seeded ``random_representation`` draws over Z, Q, F_3 and Z/9 on double
A_3 and on repetitive A_2 with window (-6, 6).  The table was recorded
while each side still had its own assembly code, so it checks that the
shared orientation rule reads both sides as before.  Twelve repetitive
entries were recorded again when ``random_representation`` began to draw
its summands at interior vertices only: their draws had changed, and
some of the old ones were not mesh-valid.  Rebuild it with

    PYTHONPATH=src python tests/test_sides_golden.py > tests/data/derived_golden.json

only for a change that is meant to alter these normal forms.
"""

import json
import random
import sys
from pathlib import Path

from qshape import MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.errors import WindowTooSmall
from qshape.homology import SIDE_CN, SIDE_CO, derived_homology
from qshape.quiver import format_vertex
from qshape.repmod import random_representation

GOLDEN = Path(__file__).resolve().parent / "data" / "derived_golden.json"
RINGS = (ZZ, QQ, Zmod(3), Zmod(9))
DRAWS = 4
MAX_DEGREE = 3


def categories(ring):
    return {"double A_3": MeshCategory(build_double_an(3), ring),
            "repetitive A_2 (-6, 6)":
                MeshCategory(build_repetitive_an(2, (-6, 6)), ring)}


def derived_table() -> dict:
    """{"ring / category / draw": {"side vertex": "H_0, .., H_3"}}."""
    table = {}
    for r, ring in enumerate(RINGS):
        for c, (name, C) in enumerate(categories(ring).items()):
            rng = random.Random(10 * r + c)
            for draw in range(DRAWS):
                X = random_representation(C, rng)
                forms = {}
                for q in C.vertices:
                    for side in (SIDE_CN, SIDE_CO):
                        try:
                            H = derived_homology(X, q, side, MAX_DEGREE)
                        except WindowTooSmall:
                            continue
                        forms[f"{side} {format_vertex(q)}"] = ", ".join(
                            H[i].describe() for i in range(MAX_DEGREE + 1))
                table[f"{ring!r} / {name} / {draw}"] = forms
    return table


def test_both_sides_match_the_golden_table():
    want = json.loads(GOLDEN.read_text())
    got = derived_table()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


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

"""Golden output of the seeded samplers in ``qshape.repmod``.

``tests/data/samplers_golden.json`` pins, as ``representation_json`` /
``morphism_json`` output:

* ``random_free_representation`` twice, then ``random_morphism`` between
  the two draws, over F_2, F_3 and F_5 on double A_2..A_5;
* ``random_representation`` over Z, Q, F_3 and Z/9 on double A_2..A_4;
* ``random_complex`` -> ``complex_to_rep`` -> ``rep_to_complex`` over Z
  and Z/5 on repetitive A_2 with window (-6, 6).

The table was recorded while the samplers still filled their linear
systems and blocks entry by entry and picked arrows by name, so it
checks that the matrix-algebra constructions draw the same objects from
the same seeds.  Rebuild it with

    PYTHONPATH=src python tests/test_samplers_golden.py > tests/data/samplers_golden.json

only for a change that is meant to alter what the samplers draw.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from qshape import MeshCategory, QQ, ZZ, Zmod, build_double_an, \
    build_repetitive_an
from qshape.io import morphism_json, representation_json, value_json
from qshape.repmod import (complex_to_rep, random_complex,
                           random_free_representation, random_morphism,
                           random_representation, rep_to_complex)

GOLDEN = Path(__file__).resolve().parent / "data" / "samplers_golden.json"
DRAWS = 3


def free_morphisms(rng, ring, n):
    C = MeshCategory(build_double_an(n), ring)
    out = []
    for _ in range(DRAWS):
        X = random_free_representation(C, rng)
        Y = random_free_representation(C, rng)
        out.append(morphism_json(random_morphism(X, Y, rng)))
    return out


def cokernel_representations(rng, ring, n):
    C = MeshCategory(build_double_an(n), ring)
    return [representation_json(random_representation(C, rng))
            for _ in range(DRAWS)]


def complex_round_trips(rng, ring):
    C = MeshCategory(build_repetitive_an(2, (-6, 6)), ring)
    out = []
    for _ in range(2 * DRAWS):
        X = complex_to_rep(C, random_complex(ring, rng))
        back = rep_to_complex(X)
        out.append({"rep": representation_json(X),
                    "modules": {str(k): value_json(m)
                                for k, m in sorted(back.modules.items())},
                    "differentials": {str(k): d.to_json()
                                      for k, d in sorted(back.differentials.items())}})
    return out


CASES = {f"free F_{p} double A_{n}": (free_morphisms, Zmod(p), n)
         for p in (2, 3, 5) for n in (2, 3, 4, 5)}
CASES |= {f"cokernel {ring!r} double A_{n}": (cokernel_representations, ring, n)
          for ring in (ZZ, QQ, Zmod(3), Zmod(9)) for n in (2, 3, 4)}
CASES |= {f"complex {ring!r} repetitive A_2 (-6, 6)": (complex_round_trips, ring)
          for ring in (ZZ, Zmod(5))}


def draw(case):
    """The sampler output for one case, seeded by the case name."""
    sampler, *args = CASES[case]
    return sampler(random.Random(case), *args)


@pytest.mark.parametrize("case", sorted(CASES))
def test_samplers_match_the_golden_table(case):
    assert draw(case) == json.loads(GOLDEN.read_text())[case]


def test_golden_table_is_not_trivial():
    # nonzero morphism components, relations and differentials all occur,
    # so a sampler that zeroes one of them shows
    want = json.loads(GOLDEN.read_text())
    assert set(want) == set(CASES)

    def nonzero(kind, field):
        return any(x not in (0, "0")
                   for case, draws in want.items() if case.startswith(kind)
                   for d in draws for M in d[field].values()
                   for x in M["entries"])
    assert nonzero("free", "components")
    assert nonzero("complex", "differentials")
    assert any("relations" in value for case, draws in want.items()
               if case.startswith("cokernel")
               for d in draws for value in d["values"].values())


if __name__ == "__main__":
    lines = [f" {json.dumps(case)}: {json.dumps(draw(case), sort_keys=True)}"
             for case in sorted(CASES)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")

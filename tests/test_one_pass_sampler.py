"""Building a representation eliminates nothing.

``random_representation`` writes each value's relations in one pass into
one flat list.  It is compared here with the route it replaced
(``random_representation_by_blocks`` in tests/oracles.py), where every
block was a sum of scaled multiplication matrices, hstacked and
vstacked: the same values in the same order, relation and arrow entries
equal and of the same type, the same support, and the generator left in
the same state.  A representation's support is read on demand, so the
constructions, and parsing one, call neither ``_smith`` on a nonempty
matrix nor ``_rref``.
"""

import json
import random

import pytest

from qshape import Matrix, MeshCategory, PresentedModule, QQ, ZZ, Zmod, \
    build_double_an, build_repetitive_an
from qshape.exactalg import smith
from qshape.io import parse_representation, representation_json
from qshape.repmod import cofree_at, free_at, random_representation

from oracles import random_representation_by_blocks

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))
SEEDS = range(12)


def categories(ring):
    """Double A_2..A_5 and repetitive A_2..A_4 on the window (-3, 3)."""
    return [MeshCategory(build_double_an(n), ring) for n in (2, 3, 4, 5)] + \
        [MeshCategory(build_repetitive_an(n, (-3, 3)), ring) for n in (2, 3, 4)]


def typed(M: Matrix):
    return M.rows, M.cols, [(type(x), x) for x in M.entries]


def eliminations(monkeypatch) -> list:
    """Every _smith call on a nonempty matrix and every _rref call."""
    calls = []
    original_smith, original_rref = smith._smith, smith._rref

    def counting_smith(entries, rows, cols, m, u=True, v=True):
        if rows and cols:
            calls.append(("_smith", rows, cols))
        return original_smith(entries, rows, cols, m, u, v)

    def counting_rref(M, reduced=True):
        calls.append(("_rref", M.rows, M.cols))
        return original_rref(M, reduced)
    monkeypatch.setattr(smith, "_smith", counting_smith)
    monkeypatch.setattr(smith, "_rref", counting_rref)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_one_pass_sampler_matches_the_block_route(ring):
    draws = entries = 0
    for C in categories(ring):
        for summands in range(1, 6):
            for seed in SEEDS:
                rng = random.Random(f"{C!r} {summands} {seed}")
                ref_rng = random.Random(f"{C!r} {summands} {seed}")
                X = random_representation(C, rng, summands)
                Y = random_representation_by_blocks(C, ref_rng, summands)
                assert list(X.values) == list(Y.values)
                for v, m in X.values.items():
                    assert m.generators == Y.values[v].generators
                    assert typed(m.relations) == typed(Y.values[v].relations)
                    entries += sum(1 for x in m.relations.entries if x)
                assert list(X.arrow_maps) == list(Y.arrow_maps)
                for name, M in X.arrow_maps.items():
                    assert typed(M) == typed(Y.arrow_maps[name])
                assert X.support == Y.support
                assert rng.getstate() == ref_rng.getstate()
                draws += 1
    assert draws == 7 * 5 * len(SEEDS) == 420
    assert entries == {"ZZ": 3010, "QQ": 2709, "Zmod(3)": 2839,
                       "Zmod(4)": 2823, "Zmod(9)": 2737}[repr(ring)]


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_constructions_eliminate_nothing(ring, monkeypatch):
    # a value with a relation is built with its normal form unknown; each
    # construction below used to take one per value when X was built
    modules = [PresentedModule.free(ring, 1),
               PresentedModule(ring, 2, Matrix.column(ring, [2, 0]))]
    built = []
    calls = eliminations(monkeypatch)
    for C in categories(ring):
        rng = random.Random(repr(C))
        for _ in range(3):
            built.append(random_representation(C, rng, summands=4))
        for q in C.vertices:
            for M in modules:
                built += [free_at(C, q, M), cofree_at(C, q, M)]
    assert calls == []
    parsed = [parse_representation(json.loads(json.dumps(representation_json(X))))
              for X in built]
    assert calls == []
    assert len(built) == 7 * 3 + 2 * 2 * sum(len(C.vertices)
                                             for C in categories(ring))
    # the support, read afterwards, takes the values' normal forms
    assert [X.support for X in parsed] == [X.support for X in built]
    assert calls

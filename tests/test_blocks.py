"""One block layout: ``Matrix.blocks`` places every block of every block
matrix, and ``hstack``, ``vstack`` and ``block_diag`` are its layouts.

Each is compared with ``tests/oracles.py::blocks_by_entry``, which asks
for every entry which block holds it, on seeded layouts over every ring
kind: absent blocks, zero-height and zero-width blocks, a block as wide
as the matrix, and the empty layout.  Results must be byte-identical:
the same entries of the same types, and the same JSON.
"""

import random
from fractions import Fraction

import pytest

from oracles import blocks_by_entry
from qshape import QQ, ZZ, Zmod, Matrix
from qshape.errors import InvalidParameter

RINGS = (ZZ, QQ, Zmod(3), Zmod(4), Zmod(9))


def random_matrix(ring, rng, rows, cols):
    entries = [rng.randint(-9, 9) for _ in range(rows * cols)]
    if ring == QQ:
        entries = [Fraction(x, rng.randint(1, 4)) for x in entries]
    return Matrix(ring, rows, cols, entries)


def assert_identical(M, ref):
    assert (M.ring, M.rows, M.cols) == (ref.ring, ref.rows, ref.cols)
    assert M.entries == ref.entries
    assert [type(x) for x in M.entries] == [type(x) for x in ref.entries]
    assert M.to_json() == ref.to_json()


def random_layout(ring, rng):
    row_dims = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
    col_dims = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
    layout = {(a, b): random_matrix(ring, rng, r, c)
              for a, r in enumerate(row_dims) for b, c in enumerate(col_dims)
              if rng.random() < 0.6}
    return layout, row_dims, col_dims


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_blocks_match_the_entry_reference(ring):
    rng = random.Random(f"blocks:{ring!r}")
    absent = zero_sized = 0
    for _ in range(300):
        layout, row_dims, col_dims = random_layout(ring, rng)
        absent += len(row_dims) * len(col_dims) - len(layout)
        zero_sized += sum(not (M.rows and M.cols) for M in layout.values())
        assert_identical(Matrix.blocks(ring, layout, row_dims, col_dims),
                         blocks_by_entry(ring, layout, row_dims, col_dims))
    assert absent and zero_sized


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("case", [
    ({}, [], []),
    ({}, [2, 0, 1], [3]),
    ({(0, 0): (0, 3)}, [0], [3]),
    ({(0, 1): (2, 0)}, [2], [1, 0]),
    ({(1, 0): (2, 4)}, [1, 2, 1], [4]),
    ({(0, 0): (2, 4)}, [2], [4]),
    ({(0, 0): (1, 2), (1, 0): (3, 2), (1, 1): (3, 1)}, [1, 3], [2, 1]),
], ids=["empty layout", "absent blocks only", "zero-height block",
        "zero-width block", "one full-width block among absent rows",
        "one block", "full-width and narrow blocks"])
def test_blocks_edge_layouts(ring, case):
    rng = random.Random(f"blocks-edge:{ring!r}")
    shapes, row_dims, col_dims = case
    layout = {ab: random_matrix(ring, rng, *shape) for ab, shape in shapes.items()}
    M = Matrix.blocks(ring, layout, row_dims, col_dims)
    assert_identical(M, blocks_by_entry(ring, layout, row_dims, col_dims))
    assert (M.rows, M.cols) == (sum(row_dims), sum(col_dims))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_stacks_are_layouts_of_blocks(ring):
    rng = random.Random(f"stacks:{ring!r}")
    for _ in range(100):
        k = rng.randint(1, 4)
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        widths = [rng.randint(0, 3) for _ in range(k)]
        heights = [rng.randint(0, 3) for _ in range(k)]
        side = [random_matrix(ring, rng, rows, w) for w in widths]
        assert_identical(Matrix.hstack(side), blocks_by_entry(
            ring, {(0, j): M for j, M in enumerate(side)}, [rows], widths))
        tall = [random_matrix(ring, rng, h, cols) for h in heights]
        assert_identical(Matrix.vstack(tall), blocks_by_entry(
            ring, {(i, 0): M for i, M in enumerate(tall)}, heights, [cols]))
        diag = [random_matrix(ring, rng, h, w) for h, w in zip(heights, widths)]
        D = Matrix.block_diag(ring, diag)
        if k == 1:
            assert D is diag[0]  # the one-block shortcut shares the block
        assert_identical(D, blocks_by_entry(
            ring, {(i, i): M for i, M in enumerate(diag)}, heights, widths))
    assert_identical(Matrix.block_diag(ring, []), Matrix.zeros(ring, 0, 0))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("widths, shared", [
    ([0], 0), ([0, 0, 0], 0), ([2], 0), ([0, 3], 1), ([0, 1, 0], 1),
    ([2, 0, 0], 0),
], ids=["one empty block", "empty blocks only", "one block",
        "wide block last", "wide block between empty ones", "wide block first"])
def test_hstack_shares_its_one_wide_block(ring, widths, shared):
    """With at most one block that has columns, hstack returns that block,
    or its first block when none has any: matrices are immutable."""
    rng = random.Random(f"hstack-shared:{ring!r}:{widths}")
    for rows in (0, 1, 3):
        side = [random_matrix(ring, rng, rows, w) for w in widths]
        M = Matrix.hstack(side)
        assert M is side[shared]
        assert_identical(M, blocks_by_entry(
            ring, {(0, j): B for j, B in enumerate(side)}, [rows], widths))


def test_each_layout_is_one_construction(monkeypatch):
    built = []
    plain = Matrix._trusted

    def trusted(ring, rows, cols, entries):
        built.append((rows, cols))
        return plain(ring, rows, cols, entries)

    A, B = Matrix(ZZ, 2, 2, [1, 2, 3, 4]), Matrix(ZZ, 2, 1, [5, 6])
    monkeypatch.setattr(Matrix, "_trusted", staticmethod(trusted))
    Matrix.hstack([A, B])
    Matrix.vstack([A, A])
    Matrix.block_diag(ZZ, [A, B])
    Matrix.blocks(ZZ, {(1, 0): B}, [1, 2], [1, 3])
    assert built == [(2, 3), (4, 2), (4, 3), (3, 4)]


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix.hstack([]), "hstack of nothing"),
    (lambda: Matrix.vstack(iter(())), "vstack of nothing"),
    (lambda: Matrix.hstack([Matrix.zeros(ZZ, 2, 1), Matrix.zeros(ZZ, 1, 1)]),
     "hstack shape mismatch"),
    (lambda: Matrix.vstack([Matrix.zeros(ZZ, 1, 2), Matrix.zeros(ZZ, 1, 1)]),
     "vstack shape mismatch"),
    (lambda: Matrix.hstack([Matrix.zeros(ZZ, 1, 1), Matrix.zeros(QQ, 1, 1)]),
     "hstack shape mismatch"),
    (lambda: Matrix.vstack([Matrix.zeros(Zmod(3), 1, 1),
                            Matrix.zeros(Zmod(9), 1, 1)]),
     "vstack shape mismatch"),
], ids=["hstack of nothing", "vstack of nothing", "hstack rows",
        "vstack cols", "hstack rings", "vstack rings"])
def test_stack_errors_are_unchanged(call, message):
    with pytest.raises(InvalidParameter) as exc:
        call()
    assert str(exc.value) == message

"""Immutable exact matrices over a base ring.

Entries are stored row-major as a flat tuple of canonical ring elements
(see ``BaseRing.canon``): ints over Z, ints in [0, m) over Z/m, Fractions
over Q.  Every operation relies on that invariant, and all operations
return new matrices; a Matrix is hashable and safe to share between
threads.

There are two ways to build one:

* ``Matrix(ring, rows, cols, entries)`` is the public constructor.  It
  takes values from outside the library, refuses inexact ones (floats,
  bools, non-integral Fractions over Z or Z/m) and canonicalises the rest.
* ``Matrix._trusted(ring, rows, cols, entries)`` is for entries the
  library has just produced in canonical form: products, stacks,
  selections and elimination outputs.  It stores them as they are, so a
  caller that hands it a non-canonical entry breaks the invariant.

``Matrix.blocks`` alone decides where a block goes in the flat list;
``hstack``, ``vstack`` and ``block_diag`` are layouts passed to it.
"""

from __future__ import annotations

from itertools import accumulate

from ..errors import InvalidParameter
from .rings import BaseRing


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: BaseRing, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise InvalidParameter("matrix dimensions must be nonnegative")
        entries = tuple(map(ring.element, entries))
        if len(entries) != rows * cols:
            raise InvalidParameter(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def _trusted(ring: BaseRing, rows: int, cols: int, entries) -> "Matrix":
        """A matrix on entries that are already canonical, stored unchecked."""
        M = object.__new__(Matrix)
        M.ring = ring
        M.rows = rows
        M.cols = cols
        M.entries = tuple(entries)
        return M

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(ring: BaseRing, rows_data) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        if any(len(row) != c for row in rows_data):
            raise InvalidParameter("ragged rows")
        return Matrix(ring, r, c, [x for row in rows_data for x in row])

    @staticmethod
    def zeros(ring: BaseRing, rows: int, cols: int) -> "Matrix":
        return Matrix._trusted(ring, rows, cols, (ring.zero,) * (rows * cols))

    @staticmethod
    def identity(ring: BaseRing, n: int) -> "Matrix":
        return Matrix._trusted(ring, n, n,
                               [ring.one if i == j else ring.zero
                                for i in range(n) for j in range(n)])

    @staticmethod
    def column(ring: BaseRing, data) -> "Matrix":
        data = list(data)
        return Matrix(ring, len(data), 1, data)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- predicates -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for x in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.ring == other.ring
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.rows}x{self.cols}, {self.to_lists()})"

    # -- arithmetic ---------------------------------------------------------------

    def _same_shape(self, other):
        if self.ring != other.ring or self.rows != other.rows \
                or self.cols != other.cols:
            raise InvalidParameter("shape or ring mismatch")

    def _reduced(self, rows, cols, values) -> "Matrix":
        """A matrix on raw sums and products of canonical entries: those are
        canonical over Z and Q, and one ``% m`` makes them so over Z/m."""
        modulus = self.ring.modulus
        if modulus is not None:
            values = [x % modulus for x in values]
        return Matrix._trusted(self.ring, rows, cols, values)

    def __add__(self, other) -> "Matrix":
        self._same_shape(other)
        return self._reduced(self.rows, self.cols,
                             [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other) -> "Matrix":
        self._same_shape(other)
        return self._reduced(self.rows, self.cols,
                             [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return self._reduced(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        """c times the matrix; an inexact c is refused, as by the constructor."""
        c = self.ring.element(c)
        return self._reduced(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other) -> "Matrix":
        if self.ring != other.ring or self.cols != other.rows:
            raise InvalidParameter("incompatible product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        zero = self.ring.zero
        out = []
        for i in range(n):
            nonzero = [(t * m, x) for t, x in enumerate(a[i * k:(i + 1) * k]) if x]
            for j in range(m):
                s = zero
                for off, x in nonzero:
                    s += x * b[off + j]
                out.append(s)
        return self._reduced(n, m, out)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.ring, self.cols, self.rows,
                               [self.entries[i * self.cols + j]
                                for j in range(self.cols) for i in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (self ⊗ other)[(i,k),(j,l)] = self[i,j]*other[k,l]."""
        R, C = self.rows * other.rows, self.cols * other.cols
        out = [self.ring.zero] * (R * C)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i * self.cols + j]
                if not a:
                    continue
                for k in range(other.rows):
                    base = (i * other.rows + k) * C + j * other.cols
                    row = other.entries[k * other.cols:(k + 1) * other.cols]
                    out[base:base + other.cols] = [a * b for b in row]
        return self._reduced(R, C, out)

    # -- assembly -----------------------------------------------------------------

    @staticmethod
    def blocks(ring: BaseRing, layout, row_dims, col_dims) -> "Matrix":
        """The block matrix whose block (a, b), row_dims[a] x col_dims[b], is
        layout[a, b], or zero where layout has no (a, b)."""
        row_off = [0, *accumulate(row_dims)]
        col_off = [0, *accumulate(col_dims)]
        rows, cols = row_off[-1], col_off[-1]
        out = [ring.zero] * (rows * cols)
        for (a, b), blk in layout.items():
            start, width, entries = row_off[a] * cols + col_off[b], blk.cols, blk.entries
            if blk.rows == 1 or width == cols:  # its rows are adjacent: one slice
                out[start:start + len(entries)] = entries
            else:
                for k in range(0, len(entries), width or 1):
                    out[start:start + width] = entries[k:k + width]
                    start += cols
        return Matrix._trusted(ring, rows, cols, out)

    @staticmethod
    def hstack(matrices) -> "Matrix":
        layout = {(0, j): m for j, m in enumerate(matrices)}
        if not layout:
            raise InvalidParameter("hstack of nothing")
        ring, rows = layout[0, 0].ring, layout[0, 0].rows
        if any(m.rows != rows or m.ring != ring for m in layout.values()):
            raise InvalidParameter("hstack shape mismatch")
        wide = [m for m in layout.values() if m.cols]
        if len(wide) <= 1:  # matrices are immutable, so that block is shared
            return wide[0] if wide else layout[0, 0]
        return Matrix.blocks(ring, layout, [rows], [m.cols for m in layout.values()])

    @staticmethod
    def vstack(matrices) -> "Matrix":
        layout = {(i, 0): m for i, m in enumerate(matrices)}
        if not layout:
            raise InvalidParameter("vstack of nothing")
        ring, cols = layout[0, 0].ring, layout[0, 0].cols
        if any(m.cols != cols or m.ring != ring for m in layout.values()):
            raise InvalidParameter("vstack shape mismatch")
        return Matrix.blocks(ring, layout, [m.rows for m in layout.values()], [cols])

    @staticmethod
    def block_diag(ring: BaseRing, matrices) -> "Matrix":
        layout = {(k, k): m for k, m in enumerate(matrices)}
        if len(layout) == 1:  # matrices are immutable, so one block is shared
            return layout[0, 0]
        return Matrix.blocks(ring, layout, [m.rows for m in layout.values()],
                             [m.cols for m in layout.values()])

    def take_columns(self, indices) -> "Matrix":
        indices = list(indices)
        out = []
        for i in range(self.rows):
            row = self.row(i)
            out.extend(row[j] for j in indices)
        return Matrix._trusted(self.ring, self.rows, len(indices), out)

    def take_rows(self, indices) -> "Matrix":
        indices = list(indices)
        out = []
        for i in indices:
            out.extend(self.row(i))
        return Matrix._trusted(self.ring, len(indices), self.cols, out)

    # -- serialization ---------------------------------------------------------------

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [self.ring.format_entry(x) for x in self.entries]}

    @staticmethod
    def from_json(ring: BaseRing, data) -> "Matrix":
        if not isinstance(data, dict) or {"rows", "cols", "entries"} - set(data):
            raise InvalidParameter("matrix object needs rows/cols/entries")
        rows, cols = data["rows"], data["cols"]
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (rows, cols)):
            raise InvalidParameter("rows and cols must be integers")
        if not isinstance(data["entries"], list):
            raise InvalidParameter("entries must be a list")
        try:
            entries = [ring.parse_entry(x) for x in data["entries"]]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"bad matrix entry: {exc}") from None
        return Matrix(ring, rows, cols, entries)

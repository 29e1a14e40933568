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
"""

from __future__ import annotations

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

    def column_matrix(self, j) -> "Matrix":
        return Matrix._trusted(self.ring, self.rows, 1, self.col(j))

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
    def hstack(matrices) -> "Matrix":
        matrices = [m for m in matrices]
        if not matrices:
            raise InvalidParameter("hstack of nothing")
        ring, rows = matrices[0].ring, matrices[0].rows
        if any(m.rows != rows or m.ring != ring for m in matrices):
            raise InvalidParameter("hstack shape mismatch")
        out = []
        for i in range(rows):
            for m in matrices:
                out.extend(m.row(i))
        return Matrix._trusted(ring, rows, sum(m.cols for m in matrices), out)

    @staticmethod
    def vstack(matrices) -> "Matrix":
        matrices = [m for m in matrices]
        if not matrices:
            raise InvalidParameter("vstack of nothing")
        ring, cols = matrices[0].ring, matrices[0].cols
        if any(m.cols != cols or m.ring != ring for m in matrices):
            raise InvalidParameter("vstack shape mismatch")
        out = []
        for m in matrices:
            out.extend(m.entries)
        return Matrix._trusted(ring, sum(m.rows for m in matrices), cols, out)

    @staticmethod
    def block_diag(ring: BaseRing, matrices) -> "Matrix":
        matrices = [m for m in matrices]
        R = sum(m.rows for m in matrices)
        C = sum(m.cols for m in matrices)
        out = [ring.zero] * (R * C)
        r0 = c0 = 0
        for m in matrices:
            for i in range(m.rows):
                for j in range(m.cols):
                    out[(r0 + i) * C + (c0 + j)] = m.entries[i * m.cols + j]
            r0 += m.rows
            c0 += m.cols
        return Matrix._trusted(ring, R, C, out)

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

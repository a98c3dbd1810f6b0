"""Sparse exact integer matrices and rank over the rationals.

Everything here is integer arithmetic; rank uses fraction-free elimination
(cross-multiplication with gcd reduction), so no floating point ever enters
it.  ``IntMatrix`` is the stored and exported form of a model's
generators; the package itself never adds, subtracts or multiplies one.
Relations, gaps, dimensions, corners and embedding checks read the
partial-permutation generators' col -> row maps instead (see
``ck_matrix.PathMaps``).  The matrix algebra below, and ``exact_rank``
over every path-pair unit, serve the tests' oracle routes.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping


class IntMatrix:
    """A square integer matrix stored as a zero-free {(row, col): value} dict."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], int] | None = None):
        self.dim = dim
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for pos, val in entries.items():
                if val:
                    self.entries[pos] = val

    @staticmethod
    def zero(dim: int) -> "IntMatrix":
        return IntMatrix(dim)

    @staticmethod
    def identity(dim: int) -> "IntMatrix":
        return IntMatrix(dim, {(i, i): 1 for i in range(dim)})

    @staticmethod
    def from_diag(indices: Iterable[int], dim: int) -> "IntMatrix":
        return IntMatrix(dim, {(i, i): 1 for i in indices})

    @staticmethod
    def from_partial_perm(col_to_row: Mapping[int, int], dim: int) -> "IntMatrix":
        """0/1 matrix sending basis vector ``col`` to basis vector ``row``."""
        return IntMatrix(dim, {(r, c): 1 for c, r in col_to_row.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.entries.items())))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        out = dict(self.entries)
        for pos, val in other.entries.items():
            new = out.get(pos, 0) + val
            if new:
                out[pos] = new
            else:
                out.pop(pos, None)
        return IntMatrix(self.dim, out)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        out = dict(self.entries)
        for pos, val in other.entries.items():
            new = out.get(pos, 0) - val
            if new:
                out[pos] = new
            else:
                out.pop(pos, None)
        return IntMatrix(self.dim, out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # rows of other, indexed by their row number
        rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for (r, k), va in self.entries.items():
            for c, vb in rows.get(k, ()):
                pos = (r, c)
                new = out.get(pos, 0) + va * vb
                if new:
                    out[pos] = new
                else:
                    out.pop(pos, None)
        return IntMatrix(self.dim, out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def partial_permutation_map(self) -> dict[int, int] | None:
        """The col -> row map if every entry is 1 and no two entries share
        a row or a column; None otherwise."""
        cols = {c: r for r, c in self.entries}
        if (len(cols) == len(self.entries) == len(set(cols.values()))
                and set(self.entries.values()) <= {1}):
            return cols
        return None

    def is_partial_permutation(self) -> bool:
        return self.partial_permutation_map() is not None

    def to_triples(self) -> list[list[int]]:
        return [[r, c, v] for (r, c), v in sorted(self.entries.items())]

    def vectorize(self) -> dict[int, int]:
        """Flatten to a sparse vector keyed by row * dim + col."""
        d = self.dim
        return {r * d + c: v for (r, c), v in self.entries.items()}

    def __repr__(self) -> str:
        return f"IntMatrix(dim={self.dim}, nnz={len(self.entries)})"


def _reduce_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def exact_rank(vectors: Iterable[Mapping[int, int]]) -> int:
    """Rank over the rationals of a family of sparse integer vectors.

    Online fraction-free Gaussian elimination: each incoming vector is
    reduced against the pivot rows found so far via cross-multiplication
    (keeping everything integral), then becomes a new pivot if anything
    survives.  Sorting by support size keeps the common matrix-unit inputs
    near-orthogonal and the elimination cheap.  Each vector is copied once
    and updated in place; a row is scaled and gcd-reduced only when the
    pivot's lead is not 1, and every new pivot is gcd-reduced.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot position -> row
    rank = 0
    rows = sorted(({k: v for k, v in vec.items() if v} for vec in vectors),
                  key=len)
    for row in rows:
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                _reduce_row(row)
                pivots[lead] = row
                rank += 1
                break
            a = pivot_row[lead]
            b = row[lead]
            # row := a*row - b*pivot_row  (kills position `lead`)
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in pivot_row.items():
                nv = row.get(k, 0) - b * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            if a != 1:
                _reduce_row(row)
    return rank

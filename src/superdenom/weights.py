"""Exact linear algebra over the epsilon/delta coordinate lattice.

A weight is a rational coordinate vector over the split basis
eps_1..eps_m, delta_1..delta_n, stored as one flat tuple of all m+n
coordinates (the eps block first) together with m.  Arithmetic, sorting
and hashing work on the flat tuple; the bilinear form, the pretty printer
and `weight_json`, the one serializer, read the split.  The invariant
bilinear form is diagonal:
(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij, mixed pairs 0.
Everything runs in exact rational arithmetic; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import add, sub
from typing import Optional, Sequence

from .errors import StructuralError

ZERO = Q(0)
ONE = Q(1)


def _frac_tuple(values) -> tuple:
    return tuple(v if isinstance(v, Q) else Q(v) for v in values)


@dataclass(frozen=True)
class Weight:
    """Immutable rational vector: the eps block, then the delta block."""

    values: tuple
    m: int

    @staticmethod
    def make(eps, delta=()) -> "Weight":
        return Weight(_frac_tuple(eps) + _frac_tuple(delta), len(eps))

    @staticmethod
    def zero(m: int, n: int) -> "Weight":
        return Weight((ZERO,) * (m + n), m)

    @staticmethod
    def unit(k: int, m: int, n: int) -> "Weight":
        """The k-th basis vector of the flat layout; k is 0-based."""
        coords = [ZERO] * (m + n)
        coords[k] = ONE
        return Weight(tuple(coords), m)

    @staticmethod
    def eps_unit(i: int, m: int, n: int) -> "Weight":
        """eps_i as a weight; i is 1-based."""
        return Weight.unit(i - 1, m, n)

    @staticmethod
    def delta_unit(j: int, m: int, n: int) -> "Weight":
        """delta_j as a weight; j is 1-based."""
        return Weight.unit(m + j - 1, m, n)

    def dims(self) -> tuple:
        return (self.m, len(self.values) - self.m)

    def coords(self) -> tuple:
        """All coordinates, eps block first."""
        return self.values

    def is_zero(self) -> bool:
        return not any(self.values)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(add, self.values, other.values)), self.m)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(sub, self.values, other.values)), self.m)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.values), self.m)

    def scale(self, c) -> "Weight":
        c = c if isinstance(c, Q) else Q(c)
        return Weight(tuple(c * a for a in self.values), self.m)

    def _check(self, other: "Weight") -> None:
        if self.m != other.m or len(self.values) != len(other.values):
            raise StructuralError(
                "weight dimension mismatch: %s vs %s" % (self.dims(), other.dims())
            )

    def pretty(self) -> str:
        """Readable form such as 'e1 - d2' or '1/2*e1 + 3/2*d1'."""
        parts = []
        for k, c in enumerate(self.values):
            if c == 0:
                continue
            name = "e%d" % (k + 1) if k < self.m else "d%d" % (k - self.m + 1)
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s*%s" % (c, name))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.pretty()


def weight_json(w: Weight) -> dict:
    """The eps and delta coordinate lists of w, rationals as strings."""
    return {"eps": [str(c) for c in w.values[:w.m]],
            "delta": [str(c) for c in w.values[w.m:]]}


def bilinear_form(x: Weight, y: Weight):
    """Invariant form: +1 on eps coordinates, -1 on delta coordinates."""
    if x.dims() != y.dims():
        raise StructuralError(
            "form needs equal dimensions: %s vs %s" % (x.dims(), y.dims())
        )
    acc = ZERO
    for k, (a, b) in enumerate(zip(x.values, y.values)):
        if a and b:
            acc = acc + a * b if k < x.m else acc - a * b
    return acc


class Elimination:
    """Gauss-Jordan elimination of a fixed list of columns, over Fraction.

    Columns are equal-length coordinate tuples.  Pivots are taken in column
    order and free variables are pinned to zero, so the answer is unique
    whenever the columns are independent.  The row operations are kept as a
    transform, so each solve is one matrix-vector product.
    """

    def __init__(self, columns: Sequence[tuple]):
        self.ncols = len(columns)
        dim = len(columns[0]) if columns else 0
        aug = [[col[i] for col in columns] +
               [ONE if k == i else ZERO for k in range(dim)]
               for i in range(dim)]
        pivots = []
        r = 0
        for c in range(self.ncols):
            row = next((i for i in range(r, dim) if aug[i][c] != 0), None)
            if row is None:
                continue
            aug[r], aug[row] = aug[row], aug[r]
            inv = ONE / aug[r][c]
            aug[r] = [v * inv for v in aug[r]]
            for i in range(dim):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        self.rank = r
        self.pivots = tuple(pivots)
        self.transform = [row[self.ncols:] for row in aug]

    def solve(self, target: Sequence) -> Optional[list]:
        """x with sum_j x_j * columns[j] = target, or None if outside the span."""
        if not self.ncols:
            return [] if not any(target) else None
        out = [ZERO] * self.ncols
        for row, coeffs in enumerate(self.transform):
            acc = ZERO
            for cv, tv in zip(coeffs, target):
                if tv and cv:
                    acc += cv * tv
            if row < self.rank:
                out[self.pivots[row]] = acc
            elif acc != 0:
                return None
        return out

    def cone(self, target: Sequence, ring: str = "integer"
             ) -> Optional[tuple]:
        """Nonnegative coordinates of target; integral unless ring='rational'."""
        if ring not in ("integer", "rational"):
            raise StructuralError("unknown ring %r" % ring)
        sol = self.solve(target)
        if sol is None or any(c < 0 for c in sol):
            return None
        if ring == "integer" and any(c.denominator != 1 for c in sol):
            return None
        return tuple(sol)


def solve_in_span(vectors: Sequence[Weight], target: Weight) -> Optional[list]:
    """Exact coordinates of target in span(vectors), or None if outside."""
    return Elimination([v.coords() for v in vectors]).solve(target.coords())


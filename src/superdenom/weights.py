"""Exact linear algebra over the epsilon/delta coordinate lattice.

A weight is a rational coordinate vector over the split basis
eps_1..eps_m, delta_1..delta_n.  The invariant bilinear form is diagonal:
(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij, mixed pairs 0.
Everything runs in exact rational arithmetic; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional, Sequence

from .errors import StructuralError

ZERO = Q(0)
ONE = Q(1)


def _frac_tuple(values) -> tuple:
    return tuple(v if isinstance(v, Q) else Q(v) for v in values)


@dataclass(frozen=True)
class Weight:
    """Immutable rational vector split into an eps block and a delta block."""

    eps: tuple
    delta: tuple = ()

    @staticmethod
    def make(eps, delta=()) -> "Weight":
        return Weight(_frac_tuple(eps), _frac_tuple(delta))

    @staticmethod
    def zero(m: int, n: int) -> "Weight":
        return Weight((ZERO,) * m, (ZERO,) * n)

    @staticmethod
    def eps_unit(i: int, m: int, n: int) -> "Weight":
        """eps_i as a weight; i is 1-based."""
        coords = [ZERO] * m
        coords[i - 1] = ONE
        return Weight(tuple(coords), (ZERO,) * n)

    @staticmethod
    def delta_unit(j: int, m: int, n: int) -> "Weight":
        """delta_j as a weight; j is 1-based."""
        coords = [ZERO] * n
        coords[j - 1] = ONE
        return Weight((ZERO,) * m, tuple(coords))

    def dims(self) -> tuple:
        return (len(self.eps), len(self.delta))

    def coords(self) -> tuple:
        """Merged coordinate tuple, eps block first."""
        return self.eps + self.delta

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.eps) and all(c == 0 for c in self.delta)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.delta, other.delta)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(
            tuple(a - b for a, b in zip(self.eps, other.eps)),
            tuple(a - b for a, b in zip(self.delta, other.delta)),
        )

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.eps), tuple(-a for a in self.delta))

    def scale(self, c) -> "Weight":
        c = c if isinstance(c, Q) else Q(c)
        return Weight(tuple(c * a for a in self.eps), tuple(c * a for a in self.delta))

    def _check(self, other: "Weight") -> None:
        if self.dims() != other.dims():
            raise StructuralError(
                "weight dimension mismatch: %s vs %s" % (self.dims(), other.dims())
            )

    def pretty(self) -> str:
        """Readable form such as 'e1 - d2' or '1/2*e1 + 3/2*d1'."""
        parts = []
        for label, block in (("e", self.eps), ("d", self.delta)):
            for idx, c in enumerate(block, start=1):
                if c == 0:
                    continue
                if c == 1:
                    body = "%s%d" % (label, idx)
                elif c == -1:
                    body = "-%s%d" % (label, idx)
                else:
                    body = "%s*%s%d" % (c, label, idx)
                parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.pretty()


def bilinear_form(x: Weight, y: Weight):
    """Invariant form: +1 on eps coordinates, -1 on delta coordinates."""
    if x.dims() != y.dims():
        raise StructuralError(
            "form needs equal dimensions: %s vs %s" % (x.dims(), y.dims())
        )
    acc = ZERO
    for a, b in zip(x.eps, y.eps):
        acc += a * b
    for a, b in zip(x.delta, y.delta):
        acc -= a * b
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
             ) -> Optional[ConeCoords]:
        """Nonnegative coordinates of target; integral unless ring='rational'."""
        if ring not in ("integer", "rational"):
            raise StructuralError("unknown ring %r" % ring)
        sol = self.solve(target)
        if sol is None or any(c < 0 for c in sol):
            return None
        if ring == "integer" and any(c.denominator != 1 for c in sol):
            return None
        return ConeCoords(tuple(sol))


def solve_in_span(vectors: Sequence[Weight], target: Weight) -> Optional[list]:
    """Exact coordinates of target in span(vectors), or None if outside."""
    return Elimination([v.coords() for v in vectors]).solve(target.coords())


@dataclass(frozen=True)
class ConeCoords:
    """Coordinates of a vector in a fixed simple-root basis."""

    coeffs: tuple

    def height(self):
        acc = ZERO
        for c in self.coeffs:
            acc += c
        return acc

    def reconstruct(self, basis: Sequence[Weight]) -> Weight:
        if len(basis) != len(self.coeffs):
            raise StructuralError("basis size mismatch")
        out = Weight.zero(*basis[0].dims())
        for c, b in zip(self.coeffs, basis):
            if c != 0:
                out = out + b.scale(c)
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def in_positive_cone(nu: Weight, basis: Sequence[Weight], ring: str = "integer"
                     ) -> Optional[ConeCoords]:
    """Express nu as a nonnegative combination of basis vectors, if possible.

    ring='integer' additionally requires integer coefficients;
    ring='rational' accepts any nonnegative rationals.
    """
    return Elimination([b.coords() for b in basis]).cone(nu.coords(), ring)


def height(mu: ConeCoords):
    """Sum of cone coordinates."""
    return mu.height()

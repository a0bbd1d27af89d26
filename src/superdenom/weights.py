"""Exact linear algebra over the epsilon/delta coordinate lattice.

A weight is a coordinate vector over the split basis eps_1..eps_m,
delta_1..delta_n.  Every weight the package builds lies in (1/2)Z: roots
are integral and rho is a half-sum of roots.  So a weight is stored as one
flat tuple of ints equal to twice its m+n coordinates (the eps block
first), together with m, and a coordinate that would leave (1/2)Z raises
StructuralError; nothing is rounded.  Hashing, equality, arithmetic and
sorting work on the doubled tuple, which orders exactly like the
coordinates.  Code that reads the coordinates themselves halves at its
boundary: `Weight.coords` returns them as Fractions, and the bilinear
form, the pretty printer and `weight_json`, the one serializer, halve as
they read.  The invariant bilinear form is diagonal:
(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij, mixed pairs 0.
`Elimination` is the one linear solve: `Elimination.numerators` gives
each coordinate as an integer numerator over a positive denominator, so
span membership, sign and integrality are decided on ints.  Rationals
are built only where a caller reads one: values of the form,
`Weight.coords`, and the simple coordinates that `SimpleSystem` turns
into Fractions (`cone_key` off the lattice, `cone`), and `Q` imports
`fractions` (which loads `re` and `decimal`) only on its first call, so
a run that builds no rational never loads it.  No floats appear
anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import add, attrgetter, mul, neg, sub

from .errors import StructuralError
from .records import Frozen, _set


def Q(*args):
    """Fraction(*args), importing `fractions` on the first call.

    That call also rebinds this module's Q to Fraction itself; modules
    that imported Q by name keep this function, which costs them one
    cached import per call.
    """
    global Q
    from fractions import Fraction
    Q = Fraction
    return Fraction(*args)


def _doubled(c) -> int:
    """2c as an int; StructuralError unless c lies in (1/2)Z."""
    if isinstance(c, int):
        return 2 * c
    twice = 2 * Q(c)
    if twice.denominator != 1:
        raise StructuralError("coordinate %s is not in (1/2)Z" % c)
    return twice.numerator


def _half(v: int) -> str:
    """The coordinate v/2 written as Fraction would write it."""
    return str(v // 2) if v % 2 == 0 else "%d/2" % v


class Weight(Frozen):
    """Immutable vector in (1/2)Z, stored doubled: eps block, delta block."""

    __slots__ = ("doubled", "m")
    _key = attrgetter(*__slots__)

    def __init__(self, doubled: tuple, m: int):
        _set(self, "doubled", doubled)
        _set(self, "m", m)

    # Written out rather than inherited: weights are hashed and compared
    # in every loop, and Frozen's generic methods take twice as long.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.doubled == other.doubled and self.m == other.m
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.doubled, self.m))

    @staticmethod
    def make(eps, delta=()) -> "Weight":
        """The weight with these coordinates, each an int or a Fraction."""
        return Weight(tuple(map(_doubled, (*eps, *delta))), len(eps))

    @staticmethod
    def zero(m: int, n: int) -> "Weight":
        return Weight((0,) * (m + n), m)

    @staticmethod
    def unit(k: int, m: int, n: int) -> "Weight":
        """The k-th basis vector of the flat layout; k is 0-based."""
        doubled = [0] * (m + n)
        doubled[k] = 2
        return Weight(tuple(doubled), m)

    @staticmethod
    def eps_unit(i: int, m: int, n: int) -> "Weight":
        """eps_i as a weight; i is 1-based."""
        return Weight.unit(i - 1, m, n)

    @staticmethod
    def delta_unit(j: int, m: int, n: int) -> "Weight":
        """delta_j as a weight; j is 1-based."""
        return Weight.unit(m + j - 1, m, n)

    def dims(self) -> tuple:
        return (self.m, len(self.doubled) - self.m)

    def coords(self) -> tuple:
        """The coordinates as Fractions, eps block first."""
        return tuple(Q(v, 2) for v in self.doubled)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(add, self.doubled, other.doubled)), self.m)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(map(sub, self.doubled, other.doubled)), self.m)

    def __neg__(self) -> "Weight":
        return Weight(tuple(map(neg, self.doubled)), self.m)

    def scale(self, c) -> "Weight":
        """c times the weight; StructuralError if it leaves (1/2)Z."""
        if isinstance(c, int):
            return Weight(tuple([c * v for v in self.doubled]), self.m)
        c = Q(c)
        out = []
        for v in self.doubled:
            q, r = divmod(c.numerator * v, c.denominator)
            if r:
                raise StructuralError("%s * (%s) leaves (1/2)Z" % (c, self))
            out.append(q)
        return Weight(tuple(out), self.m)

    def _check(self, other: "Weight") -> None:
        if self.m != other.m or len(self.doubled) != len(other.doubled):
            raise StructuralError(
                "weight dimension mismatch: %s vs %s" % (self.dims(), other.dims())
            )

    def pretty(self) -> str:
        """Readable form such as 'e1 - d2' or '1/2*e1 + 3/2*d1'."""
        parts = []
        for k, v in enumerate(self.doubled):
            if v == 0:
                continue
            name = "e%d" % (k + 1) if k < self.m else "d%d" % (k - self.m + 1)
            if v == 2:
                parts.append(name)
            elif v == -2:
                parts.append("-" + name)
            else:
                parts.append("%s*%s" % (_half(v), name))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self) -> str:
        return self.pretty()


# Sort key for weights: the doubled tuple orders like the coordinates.
coordinate_order = attrgetter("doubled")


def weight_json(w: Weight) -> dict:
    """The eps and delta coordinate lists of w, rationals as strings."""
    return {"eps": [_half(v) for v in w.doubled[:w.m]],
            "delta": [_half(v) for v in w.doubled[w.m:]]}


def form4(x: Weight, y: Weight) -> int:
    """4 (x, y) as an int, for callers that only compare the form."""
    m, a, b = x.m, x.doubled, y.doubled
    if m != y.m or len(a) != len(b):
        raise StructuralError(
            "form needs equal dimensions: %s vs %s" % (x.dims(), y.dims())
        )
    return sum(map(mul, a[:m], b[:m])) - sum(map(mul, a[m:], b[m:]))


def bilinear_form(x: Weight, y: Weight) -> "Fraction":
    """Invariant form: +1 on eps coordinates, -1 on delta coordinates."""
    return Q(form4(x, y), 4)


class Elimination:
    """Fraction-free Gauss-Jordan elimination of a fixed list of int columns.

    Columns are equal-length int tuples.  Pivots are taken in column order
    and free variables are pinned to zero, so the answer is unique
    whenever the columns are independent.  Rows stay integral: clearing
    a column multiplies a row by the pivot before subtracting, then
    divides out the row's gcd.  The row operations are kept as a
    transform of (coefficients, denominator) rows.  Each row up to the
    rank belongs to one pivot; its sign is normalized so that its
    denominator, the pivot, is positive.  Then the coordinate at that
    pivot is acc/den for acc = coefficients . target, so acc alone gives
    its sign and acc % den == 0 its integrality.  The rows past the rank
    have denominator 1 and vanish exactly on the span.  Scaling the
    columns and the target by one factor changes no solution, so weights
    enter as their doubled tuples.
    """

    def __init__(self, columns: Sequence[tuple]):
        self.ncols = len(columns)
        dim = len(columns[0]) if columns else 0
        aug = [[col[i] for col in columns] +
               [1 if k == i else 0 for k in range(dim)]
               for i in range(dim)]
        pivots = []
        r = 0
        for c in range(self.ncols):
            row = next((i for i in range(r, dim) if aug[i][c] != 0), None)
            if row is None:
                continue
            aug[r], aug[row] = aug[row], aug[r]
            top = aug[r]
            p = top[c]
            for i in range(dim):
                f = aug[i][c]
                if i != r and f != 0:
                    # never all zero: the identity block keeps full rank
                    new = [p * a - f * b for a, b in zip(aug[i], top)]
                    g = gcd(*new)
                    aug[i] = [v // g for v in new]
            pivots.append(c)
            r += 1
        self.rank = r
        self.pivots = tuple(pivots)
        self.transform = []
        for k, row in enumerate(aug):
            coeffs = tuple(row[self.ncols:])
            den = row[pivots[k]] if k < r else 1
            if den < 0:
                coeffs, den = tuple(map(neg, coeffs)), -den
            self.transform.append((coeffs, den))
        self._rows = self.transform[:r]
        self._null = [coeffs for coeffs, _ in self.transform[r:]]

    def numerators(self, target: Sequence) -> list | None:
        """One (acc, den) per pivot, or None if target is outside the span.

        The solution's coordinate at pivots[k] is acc/den for the k-th
        pair, with den > 0; the other coordinates are zero.
        """
        if not self.ncols:
            return [] if not any(target) else None
        for coeffs in self._null:
            if sum(map(mul, coeffs, target)):
                return None
        return [(sum(map(mul, coeffs, target)), den)
                for coeffs, den in self._rows]

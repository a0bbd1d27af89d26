"""W#-straightening of Laurent polynomials, and alternants decided by it.

Let D1 = prod_{beta in Delta1+}(e^{beta/2} + e^{-beta/2}), W-invariant
since W permutes the odd roots, and f = e^{rho+rho1} prod_{beta in
Delta1+ \\ S}(1 + e^{-beta}) = D1 Y for the term Y = e^rho /
prod_S(1 + e^{-beta}); so X D1 = A(f), A the alternating sum over W#.
A generator g of W_2 acts on the delta block only, so it commutes with
W#: g(A(f)) = A(g f), and St(g f) = g St(f), where St sends every
monomial e^mu to sgn(v) e^{v mu}, v mu W#-dominant, or to 0 where a
reflection of W# fixes mu.  Two alternants agree iff their
straightenings agree, so g(X) = sgn(g) X iff {g(k): c} = {k: sgn(g) c}
on St(f): one dict comparison per generator, with no expansion and no
use of Weyl's denominator formula.  A failing generator's witness is
the least key, in coordinate order, where the two dicts differ
(`Numerator.first_difference`).  The delta block is never straightened
under W_2, which would assume the skewness being checked.  `Numerator`
takes f's frame, exponent (rho above) and S as arguments, so it decides
the collapse step and the exchange lemma (`identity`) too.

`straighten` is the rule of W#'s type (`roots.WEYL_TYPES`): A sorts
descending, and a repeated entry is singular; B and C sort the absolute
values, each negative entry flipping the sign, and a zero or a repeated
absolute value is singular; D sorts the absolute values, only a repeat
is singular, and an odd count of negative entries stays on the last
entry unless it is 0.  The permutation's sign always counts.

`Numerator` computes St(f) by rows: row i holds the factors whose eps
part is nonzero at i, and before it h is straightened under the group of
W#'s type on the eps coordinates before i (type D on that subset for D).
This is exact: the rows not yet multiplied are invariant under that
subgroup K, and A(h g) = A(St_K(h) g) for a K-invariant g, A being a
signed sum of coset translates of A_K.  After the last row comes all of
W#, then the pure-delta factors (B with W# of type B), which W# fixes.
A monomial is one int, sum_i (x_i + b) B**i over the doubled
coordinates, eps block lowest, B = 2b + 1, with b above every
coordinate a factor can reach, so every key stays below B**(m+n): a
factor adds h moved by the packed -beta to a copy of h (`series._shift_add`,
the series products' kernel), one subtraction per key, and a stage looks
the low digits up in a memo of (change of key, sign).
"""

from __future__ import annotations

from .errors import StructuralError
from .groups import _gather, _perm_parity
from .roots import WEYL_TYPES
from .series import _shift_add
from .weights import Weight


def straighten(raw: tuple, kind: str, coords) -> tuple | None:
    """(raw made dominant on coords, sign) under the type-kind group there,
    or None where a reflection of that group fixes raw."""
    coords = list(coords)
    xs = [raw[c] for c in coords]
    vals = xs if kind == "A" else [abs(x) for x in xs]
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    out = [vals[i] for i in order]
    if any(a == b for a, b in zip(out, out[1:])) or (
            kind in "BC" and out and not out[-1]):
        return None
    sign = _perm_parity(order)
    if kind != "A" and sum(x < 0 for x in xs) % 2:
        if kind == "D":
            out[-1] = -out[-1]
        else:
            sign = -sign
    moved = list(raw)
    for c, x in zip(coords, out):
        moved[c] = x
    return tuple(moved), sign


class Numerator:
    """St(f) of frame, exponent and S: packed keys to nonzero coefficients.

    A negative odd root -gamma in S moves into the exponent, as
    1/(1 + e^{gamma}) = e^{-gamma}/(1 + e^{-gamma}).  An element of S that
    is no odd root of the frame, or repeats, leaves f no Laurent
    polynomial: StructuralError.
    """

    __slots__ = ("m", "n", "b", "B", "powers", "terms")

    def __init__(self, frame, exponent, S):
        m = self.m = frame.m
        self.n = frame.n
        kind = WEYL_TYPES[frame.rs.family][0]
        start = list((exponent + frame.rho1).doubled)
        odd = set(frame.pos_odd)
        for beta in S:
            if beta in odd:
                odd.remove(beta)
            elif -beta in odd:
                odd.remove(-beta)
                start = [x + y for x, y in zip(start, beta.doubled)]
            else:
                raise StructuralError("%s is no odd root of the frame left "
                                      "in S" % beta)
        factors = sorted(b.doubled for b in odd)
        self.b = b = max(map(abs, start), default=0) + 1 + sum(
            max(map(abs, t), default=0) for t in factors)
        self.B = B = 2 * b + 1
        self.powers = [B ** i for i in range(len(start))]
        rows = [[] for _ in range(m + 1)]
        for t in factors:
            row = next((i for i in range(m) if t[i]), m)
            rows[row].append(sum([x * p for x, p in zip(t, self.powers)]))
        h = {self._pack(start): 1}
        for i, row in enumerate(rows):
            # types A and D have no reflection on a single coordinate
            if i > 1 or (i and kind in "BC"):
                h = self._stage(h, i, kind)
            for p in row:
                h = _shift_add(dict(h), h.items(), -p, 1)
        self.terms = h

    def _pack(self, t) -> int:
        b = self.b
        return sum([(x + b) * p for x, p in zip(t, self.powers)])

    def _digits(self, key: int, count: int) -> list:
        out, b, B = [], self.b, self.B
        for _ in range(count):
            key, d = divmod(key, B)
            out.append(d - b)
        return out

    def _stage(self, h: dict, i: int, kind: str) -> dict:
        """h straightened on its first i eps coordinates."""
        top, memo, out = self.B ** i, {}, {}
        seen, get = memo.get, out.get
        for k, c in h.items():
            low = k % top
            move = seen(low)
            if move is None:
                got = straighten(self._digits(low, i), kind, range(i))
                move = memo[low] = (0, 0) if got is None else (
                    self._pack(got[0]) - low, got[1])
            diff, sign = move
            if sign:
                k += diff
                v = get(k, 0) + sign * c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return out

    def acted(self, g) -> dict:
        """{g(k): c} for a g of W_2, which moves the delta digits only."""
        m, n = self.m, self.n
        top = self.powers[m]
        src = [a - m if a > 0 else a + m for a in g.src[m:]]
        return {self._pack(_gather(src, self._digits(k // top, n))) * top
                + k % top: c for k, c in self.terms.items()}

    def first_difference(self, left: dict, right: dict) -> dict:
        """The least differing key, in coordinate order, of two packed
        dicts, as a weight with both coefficients."""
        keys = [k for k in left.keys() | right.keys()
                if left.get(k, 0) != right.get(k, 0)]
        raw, k = min((self._digits(k, self.m + self.n), k) for k in keys)
        return {"straightened": str(Weight(tuple(raw), self.m)),
                "left": str(left.get(k, 0)), "right": str(right.get(k, 0))}

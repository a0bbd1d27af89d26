"""Truncated exponential series over the weight lattice.

Every series lives in a frame: a simple system whose positive cone fixes
both the expansion directions and the coordinates.  A series stores the
coefficient of e^{offset - mu} keyed by the coordinate tuple of mu in the
simple basis; the offset is the frame's rho unless stated otherwise.
Truncation is by height (coordinate sum) of mu.  Keys may go negative in
intermediate sums; only assembled identities are expected to stay in the
cone.

Geometric factors 1/(1 + e^{-gamma}) are expanded along the positive
direction of the frame: a negative gamma is first rewritten via
1/(1 + e^{gamma'}) = e^{-gamma'}/(1 + e^{-gamma'}) with gamma' = -gamma.
Skipping that rewrite silently changes which power series the product
denotes, so terms are always normalized before expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .errors import StructuralError
from .simple import SimpleSystem
from .weights import Weight, coordinate_order, weight_json


@dataclass(frozen=True)
class GeometricTerm:
    """coeff * e^{exponent} / prod_{gamma in denoms} (1 + e^{-gamma})."""

    coeff: object
    exponent: Weight
    denoms: tuple

    @staticmethod
    def make(coeff, exponent: Weight, denoms: Sequence[Weight]) -> "GeometricTerm":
        return GeometricTerm(coeff, exponent,
                             tuple(sorted(denoms, key=coordinate_order)))

    def to_json(self) -> dict:
        return {
            "coeff": str(self.coeff),
            "exponent": weight_json(self.exponent),
            "denominators": [weight_json(g) for g in self.denoms],
        }


def normalize(term: GeometricTerm, frame: SimpleSystem) -> GeometricTerm:
    """Rewrite all denominator roots to be positive in the frame."""
    exponent = term.exponent
    denoms = []
    for g in term.denoms:
        if frame.is_positive_root(g):
            denoms.append(g)
        elif frame.is_positive_root(-g):
            exponent = exponent + g
            denoms.append(-g)
        else:
            raise StructuralError("denominator %s is not a root here" % g)
    return GeometricTerm.make(term.coeff, exponent, denoms)


def act(w, term: GeometricTerm) -> GeometricTerm:
    """Image of the term under a signed permutation (coefficient untouched)."""
    return GeometricTerm.make(term.coeff, w.apply(term.exponent),
                              [w.apply(g) for g in term.denoms])


def canonical_terms(terms: Sequence[GeometricTerm], frame: SimpleSystem) -> tuple:
    """Normalize, merge equal (exponent, denominators) and drop zeros.

    Two finite lists of geometric terms denote the same function iff their
    canonical forms coincide, so this is the exact closed-form comparison.
    """
    acc = {}
    for t in terms:
        nt = normalize(t, frame)
        key = (nt.exponent.doubled, tuple(g.doubled for g in nt.denoms))
        cur = acc.get(key)
        if cur is None:
            acc[key] = nt
        else:
            acc[key] = GeometricTerm(cur.coeff + nt.coeff, cur.exponent, cur.denoms)
    out = [t for t in acc.values() if t.coeff != 0]
    return tuple(sorted(out, key=lambda t: (
        t.exponent.doubled, tuple(g.doubled for g in t.denoms))))


class FormalSeries:
    """Coefficients of e^{offset - mu}, mu keyed in the frame's simple basis."""

    __slots__ = ("frame", "H", "offset", "data")

    def __init__(self, frame: SimpleSystem, H: int, offset: Optional[Weight] = None,
                 data: Optional[dict] = None):
        self.frame = frame
        self.H = H
        self.offset = frame.rho if offset is None else offset
        self.data = {} if data is None else data

    def _compatible(self, other: "FormalSeries") -> None:
        if self.frame is not other.frame and self.frame != other.frame:
            raise StructuralError("series frames differ")
        if self.H != other.H or self.offset != other.offset:
            raise StructuralError("series windows differ")

    def copy(self) -> "FormalSeries":
        return FormalSeries(self.frame, self.H, self.offset, dict(self.data))

    def add(self, other: "FormalSeries") -> "FormalSeries":
        self._compatible(other)
        return FormalSeries(self.frame, self.H, self.offset,
                            _accumulate(dict(self.data), other.data.items()))

    def scale(self, c) -> "FormalSeries":
        if c == 0:
            return FormalSeries(self.frame, self.H, self.offset, {})
        return FormalSeries(self.frame, self.H, self.offset,
                            {k: c * v for k, v in self.data.items()})

    def mul_binomial(self, sign: int, root: Weight) -> "FormalSeries":
        """Multiply by (1 + sign * e^{-root}) for a positive root."""
        return FormalSeries(self.frame, self.H, self.offset,
                            _times_binomial(self.data, self._step(root),
                                            sign, self.H))

    def mul_geometric(self, root: Weight) -> "FormalSeries":
        """Multiply by 1/(1 + e^{-root}) for a positive root of the frame."""
        return FormalSeries(self.frame, self.H, self.offset,
                            _geometric(self.data, self._step(root), self.H))

    def _step(self, root: Weight) -> tuple:
        """Simple coordinates of root; StructuralError unless it is positive.

        A step of height < 1 would leave the height window (binomial) or
        never reach its end (geometric).
        """
        step = self.frame.cone_int(root)
        if min(step, default=0) < 0 or _ht(step) < 1:
            raise StructuralError("%s is not positive in the frame" % root)
        return step

    def coefficient_at(self, weight: Weight):
        """Coefficient of e^{weight}."""
        key = self.frame.cone_key(self.offset - weight)
        return self.data.get(key, 0)

    def nonzero_count(self) -> int:
        return len(self.data)

    def eq_report(self, other: "FormalSeries") -> Optional[dict]:
        """None if equal on the window; else data about the first difference."""
        self._compatible(other)
        diffs = []
        for k in set(self.data) | set(other.data):
            a, b = self.data.get(k, 0), other.data.get(k, 0)
            if a != b:
                diffs.append((_ht(k), k, a, b))
        if not diffs:
            return None
        h, k, a, b = min(diffs)
        mu = self.frame.weight(k)
        return {
            "exponent": str(self.offset - mu),
            "mu": [str(c) for c in k],
            "height": str(h),
            "left": str(a),
            "right": str(b),
        }

    def items_sorted(self) -> list:
        return sorted(self.data.items(), key=lambda kv: (_ht(kv[0]), kv[0]))

    def dump_lines(self) -> list:
        """One line per term: coefficient, mu over the frame, exponent."""
        out = []
        for k, v in self.items_sorted():
            mu = ",".join(str(c) for c in k)
            out.append("%s [%s] e^(%s)"
                       % (v, mu, self.offset - self.frame.weight(k)))
        return out

    def to_json(self) -> dict:
        return {
            "offset": weight_json(self.offset),
            "truncation_height": self.H,
            "terms": [{"mu": [str(c) for c in k], "coeff": str(v)}
                      for k, v in self.items_sorted()],
        }


def _ht(key: tuple):
    return sum(key)


def _accumulate(acc: dict, items) -> dict:
    """Add the (key, value) pairs into acc, dropping keys that reach zero.

    Private on purpose: the benchmark tracer wraps every public function,
    and this runs once per term.
    """
    for k, v in items:
        nv = acc.get(k, 0) + v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


def _times_binomial(data: dict, step: tuple, sign: int, H=None) -> dict:
    """key->coeff data times (1 + sign * e^{-step}); keys past height H drop."""
    shifted = ((tuple(map(add, k, step)), sign * v) for k, v in data.items())
    if H is not None:
        shifted = ((k, v) for k, v in shifted if _ht(k) <= H)
    return _accumulate(dict(data), shifted)


def _geometric(data: dict, step: tuple, H) -> dict:
    """Multiply key->coeff data by sum_k (-1)^k e^{-k * step}.

    Uses G[key] = F[key] - G[key - step] along each chain key + N*step;
    chains do not interact, and the step height is >= 1.  Keys of F are
    taken in height order, and each one not yet reached starts a walk up
    its chain: nothing below it on the chain is still nonzero, or that
    walk would have reached it.  A walk stops where G vanishes (a later
    key of F restarts the chain) or past height H.
    """
    out = {}
    reached = set()
    hstep = _ht(step)
    for start in sorted(data, key=_ht):
        h = _ht(start)
        if h > H:
            break
        if start in reached:
            continue
        k, g = start, data[start]
        while True:
            if k in data:
                reached.add(k)
            if not g:
                break
            out[k] = g
            h += hstep
            if h > H:
                break
            k = tuple(map(add, k, step))
            g = data.get(k, 0) - g
    return out


def expand_term(term: GeometricTerm, frame: SimpleSystem, H,
                offset: Optional[Weight] = None) -> FormalSeries:
    """Expand one normalized geometric term in the frame's directions.

    A term with ht(offset - exponent) > H comes back empty before it is
    normalized or keyed.  That is exact: normalizing moves the exponent
    down by positive roots and expanding only adds positive steps, so
    every key of the term lies above that height.  Its denominators must
    still be roots and offset - exponent must still lie in the span.
    """
    offset = frame.rho if offset is None else offset
    if frame._height(offset - term.exponent) > H:
        for g in term.denoms:
            if not (frame.is_positive_root(g) or frame.is_positive_root(-g)):
                raise StructuralError("denominator %s is not a root here" % g)
        return FormalSeries(frame, H, offset)
    nt = normalize(term, frame)
    base = frame.cone_key(offset - nt.exponent)
    data = {base: nt.coeff} if _ht(base) <= H else {}
    for g in nt.denoms:
        data = _geometric(data, frame.cone_int(g), H)
    return FormalSeries(frame, H, offset, data)


def _merged(terms: Sequence[GeometricTerm]) -> dict:
    """Raw key (exponent, denoms) -> the term with its total coefficient.

    The key is the doubled tuples: the exponent's and the sorted
    denominators'.  Keys whose total is zero are dropped.  No
    normalization: two terms share a key only when they are written
    alike, so merging is a dict pass and needs no frame.  The values are
    the distinct terms, ready for `expand_terms`.
    """
    acc = {}
    for t in terms:
        key = (t.exponent.doubled, tuple([g.doubled for g in t.denoms]))
        cur = acc.get(key)
        acc[key] = t if cur is None else \
            GeometricTerm(cur.coeff + t.coeff, t.exponent, t.denoms)
    return {k: t for k, t in acc.items() if t.coeff}


def expand_terms(terms: Sequence[GeometricTerm], frame: SimpleSystem, H,
                 offset: Optional[Weight] = None) -> FormalSeries:
    """Sum of the expansions of the terms, one expansion per term.

    Expansion is linear in the coefficient, so a caller whose list repeats
    terms merges it first (`_merged`) and expands the distinct terms:
    q(7)'s 5,040 W-terms are 840 distinct ones.
    """
    offset = frame.rho if offset is None else offset
    acc = {}
    for t in terms:
        _accumulate(acc, expand_term(t, frame, H, offset).data.items())
    return FormalSeries(frame, H, offset, acc)
